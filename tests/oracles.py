"""Oracles for the tests: the embedding of kappa = 0 sector coordinates in
the full Fock basis, the dense lab-frame H(t) of the sector, the static
Hamiltonian with the explicit tilt l*F in the full basis, and the Floquet
spectrum from full dim x dim products."""

import math

import numpy as np
import scipy.sparse as sparse

from starkband.fock import FockState, enumerate_fock, translate
from starkband.hamiltonian import TermMask, _diagonal_energy, _onsite_offdiagonal
from starkband.propagation import EIGEN_MIX


def expand(sector, coords) -> np.ndarray:
    """Embed sector coordinates as a full-Fock-basis vector, in the order of
    enumerate_fock."""
    coords = np.asarray(coords)
    index = {s: i for i, s in enumerate(enumerate_fock(sector.n_particles, sector.n_sites))}
    full = np.zeros(len(index), dtype=complex)
    for i, rep in enumerate(sector.representatives):
        size = int(sector.orbit_sizes[i])
        amp = coords[i] / np.sqrt(size)
        s = rep
        for _ in range(size):
            full[index[s]] += amp
            s = translate(s)
    return full


def dense_hamiltonian(parts, t: float) -> np.ndarray:
    """The lab-frame H(t) = h_static + e^{iFt} h_hop + e^{-iFt} h_hop^dag of
    `parts` as a dense array, from its `Csr` blocks, each position summed in
    that order."""
    static, hop = parts.static_csr, parts.hop_csr
    phase = np.exp(1j * parts.force * t)
    h = np.zeros((static.dim,) * 2, dtype=complex)
    h[static.rows(), static.indices] = static.data
    hopping = np.zeros_like(h)
    hopping[hop.rows(), hop.indices] = hop.data
    h += phase * hopping
    h += np.conj(phase) * hopping.conj().T
    return h


def _open_chain_hops(state: FockState, params, mask: TermMask):
    """(target, amplitude) pairs for the l -> l+1 hops of both bands on an
    open chain: -t_a/2 in the lower band, +t_b/2 in the upper."""
    lo, up = state.lower, state.upper
    for occ, amp, on, upper in ((lo, -0.5 * params.t_a, mask.hop_a, False),
                                (up, +0.5 * params.t_b, mask.hop_b, True)):
        if not on:
            continue
        for src in range(len(occ) - 1):
            if occ[src] == 0:
                continue
            new = list(occ)
            new[src] -= 1
            new[src + 1] += 1
            target = FockState(lo, tuple(new)) if upper else FockState(tuple(new), up)
            yield target, amp * math.sqrt(occ[src] * (occ[src + 1] + 1))


def build_static_tilted(params, basis, mask: TermMask = TermMask()):
    """Time-independent Hamiltonian with the explicit tilt l*F, on the full
    Fock basis with open boundary conditions (a tilt on a ring is ill-defined).

    Sites are numbered 1..L, so the single-particle diagonal is
    +-delta/2 + l*F.
    """
    index = {s: i for i, s in enumerate(basis)}
    rows, cols, vals = [], [], []
    for j, state in enumerate(basis):
        diag = _diagonal_energy(state.lower, state.upper, params, mask)
        diag += params.force * sum(l * (na + nb) for l, (na, nb)
                                   in enumerate(zip(state.lower, state.upper), start=1))
        if diag != 0.0:
            rows.append(j)
            cols.append(j)
            vals.append(diag)
        for target, amp in _onsite_offdiagonal(state, params, mask):
            rows.append(index[target])
            cols.append(j)
            vals.append(amp)
        # forward hops plus their conjugates, no phases
        for target, amp in _open_chain_hops(state, params, mask):
            i = index[target]
            rows.extend((i, j))
            cols.extend((j, i))
            vals.extend((amp, amp))
    dim = len(basis)
    return sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=complex).tocsr()


def full_matrix_spectrum(y, parts, psi0):
    """S = Y^T (Phi Y) for the half-period propagator Y, and the sorted
    quasi-energies, eigenvectors and initial-state overlaps of S^d: V from
    numpy's eigh, the rest each from one full matrix product, S V and the
    residual max|SV - V Sigma| on it."""
    order = parts.boost_order
    s = y.T @ (np.exp(-2j * math.pi * parts.boost_charge / order)[:, None] * y)
    _, vectors = np.linalg.eigh(s.real + EIGEN_MIX * s.imag)
    sv = s @ vectors
    sigma = np.einsum("ij,ij->j", vectors, sv)
    assert np.abs(sv - vectors * sigma).max() <= 1e-8
    eps = -np.angle(sigma ** order) / parts.t_bloch
    ranks = np.argsort(eps, kind="stable")
    vectors = vectors[:, ranks]
    return s, eps[ranks], vectors, vectors.T @ np.asarray(psi0, dtype=complex)
