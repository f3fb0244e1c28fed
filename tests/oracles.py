"""Oracles for the tests: the full Fock basis and its translation orbits,
the matrix elements of h_static and h_hop and the sector matrices they give,
the embedding of kappa = 0 sector coordinates in the full Fock basis, the
dense lab-frame H(t) of the sector, the static Hamiltonian with the explicit
tilt l*F in the full basis, the Floquet spectrum from full dim x dim
products, and an eigendecomposed trace from every sample's own phases.

The basis, the orbits and the matrix elements use nothing of the package's
own: they work on one FockState tuple at a time, list the basis by stars
and bars, find orbits by repeated translation with a dict from every state
to its orbit, and write each amplitude from c|n> = sqrt(n)|n-1> and
c^dag|n> = sqrt(n+1)|n+1>.  Entries come column by column, and within a
column the diagonal first, each term's integer occupation sum scaled once as
the package does it.  Every other entry at one position comes from one term
in one direction, site by site, as in the package, except that the package
lists a band's hops by the site they reach and the oracle by the site they
leave, a rotation that leaves every tested sum bit for bit the same.
`full_operator` applies any one-body matrix and two-body tensor to the full
basis, one operator at a time.
"""

import itertools
import math
from functools import cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sparse

from starkband.fock import FockState
from starkband.hamiltonian import TermMask
from starkband.propagation import EIGEN_MIX


def fock_states(n_particles, n_sites):
    """Every state of N bosons in 2L modes, leading occupation descending:
    the 2L - 1 bars among N + 2L - 1 places, in reverse of the order in
    which itertools lists them."""
    modes = 2 * n_sites
    places = n_particles + modes - 1
    states = []
    for bars in itertools.combinations(range(places), modes - 1):
        edges = (-1, *bars, places)
        occupations = tuple(b - a - 1 for a, b in zip(edges, edges[1:]))
        states.append(FockState(occupations[:n_sites], occupations[n_sites:]))
    return states[::-1]


def translate(state: FockState) -> FockState:
    """Cyclic shift l -> l+1 (mod L) applied to both bands simultaneously."""
    lo, up = state
    return FockState(lo[-1:] + lo[:-1], up[-1:] + up[:-1])


class OracleSector(NamedTuple):
    representatives: tuple  # the smallest state of each orbit
    orbit_sizes: tuple
    index: dict  # every FockState -> its orbit's sector index


@cache
def oracle_sector(n_particles, n_sites) -> OracleSector:
    """The translation orbits of the full basis in order of first encounter."""
    index, reps, sizes = {}, [], []
    for state in fock_states(n_particles, n_sites):
        if state in index:
            continue
        orbit = [state]
        s = translate(state)
        while s != state:
            orbit.append(s)
            s = translate(s)
        index.update(dict.fromkeys(orbit, len(reps)))
        reps.append(min(orbit))
        sizes.append(len(orbit))
    return OracleSector(tuple(reps), tuple(sizes), index)


def expand(sector, coords) -> np.ndarray:
    """Embed the sector coordinates of `sector`'s (N, L) as a full-Fock-basis
    vector, in the order of fock_states."""
    coords = np.asarray(coords)
    oracle = oracle_sector(sector.n_particles, sector.n_sites)
    basis = fock_states(sector.n_particles, sector.n_sites)
    full = np.zeros(len(basis), dtype=complex)
    for i, state in enumerate(basis):
        j = oracle.index[state]
        full[i] = coords[j] / np.sqrt(oracle.orbit_sizes[j])
    return full


def _moved(state: FockState, src, dst, k):
    """(c_dst^dag)^k (c_src)^k |state> for modes numbered lower band first:
    (the state after the move, its amplitude), or None where src holds fewer
    than k bosons.  The k lowering and k raising factors multiply under one
    square root."""
    occupations = list(state.lower + state.upper)
    n, m = occupations[src], occupations[dst]
    if n < k:
        return None
    occupations[src] -= k
    occupations[dst] += k
    lowering = math.factorial(n) // math.factorial(n - k)
    raising = math.factorial(m + k) // math.factorial(m)
    L = len(state.lower)
    return FockState(tuple(occupations[:L]), tuple(occupations[L:])), math.sqrt(lowering * raising)


def _diagonal_energy(state: FockState, params, mask: TermMask) -> float:
    """Band gap and interactions of one Fock state; the tilt is not included.
    Each term's integer occupation sum is scaled once, and the terms are
    added in the order the package adds them."""
    g, lower, upper = params.g, state.lower, state.upper
    terms = [(-0.5 * params.delta, sum(lower), True),
             (0.5 * params.delta, sum(upper), True),
             (0.5 * g * params.w_a, sum(n * (n - 1) for n in lower), mask.int_a),
             (2.0 * g * params.w_x, sum(na * nb for na, nb in zip(lower, upper)),
              mask.int_x_density),
             (0.5 * g * params.w_b, sum(n * (n - 1) for n in upper), mask.int_b)]
    e = 0.0
    for coefficient, count, on in terms:
        if on:
            e += coefficient * count
    return e


def _onsite_offdiagonal(state: FockState, params, mask: TermMask):
    """(target, amplitude) pairs of the on-site band-changing terms: one
    boson at c0 F (b^dag_l a_l) and two at g W_x / 2 (b^dag_l b^dag_l a_l
    a_l), each with its Hermitian partner."""
    terms = [(k, coupling) for k, coupling, on in (
        (1, params.c0 * params.force, mask.coupling_c0),
        (2, 0.5 * (params.g * params.w_x), mask.int_x_pair),
    ) if on and coupling != 0.0]
    L = len(state.lower)
    for l in range(L):
        for k, coupling in terms:
            for src, dst in ((l, L + l), (L + l, l)):
                moved = _moved(state, src, dst, k)
                if moved:
                    yield moved[0], coupling * moved[1]


def _hops(state: FockState, params, mask: TermMask, links):
    """(target, amplitude) pairs of the hops l -> l+1 over `links`, (l, l+1)
    site pairs, in the lower band at -t_a/2 and then the upper at +t_b/2."""
    L = len(state.lower)
    for on, band, amplitude in ((mask.hop_a, 0, -0.5 * params.t_a),
                                (mask.hop_b, L, +0.5 * params.t_b)):
        for src, dst in links if on else ():
            moved = _moved(state, band + src, band + dst, 1)
            if moved:
                yield moved[0], amplitude * moved[1]


def static_entries(state: FockState, params, mask: TermMask):
    """(target, amplitude) pairs of h_static applied to one state."""
    diag = _diagonal_energy(state, params, mask)
    if diag != 0.0:
        yield state, diag
    yield from _onsite_offdiagonal(state, params, mask)


def hop_forward(state: FockState, params, mask: TermMask):
    """(target, amplitude) pairs of h_hop, the l -> l+1 hops on the ring,
    applied to one state; a single site has no distinct neighbour."""
    L = len(state.lower)
    yield from _hops(state, params, mask, [(l, (l + 1) % L) for l in range(L)] if L > 1 else [])


def sector_entries(n_particles, n_sites, rule):
    """(row, column, value) of each entry of `rule` on the orbit
    representatives, column by column, with the orbit factor
    sqrt(orbit_j / orbit_i) of an element i <- j."""
    reps, sizes, index = oracle_sector(n_particles, n_sites)
    for j, rep in enumerate(reps):
        for target, amp in rule(rep):
            i = index[target]
            yield i, j, amp * math.sqrt(sizes[j] / sizes[i])


def sector_csr(n_particles, n_sites, rule):
    """(data, indices, indptr) of the sector matrix of `rule`: the entries at
    one position summed, as complex numbers, in the order they come."""
    sums = {}
    for i, j, value in sector_entries(n_particles, n_sites, rule):
        sums[i, j] = sums[i, j] + value if (i, j) in sums else complex(value)
    keys = sorted(sums)
    counts = [0] * len(oracle_sector(n_particles, n_sites).representatives)
    for i, _ in keys:
        counts[i] += 1
    return (np.array([sums[key] for key in keys], dtype=complex),
            np.array([j for _, j in keys], dtype=np.int32),
            np.array([0, *itertools.accumulate(counts)], dtype=np.int32))


def _string(state: FockState, creations, annihilations):
    """c^dag_i1 .. c^dag_ip c_k1 .. c_kq |state> for modes numbered lower
    band first, one operator at a time from the right, each amplitude a
    factor sqrt(n) or sqrt(n + 1): (the state after it, its amplitude), or
    None where a c meets an empty mode."""
    occupations = list(state.lower + state.upper)
    amplitude = 1.0
    for mode in reversed(annihilations):
        if occupations[mode] == 0:
            return None
        amplitude *= math.sqrt(occupations[mode])
        occupations[mode] -= 1
    for mode in reversed(creations):
        occupations[mode] += 1
        amplitude *= math.sqrt(occupations[mode])
    L = len(state.lower)
    return FockState(tuple(occupations[:L]), tuple(occupations[L:])), amplitude


def full_operator(n_particles, n_sites, one_body, two_body) -> np.ndarray:
    """sum h_ij c^dag_i c_j + sum v_ijkl c^dag_i c^dag_j c_k c_l as a dense
    matrix on the full basis, in the order of fock_states: state by state
    and entry by entry, each through `_string`."""
    basis = fock_states(n_particles, n_sites)
    index = {state: i for i, state in enumerate(basis)}
    terms = [((i,), (j,), one_body[i, j]) for i, j in np.ndindex(one_body.shape)]
    terms += [((i, j), (k, l), two_body[i, j, k, l]) for i, j, k, l in np.ndindex(two_body.shape)]
    terms = [term for term in terms if term[2] != 0.0]
    full = np.zeros((len(basis),) * 2)
    for column, state in enumerate(basis):
        for creations, annihilations, value in terms:
            moved = _string(state, creations, annihilations)
            if moved:
                full[index[moved[0]], column] += value * moved[1]
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


def build_static_tilted(params, basis, mask: TermMask = TermMask()):
    """Time-independent Hamiltonian with the explicit tilt l*F, on the full
    Fock basis with open boundary conditions (a tilt on a ring is ill-defined).

    Sites are numbered 1..L, so the single-particle diagonal is
    +-delta/2 + l*F.
    """
    index = {s: i for i, s in enumerate(basis)}
    rows, cols, vals = [], [], []
    for j, state in enumerate(basis):
        diag = _diagonal_energy(state, params, mask)
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
        # forward hops on the open chain plus their conjugates, no phases
        chain = [(l, l + 1) for l in range(len(state.lower) - 1)]
        for target, amp in _hops(state, params, mask, chain):
            i = index[target]
            rows.extend((i, j))
            cols.extend((j, i))
            vals.extend((amp, amp))
    dim = len(basis)
    return sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=complex).tocsr()


def full_product(y, parts):
    """S = Y^T (Phi Y), one full product, for the half-period propagator Y:
    symmetric only up to its last bits."""
    return y.T @ (np.exp(-2j * math.pi * parts.boost_charge / parts.boost_order)[:, None] * y)


def full_matrix_spectrum(y, parts, psi0):
    """S = Y^T (Phi Y) for the half-period propagator Y (`full_product`), and
    the sorted quasi-energies, eigenvectors and initial-state overlaps of
    S^d: V and the eigenvalues m of M = Re S + mu Im S from numpy's eigh,
    which reads M's lower triangle; B, Im S's lower triangle mirrored,
    b_j = v_j^T B v_j and the residual max|BV - V diag(b)| from one full
    product V^T B; and S's eigenvalues sigma = (m - mu b) + i b."""
    order = parts.boost_order
    s = full_product(y, parts)
    values, vectors = np.linalg.eigh(s.real + EIGEN_MIX * s.imag)
    b_matrix = np.tril(s.imag) + np.tril(s.imag, -1).T
    rows = np.ascontiguousarray(vectors.T)  # the eigenvectors as rows, as dstedc and dormtr write them
    bvt = rows @ b_matrix
    b = np.einsum("ij,ij->i", rows, bvt)
    assert np.abs(bvt - b[:, None] * rows).max() <= 1e-8
    sigma = values - EIGEN_MIX * b + 1j * b
    eps = -np.angle(sigma ** order) / parts.t_bloch
    ranks = np.argsort(eps, kind="stable")
    vectors = vectors[:, ranks]
    return s, eps[ranks], vectors, vectors.T @ np.asarray(psi0, dtype=complex)


def direct_trace(energies, vectors, coefficients, weights, times):
    """sum_j w_j |psi_j(t)|^2 at each of `times`, psi(t) = V (c e^{-i E t}),
    with every sample's phases exponentiated and one complex product with V,
    the route of the single-particle command before its trace streamed;
    500 samples at a time."""
    values = []
    for start in range(0, len(times), 500):
        phases = np.exp(-1j * np.outer(times[start:start + 500], energies))
        psi_t = (phases * coefficients) @ vectors.T
        values.append((np.abs(psi_t) ** 2) @ weights)
    return np.concatenate(values)
