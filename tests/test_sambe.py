"""The Floquet spectrum against an oracle that uses no time integrator.

H(t) = h_static + e^{iFt} h_hop + e^{-iFt} h_hop^dag has only the harmonics
0 and +-1, so the Floquet Hamiltonian in the extended (Sambe) space of
Fourier components phi_m, m in [-M, M], is block tridiagonal:

    eps phi_m = (h_static + m F) phi_m + h_hop phi_{m-1} + h_hop^dag phi_{m+1}.

Its eigenvalues in [-F/2, F/2) are the quasi-energies, and sum_m phi_m is
the Floquet state at t = 0 (H. Sambe, Phys. Rev. A 7, 2203 (1973)).  The
cut-off M is raised until every one of those states keeps all but 1e-12 of
its weight inside |m| <= M/2.
"""

from dataclasses import replace

import numpy as np
import pytest

import starkband as sb

INSIDE = 1.0 - 1e-12


def _sambe_states(parts, m_max):
    """(quasi-energies, Floquet states at t = 0, weight inside |m| <= M/2)."""
    dim = parts.basis_dim
    size = 2 * m_max + 1
    static, hop, hop_dag = (m.toarray() for m in (parts.h_static, parts.h_hop, parts.h_hop_dag))
    k = np.zeros((size * dim, size * dim), dtype=complex)
    for i in range(size):
        block = slice(i * dim, (i + 1) * dim)
        k[block, block] = static + (i - m_max) * parts.force * np.eye(dim)
        if i > 0:
            k[block, block.start - dim:block.start] = hop
        if i < size - 1:
            k[block, block.stop:block.stop + dim] = hop_dag
    energies, vectors = np.linalg.eigh(k)
    zone = (energies >= -parts.force / 2) & (energies < parts.force / 2)
    phi = vectors[:, zone].reshape(size, dim, -1)
    half = m_max // 2
    inside = (np.abs(phi[m_max - half:m_max + half + 1]) ** 2).sum(axis=(0, 1))
    return energies[zone], phi.sum(axis=0), inside


def _sambe_oracle(parts):
    for m_max in range(2, 41, 2):
        energies, states, inside = _sambe_states(parts, m_max)
        if energies.size == parts.basis_dim and inside.min() >= INSIDE:
            return energies, states
    raise AssertionError("no Fourier cut-off up to M = 40 holds the Floquet states")


@pytest.mark.parametrize("n,l", [(3, 3), (2, 4)], ids=["d3", "d2"])
def test_floquet_spectrum_matches_sambe_oracle(n, l):
    params = replace(sb.preset_v0_4(0.2), n_particles=n, n_sites=l)
    parts = sb.build_interaction_picture(params, sb.build_k0_sector(n, l))
    assert parts.boost_order == {(3, 3): 3, (2, 4): 2}[(n, l)]
    rng = np.random.default_rng(11)
    psi0 = rng.normal(size=parts.basis_dim) + 1j * rng.normal(size=parts.basis_dim)
    psi0 /= np.linalg.norm(psi0)

    energies, states = _sambe_oracle(parts)
    order = np.argsort(energies)
    want_eps = energies[order]
    want_weights = np.abs(states[:, order].conj().T @ psi0) ** 2
    # the comparison below pairs states by sorted quasi-energy, so it needs
    # them apart from each other and from the zone edges
    assert np.diff(want_eps).min() > 1e-6
    assert parts.force / 2 - np.abs(want_eps).max() > 1e-6

    spec = sb.diagonalize_floquet(sb.floquet_operator(parts), parts.boost_order,
                                  parts.t_bloch, psi0)
    assert np.abs(spec.quasi_energies - want_eps).max() < 1e-10
    assert np.abs(np.abs(spec.coefficients) ** 2 - want_weights).max() < 1e-8
