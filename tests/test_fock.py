"""Fock enumeration, translation orbits, the kappa=0 sector and its state index."""

import math
from math import comb

import numpy as np
import pytest

import starkband as sb
from starkband import fock
from starkband.fock import FockState

from oracles import expand


def test_full_dimension():
    assert sb.full_dimension(5, 5) == 2002         # 14! / (5! 9!)
    assert sb.full_dimension(0, 3) == 1
    assert sb.full_dimension(1, 3) == 6
    assert sb.full_dimension(7, 7) == comb(20, 7)
    with pytest.raises(ValueError):
        sb.full_dimension(-1, 3)
    with pytest.raises(ValueError):
        sb.full_dimension(2, 0)


def test_enumerate_small_cases():
    assert sb.enumerate_fock(1, 1) == [FockState((1,), (0,)), FockState((0,), (1,))]
    assert sb.enumerate_fock(2, 1) == [
        FockState((2,), (0,)), FockState((1,), (1,)), FockState((0,), (2,))]


def test_enumerate_complete_ordered():
    basis = sb.enumerate_fock(5, 5)
    assert len(basis) == 2002
    assert len(set(basis)) == 2002
    concat = [s.lower + s.upper for s in basis]
    assert all(a > b for a, b in zip(concat, concat[1:]))  # leading occupation descending
    assert all(s.n_particles == 5 for s in basis)


def test_enumerate_dimension_cap(monkeypatch):
    # 2002 states at N = L = 5: one above the cap raises, before any is listed
    monkeypatch.setattr(fock, "DIMENSION_CAP", 2001)
    with pytest.raises(ValueError, match="exceeds the cap 2001"):
        sb.enumerate_fock(5, 5)


def test_sector_beyond_the_dimension_cap_raises():
    # C(119, 40) states at N = L = 40: far more than could be listed
    with pytest.raises(ValueError, match="exceeds the cap"):
        sb.build_k0_sector(40, 40)


def test_translate():
    assert sb.translate(FockState((1, 0), (0, 0))) == FockState((0, 1), (0, 0))
    uniform = FockState((1, 1, 1, 1, 1), (0, 0, 0, 0, 0))
    assert sb.translate(uniform) == uniform
    for state in sb.enumerate_fock(2, 3):
        s = state
        for _ in range(3):
            s = sb.translate(s)
        assert s == state  # L-fold application is the identity


@pytest.mark.parametrize("n,l,dim", [(4, 4, 86), (5, 5, 402)])
def test_sector_dimensions_small(n, l, dim):
    assert sb.build_k0_sector(n, l).dim == dim


def _burnside_orbit_count(n, l):
    """Translation orbits of n bosons in 2l modes, by Burnside's lemma.

    A shift by s sites fixes the states that repeat every d = gcd(s, l)
    sites: m = l/d copies of a 2d-mode block holding n/m bosons each.
    """
    fixed = 0
    for s in range(l):
        d = math.gcd(s, l)
        m = l // d
        if n % m == 0:
            fixed += comb(n // m + 2 * d - 1, 2 * d - 1)
    assert fixed % l == 0
    return fixed // l


@pytest.mark.parametrize("n,l", [(n, l) for n in range(1, 7) for l in range(1, 7)])
def test_sector_dimension_is_burnside_count(n, l):
    # every bosonic orbit carries a kappa = 0 vector, so dim = number of orbits;
    # e.g. (2, 2): 10 states, the half-turn fixes (1,1;0,0) and (0,0;1,1) -> 6
    assert sb.build_k0_sector(n, l).dim == _burnside_orbit_count(n, l)


@pytest.mark.parametrize("n,l", [(1, 2), (2, 2), (3, 3), (2, 4), (4, 4), (5, 5), (3, 5)])
def test_orbit_accounting(n, l):
    sector = sb.build_k0_sector(n, l)
    assert int(sector.orbit_sizes.sum()) == sb.full_dimension(n, l)
    assert all(l % int(s) == 0 for s in sector.orbit_sizes)


def test_prime_l_without_multiples():
    # L = 7 prime and 7 does not divide N = 6: every orbit has size exactly L
    sector = sb.build_k0_sector(6, 7)
    assert np.all(sector.orbit_sizes == 7)
    assert sector.dim == 27132 // 7 == 3876


def test_unit_filling_formula_prime_l():
    # N = L prime: exactly two translation-invariant states
    sector = sb.build_k0_sector(5, 5)
    assert sector.dim == (2002 - 2) // 5 + 2
    assert int((sector.orbit_sizes == 1).sum()) == 2


def test_lookup_translate_consistency():
    sector = sb.build_k0_sector(3, 4)
    for state in sb.enumerate_fock(3, 4):
        assert sector.index[sb.translate(state)] == sector.index[state]


def test_lookup_roundtrip_representatives():
    sector = sb.build_k0_sector(3, 4)
    for i, rep in enumerate(sector.representatives):
        assert sector.index[rep] == i


def test_expand_orthonormal():
    sector = sb.build_k0_sector(2, 3)
    e0 = np.zeros(sector.dim); e0[0] = 1.0
    e1 = np.zeros(sector.dim); e1[1] = 1.0
    f0, f1 = expand(sector, e0), expand(sector, e1)
    assert np.linalg.norm(f0) == pytest.approx(1.0, rel=1e-12)
    assert abs(np.vdot(f0, f1)) < 1e-12


def test_project_unit_filling():
    sector = sb.build_k0_sector(5, 5)
    coords = sb.project_initial_state("unit-filling-lower", sector)
    assert np.linalg.norm(coords) == pytest.approx(1.0, rel=1e-14)
    (idx,) = np.nonzero(np.abs(coords) > 0)
    assert len(idx) == 1
    rep = sector.representatives[idx[0]]
    assert rep == FockState((1,) * 5, (0,) * 5)
    assert sector.orbit_sizes[idx[0]] == 1


def test_project_unit_filling_requires_commensurate():
    sector = sb.build_k0_sector(2, 3)
    with pytest.raises(ValueError):
        sb.project_initial_state("unit-filling-lower", sector)


def test_project_explicit_state():
    sector = sb.build_k0_sector(1, 2)
    coords = sb.project_initial_state(FockState((1, 0), (0, 0)), sector)
    full = expand(sector, coords)
    # the symmetrized orbit state (|10;00> + |01;00>)/sqrt(2)
    basis = sb.enumerate_fock(1, 2)
    expected = {FockState((1, 0), (0, 0)): 1 / math.sqrt(2),
                FockState((0, 1), (0, 0)): 1 / math.sqrt(2)}
    for state, amp in zip(basis, full):
        assert amp == pytest.approx(expected.get(state, 0.0), abs=1e-14)


def test_project_explicit_state_rejects_mismatch():
    sector = sb.build_k0_sector(2, 3)
    with pytest.raises(ValueError):
        sb.project_initial_state(FockState((1, 0), (0, 0)), sector)   # wrong L
    with pytest.raises(ValueError):
        sb.project_initial_state(FockState((1, 0, 0), (0, 0, 0)), sector)  # wrong N
    with pytest.raises(ValueError):
        sb.project_initial_state("no-such-descriptor", sector)
    # rejected before the lookup, which would not find it
    with pytest.raises(ValueError, match="negative occupation"):
        sb.project_initial_state(FockState((2, -1), (0, 0)), sb.build_k0_sector(1, 2))


@pytest.mark.parametrize("n,l", [(6, 7), (3, 2), (4, 4)])
def test_lower_band_ground(n, l):
    # (3, 2): on two sites a forward hop and its reverse join the same sites
    sector = sb.build_k0_sector(n, l)
    coords = sb.project_initial_state("lower-band-ground", sector)
    assert np.linalg.norm(coords) == pytest.approx(1.0, rel=1e-12)
    # strictly lower-band state
    weights = np.abs(coords) ** 2
    assert float(weights @ sector.upper_fractions) < 1e-24

    # independent oracle: ground energy of the single-band hopping Hamiltonian
    # K = sum_l (a^dag_{l+1} a_l + h.c.) on the full (unsymmetrized) basis of
    # n bosons on an l-ring
    import itertools
    states = [s for s in itertools.product(range(n + 1), repeat=l) if sum(s) == n]
    index = {s: i for i, s in enumerate(states)}
    k_full = np.zeros((len(states), len(states)))
    for s in states:
        j = index[s]
        for src in range(l):
            if s[src] == 0:
                continue
            for dst in ((src + 1) % l, (src - 1) % l):
                t = list(s)
                t[src] -= 1
                t[dst] += 1
                k_full[index[tuple(t)], j] += math.sqrt(s[src] * (t[dst]))
    ground_full = np.linalg.eigvalsh(-k_full)[0]

    # sector-side expectation of the same operator: with t_a = 1 and only the
    # lower-band hopping on, h_hop + h_hop_dag = -K/2, so the sector ground
    # energy must be half the full-basis ground energy of -K
    p = sb.ModelParams(delta=4.39, c0=-0.15, t_a=1.0, t_b=0.62, w_a=0.0, w_b=0.0,
                       w_x=0.0, g=0.0, force=2.2207, n_particles=n, n_sites=l)
    mask = sb.TermMask(coupling_c0=False, hop_b=False)
    parts = sb.build_interaction_picture(p, sector, mask)
    h0 = (parts.h_hop + parts.h_hop_dag).toarray().real
    energy = float(coords.real @ (h0 @ coords.real))
    assert energy == pytest.approx(0.5 * ground_full, rel=1e-10)


def test_sector_vs_full_expectation():
    # <sum_l n_l^b> agrees between sector coordinates and the expanded state
    p = sb.ModelParams(delta=4.39, c0=-0.15, t_a=0.062, t_b=0.62, w_a=0.03, w_b=0.018,
                       w_x=0.012, g=0.3, force=2.2201, n_particles=2, n_sites=3)
    sector = sb.build_k0_sector(2, 3)
    parts = sb.build_interaction_picture(p, sector)
    psi = sb.project_initial_state(FockState((1, 1, 0), (0, 0, 0)), sector)
    final = sb.evolve(psi, parts, 5.0, samples_per_period=1).states[-1]
    nb_sector = float((np.abs(final) ** 2) @ sector.upper_fractions) * p.n_particles
    full = expand(sector, final)
    basis = sb.enumerate_fock(2, 3)
    nb_full = sum(abs(amp) ** 2 * sum(s.upper) for s, amp in zip(basis, full))
    assert nb_sector == pytest.approx(nb_full, abs=1e-12)
