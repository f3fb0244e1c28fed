"""Fock enumeration, translation orbits, the kappa=0 sector and its state index."""

import math
import tracemalloc
from math import comb

import numpy as np
import pytest

import starkband as sb
from starkband import fock
from starkband.fock import FockState

from oracles import expand, fock_states, full_operator, oracle_sector, translate


def _rows(states):
    """FockStates as rows of 2L occupations, lower band first."""
    return np.array([s.lower + s.upper for s in states])


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
    assert fock._basis(1, 1).tolist() == [[1, 0], [0, 1]]
    assert fock._basis(2, 1).tolist() == [[2, 0], [1, 1], [0, 2]]
    assert fock._basis(0, 2).tolist() == [[0, 0, 0, 0]]
    assert fock_states(2, 1) == [
        FockState((2,), (0,)), FockState((1,), (1,)), FockState((0,), (2,))]


def test_enumerate_complete_ordered():
    basis = fock._basis(5, 5)
    assert basis.shape == (2002, 10)
    rows = [tuple(row) for row in basis.tolist()]
    assert all(a > b for a, b in zip(rows, rows[1:]))  # leading occupation descending
    assert np.all(basis.sum(axis=1) == 5)
    assert rows == [s.lower + s.upper for s in fock_states(5, 5)]
    # a state's rank is its place in the order
    table = fock._rank_table(5, 10)
    assert np.array_equal(fock._ranks(basis, table, range(10)), np.arange(2002))


@pytest.mark.parametrize("n,l", [(n, l) for n in range(7) for l in range(1, 7)])
def test_basis_is_the_oracles_listing(n, l):
    # every N, L <= 6: the rows of the stars-and-bars listing, in its order,
    # in the smallest unsigned type that holds N
    basis = fock._basis(n, l)
    assert basis.dtype == np.min_scalar_type(n)
    assert basis.tolist() == [list(s.lower + s.upper) for s in fock_states(n, l)]


@pytest.mark.parametrize("n,l", [(1, 600), (7, 7), (3, 40), (5000, 1)])
def test_basis_is_listed_once(n, l):
    # each row is written once into one array: beside it the listing holds a
    # few int64 words per state (the rank left, the bosons before and after
    # a mode, the rank table: 7.5 at most measured, at N = 1, L = 600),
    # where copying each level of trailing modes into the next held 300 at
    # N = 1, L = 600 and 20 at N = 3, L = 40.  At N = 1 the basis is the
    # identity in order
    tracemalloc.start()
    try:
        basis = fock._basis(n, l)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= basis.nbytes + 8 * 8 * len(basis)
    if n == 1:
        assert np.array_equal(basis, np.eye(2 * l, dtype=np.uint8))


def test_enumerate_dimension_cap(monkeypatch):
    # 2002 states at N = L = 5: one above the cap raises, before any is listed
    def forbidden(*args):
        raise AssertionError("the basis was listed")

    monkeypatch.setattr(fock, "DIMENSION_CAP", 2001)
    monkeypatch.setattr(fock, "_basis", forbidden)
    with pytest.raises(ValueError, match="exceeds the cap 2001"):
        sb.build_k0_sector(5, 5)


def test_sector_beyond_the_dimension_cap_raises():
    # C(119, 40) states at N = L = 40: far more than could be listed
    with pytest.raises(ValueError, match="exceeds the cap"):
        sb.build_k0_sector(40, 40)


def test_translate():
    # the oracle's translation, against the package's orbits
    assert translate(FockState((1, 0), (0, 0))) == FockState((0, 1), (0, 0))
    uniform = FockState((1, 1, 1, 1, 1), (0, 0, 0, 0, 0))
    assert translate(uniform) == uniform
    sector = sb.build_k0_sector(2, 3)
    for state in fock_states(2, 3):
        s = state
        for _ in range(3):
            s = translate(s)
            assert sector.locate(_rows([s])) == sector.locate(_rows([state]))
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


@pytest.mark.parametrize("n,l", [(n, l) for n in range(1, 7) for l in range(1, 7)] + [(7, 7)])
def test_sector_dimension_is_burnside_count(n, l):
    # every bosonic orbit carries a kappa = 0 vector, so dim = number of orbits;
    # e.g. (2, 2): 10 states, the half-turn fixes (1,1;0,0) and (0,0;1,1) -> 6;
    # (7, 7): 11,076
    assert sb.build_k0_sector(n, l).dim == _burnside_orbit_count(n, l)


@pytest.mark.parametrize("n,l", [(n, l) for n in range(0, 7) for l in range(1, 7)])
def test_sector_matches_the_oracle(n, l):
    # representatives, orbit sizes and the sector index of every full-basis
    # state, exactly as the oracle finds them state by state
    sector = sb.build_k0_sector(n, l)
    oracle = oracle_sector(n, l)
    states = fock_states(n, l)
    assert sector.full_dim == len(states) == sb.full_dimension(n, l)
    assert sector.occupations.tolist() == _rows(oracle.representatives).tolist()
    assert sector.orbit_sizes.dtype == np.int64
    assert sector.orbit_sizes.tolist() == list(oracle.orbit_sizes)
    assert sector.locate(_rows(states)).tolist() == [oracle.index[s] for s in states]
    expected = [sum(rep.upper) / n if n else 0.0 for rep in oracle.representatives]
    assert sector.upper_fractions.tobytes() == np.array(expected).tobytes()


def test_dimension_one_site_beyond_the_recursion_limit():
    # 1,200 modes: one particle on 600 sites, in one of two orbits
    sector = sb.build_k0_sector(1, 600)
    assert (sector.full_dim, sector.dim) == (1200, 2)
    assert sector.orbit_sizes.tolist() == [600, 600]
    # each represented by its smallest state: the boson on the last site
    assert [np.flatnonzero(row).tolist() for row in sector.occupations] == [[599], [1199]]


def test_sector_keeps_no_full_basis_of_states():
    # after it returns, the sector keeps its representatives and one integer
    # per full-basis state: 0.15 MiB at N = L = 6, where a dict from every
    # FockState to its orbit kept 3.7 MiB (tracemalloc)
    sb.build_k0_sector(2, 2)
    tracemalloc.start()
    try:
        sector = sb.build_k0_sector(6, 6)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sector.full_dim == 12376
    assert kept < 2**20


@pytest.mark.parametrize("n,l", [(7, 7), (3, 40), (40, 2), (5000, 1), (1, 600)])
def test_sector_memory_estimate_covers_the_build(n, l):
    # what the physical-memory check prices is at least tracemalloc's peak
    tracemalloc.start()
    try:
        sb.build_k0_sector(n, l)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= fock._sector_bytes(n, l)


def test_sector_beyond_physical_memory_raises(monkeypatch):
    # refused before the basis is listed
    def forbidden(*args):
        raise AssertionError("the basis was listed")

    need = fock._sector_bytes(5, 5)
    monkeypatch.setattr(fock, "_physical_memory", lambda: need)
    assert sb.build_k0_sector(5, 5).dim == 402
    monkeypatch.setattr(fock, "_physical_memory", lambda: need - 1)
    monkeypatch.setattr(fock, "_basis", forbidden)
    with pytest.raises(ValueError, match="Fock basis of 2,002 states needs about .* physical memory"):
        sb.build_k0_sector(5, 5)


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
    states = fock_states(3, 4)
    located = sector.locate(_rows(states))
    assert np.array_equal(sector.locate(_rows([translate(s) for s in states])), located)
    rows = _rows(states)
    shifted = np.concatenate((np.roll(rows[:, :4], 1, axis=1), np.roll(rows[:, 4:], 1, axis=1)), 1)
    assert np.array_equal(sector.locate(shifted), located)


def test_lookup_roundtrip_representatives():
    sector = sb.build_k0_sector(3, 4)
    assert np.array_equal(sector.locate(sector.occupations), np.arange(sector.dim))


def test_ladder():
    # a normal-ordered string on each row it does not annihilate, with the
    # root of the product of its factors n and n + 1: exact where the
    # product is, and without wrapping where it passes 2**63
    occupations = np.array([[3, 1, 0], [1, 0, 4], [2, 2, 2]], dtype=np.uint8)
    rows, targets, amplitudes = fock.ladder(occupations, (2, 2), (0, 0))
    assert rows.tolist() == [0, 2]
    assert targets.tolist() == [[1, 1, 2], [0, 2, 4]]
    assert targets.dtype == np.uint8
    assert occupations.tolist() == [[3, 1, 0], [1, 0, 4], [2, 2, 2]]
    assert amplitudes.tolist() == [math.sqrt(3 * 2 * 2 * 1), math.sqrt(2 * 1 * 4 * 3)]
    big = np.array([[200_000, 100_000]])
    _, targets, amplitudes = fock.ladder(big, (0, 0), (1, 1))
    assert targets.tolist() == [[200_002, 99_998]]
    exact = math.sqrt(math.perm(100_000, 2) * math.perm(200_002, 2))
    assert amplitudes[0] == pytest.approx(exact, rel=1e-15)
    # c^dag_0 c^dag_1 c_1 c_0 = n_0 n_1, each row onto itself
    rows, targets, amplitudes = fock.ladder(occupations, (0, 1), (1, 0))
    assert rows.tolist() == [0, 2]
    assert np.array_equal(targets, occupations[rows])
    assert amplitudes.tolist() == [3.0, 4.0]
    # c^dag_0 c_1 annihilates the row with mode 1 empty, and (c_1)^3 every row
    rows, targets, amplitudes = fock.ladder(occupations, (0,), (1,))
    assert rows.tolist() == [0, 2]
    assert targets.tolist() == [[4, 0, 0], [3, 1, 2]]
    assert amplitudes.tolist() == [math.sqrt(1 * 4), math.sqrt(2 * 3)]
    rows, targets, amplitudes = fock.ladder(occupations, (), (1, 1, 1))
    assert rows.size == 0 and targets.shape == (0, 3) and amplitudes.size == 0


def _translation_invariant(n_sites, one_templates, two_templates, rng):
    """A real Hermitian one-body matrix and two-body tensor on the 2L modes,
    each template, a string of (band, site offset) modes, at a seeded
    coefficient on every site l, with its Hermitian conjugate."""
    def mode(band, offset, site):
        return band * n_sites + (site + offset) % n_sites

    one_body = np.zeros((2 * n_sites,) * 2)
    two_body = np.zeros((2 * n_sites,) * 4)
    for table, templates in ((one_body, one_templates), (two_body, two_templates)):
        for template in templates:
            value = rng.normal()
            for site in range(n_sites):
                modes = tuple(mode(band, offset, site) for band, offset in template)
                table[modes] += value
                table[modes[::-1]] += value
    return one_body, two_body


def _entries(table):
    """The nonzero entries of a dense table, the form `operator` takes."""
    return {modes: table[modes] for modes in zip(*np.nonzero(table))}


@pytest.mark.parametrize("n,l", [(2, 3), (3, 3), (2, 4)])
def test_operator_matches_the_full_basis(n, l):
    # Oracle: E^dag H_full E, with H_full from the scalar rule term by term on
    # the full basis and E the embedding of the sector; h holds next-nearest
    # and inter-band neighbour hops, v nearest-neighbour density and pair terms
    a, b = 0, 1
    one_body, two_body = _translation_invariant(
        l,
        [((a, 0), (a, 0)), ((b, 0), (b, 0)), ((a, 1), (a, 0)), ((b, 2), (b, 0)),
         ((a, 2), (a, 0)), ((b, 0), (a, 0)), ((b, 1), (a, 0)), ((a, 1), (b, 0))],
        [((a, 0), (a, 0), (a, 0), (a, 0)), ((a, 0), (a, 1), (a, 1), (a, 0)),
         ((a, 0), (b, 1), (b, 1), (a, 0)), ((b, 0), (b, 1), (b, 1), (b, 0)),
         ((b, 0), (b, 1), (a, 1), (a, 0)), ((b, 0), (b, 0), (a, 1), (a, 1)),
         ((a, 0), (b, 0), (b, 1), (a, 1))],
        np.random.default_rng(10 * n + l))
    sector = sb.build_k0_sector(n, l)
    got = sector.operator(_entries(one_body), _entries(two_body))
    matrix = np.zeros((sector.dim,) * 2, dtype=complex)
    matrix[got.rows(), got.indices] = got.data
    embedding = np.array([expand(sector, column) for column in np.eye(sector.dim)]).T
    full = full_operator(n, l, one_body, two_body)
    expected = embedding.conj().T @ full @ embedding
    assert np.abs(expected).max() > 1.0 and np.abs(expected - expected.T).max() < 1e-12
    assert np.abs(matrix - expected).max() < 1e-12
    # the one-body part alone, and entries that are all zero
    matrix[:] = 0
    one = sector.operator(_entries(one_body))
    matrix[one.rows(), one.indices] = one.data
    full = full_operator(n, l, one_body, np.zeros_like(two_body))
    assert np.abs(matrix - embedding.conj().T @ full @ embedding).max() < 1e-12
    assert sector.operator({(0, 0): 0.0}, {(0, 1, 1, 0): 0.0}).data.size == 0


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
    assert sector.occupations[idx[0]].tolist() == [1] * 5 + [0] * 5
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
    basis = fock_states(1, 2)
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
    # <sum_l n_l^b> agrees between sector coordinates and the expanded
    # state, for a seeded random state of the sector
    sector = sb.build_k0_sector(2, 3)
    rng = np.random.default_rng(17)
    psi = rng.normal(size=sector.dim) + 1j * rng.normal(size=sector.dim)
    psi /= np.linalg.norm(psi)
    nb_sector = float((np.abs(psi) ** 2) @ sector.upper_fractions) * 2
    full = expand(sector, psi)
    basis = fock_states(2, 3)
    nb_full = sum(abs(amp) ** 2 * sum(s.upper) for s, amp in zip(basis, full))
    assert nb_sector == pytest.approx(nb_full, abs=1e-12)
