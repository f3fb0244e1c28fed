"""Hamiltonian assembly against hand-enumerated matrix elements and the
structural invariants (hermiticity, g-linearity, number conservation)."""

import importlib.util
import math
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.special import jv

import starkband as sb
from starkband import hamiltonian
from starkband.fock import Csr, FockState
from starkband.hamiltonian import _hop_forward, _static_entries, hermiticity_defect

from oracles import build_static_tilted, dense_hamiltonian

PARAMS_12 = sb.ModelParams(delta=4.39, c0=-0.15, t_a=0.062, t_b=0.62, w_a=0.03,
                           w_b=0.018, w_x=0.012, g=0.7, force=2.2207,
                           n_particles=1, n_sites=2)
PARAMS_21 = sb.ModelParams(delta=4.39, c0=-0.15, t_a=0.062, t_b=0.62, w_a=0.03,
                           w_b=0.018, w_x=0.012, g=0.7, force=2.2207,
                           n_particles=2, n_sites=1)


def test_term_mask_from_names():
    mask = sb.TermMask.from_names("hop_a,c0,int_x_density")
    assert mask.hop_a and mask.coupling_c0 and mask.int_x_density
    assert not (mask.hop_b or mask.int_a or mask.int_b or mask.int_x_pair)
    with pytest.raises(ValueError):
        sb.TermMask.from_names("hop_c")
    with pytest.raises(ValueError):
        sb.TermMask.from_names("")
    dco = sb.TermMask(int_a=False, int_b=False, int_x_pair=False)  # 2 g W_x n^a n^b only
    assert dco.int_x_density and not dco.int_a and not dco.int_b and not dco.int_x_pair
    assert dco.hop_a and dco.hop_b and dco.coupling_c0


def test_interaction_picture_one_particle_two_sites():
    # 4-dim full space, 2-dim kappa=0 sector; hand-enumerated matrices:
    #   h_static = [[-delta/2, c0 F], [c0 F, +delta/2]]
    #   h_hop    = diag(-t_a/2, +t_b/2)  (hopping is orbit-diagonal here)
    p = PARAMS_12
    sector = sb.build_k0_sector(1, 2)
    assert sector.dim == 2 and sector.full_dim == 4
    parts = sb.build_interaction_picture(p, sector)

    cf = p.c0 * p.force
    expected_static = np.array([[-p.delta / 2, cf], [cf, p.delta / 2]])
    expected_hop = np.diag([-p.t_a / 2, p.t_b / 2])
    assert np.abs(parts.h_static.toarray() - expected_static).max() < 1e-14
    assert np.abs(parts.h_hop.toarray() - expected_hop).max() < 1e-14


def test_interaction_picture_two_particles_one_site():
    # no hopping possible; diagonal band + interaction energies, the pair
    # term connects |2;0> <-> |0;2> with g*w_x, the c0 term with sqrt(2)*c0*F
    p = PARAMS_21
    sector = sb.build_k0_sector(2, 1)
    assert [s for s in sector.representatives] == [
        FockState((2,), (0,)), FockState((1,), (1,)), FockState((0,), (2,))]
    parts = sb.build_interaction_picture(p, sector)
    g, cf = p.g, p.c0 * p.force
    s2 = math.sqrt(2)
    expected = np.array([
        [-p.delta + g * p.w_a, s2 * cf,           g * p.w_x],
        [s2 * cf,              2 * g * p.w_x,     s2 * cf],
        [g * p.w_x,            s2 * cf,           p.delta + g * p.w_b],
    ])
    assert np.abs(parts.h_static.toarray() - expected).max() < 1e-14
    assert parts.h_hop.nnz == 0


def test_g_enters_only_interactions():
    sector = sb.build_k0_sector(2, 2)
    mask = sb.TermMask(int_a=False, int_b=False, int_x_density=False, int_x_pair=False)
    base = dict(delta=4.39, c0=-0.15, t_a=0.062, t_b=0.62, w_a=0.03, w_b=0.018,
                w_x=0.012, force=2.2207, n_particles=2, n_sites=2)
    h1 = sb.build_interaction_picture(sb.ModelParams(g=1.0, **base), sector, mask)
    h7 = sb.build_interaction_picture(sb.ModelParams(g=7.0, **base), sector, mask)
    assert np.abs((h1.h_static - h7.h_static).toarray()).max() == 0.0
    assert np.abs((h1.h_hop - h7.h_hop).toarray()).max() == 0.0


def test_g_linearity():
    sector = sb.build_k0_sector(3, 3)
    base = dict(delta=4.39, c0=-0.15, t_a=0.062, t_b=0.62, w_a=0.03, w_b=0.018,
                w_x=0.012, force=2.2207, n_particles=3, n_sites=3)
    h = {g: sb.build_interaction_picture(sb.ModelParams(g=g, **base), sector).h_static
         for g in (0.0, 1.0, 0.37)}
    lhs = (h[0.37] - h[0.0]).toarray()
    rhs = 0.37 * (h[1.0] - h[0.0]).toarray()
    assert np.abs(lhs - rhs).max() < 1e-13


@pytest.mark.parametrize("n,l,g", [(1, 2, 0.0), (2, 2, 0.5), (3, 3, 1.3), (2, 4, 0.1)])
def test_hermiticity(n, l, g):
    p = sb.ModelParams(delta=3.1, c0=0.21, t_a=0.3, t_b=0.7, w_a=0.11, w_b=0.23,
                       w_x=0.17, g=g, force=1.9, n_particles=n, n_sites=l)
    sector = sb.build_k0_sector(n, l)
    parts = sb.build_interaction_picture(p, sector)
    scale = max(np.abs(parts.h_static.data).max(), 1.0)
    assert hermiticity_defect(parts.h_static) < 1e-12 * scale
    for t in (0.0, 0.31, 2.2):
        h = dense_hamiltonian(parts, t)
        assert np.abs(h - h.conj().T).max() < 1e-12 * scale


def test_replaced_hopping_keeps_the_hamiltonian_hermitian():
    # h_hop_dag follows hop_csr, so a replaced hopping block gives a Hermitian
    # H(t), and `apply` stays the frame product e^{iDt} (H(t) - D) e^{-iDt}
    p = sb.ModelParams(delta=3.1, c0=0.21, t_a=0.3, t_b=0.7, w_a=0.11, w_b=0.23,
                       w_x=0.17, g=0.5, force=1.9, n_particles=2, n_sites=3)
    parts = sb.build_interaction_picture(p, sb.build_k0_sector(2, 3))
    rotated = replace(parts, hop_csr=parts.hop_csr._replace(data=1j * parts.hop_csr.data))
    y = np.random.default_rng(7).normal(size=(parts.basis_dim, 3)) + 0j
    for t in (0.0, 0.31, 2.2):
        h = dense_hamiltonian(rotated, t)
        assert np.abs(h - h.conj().T).max() < 1e-14
        r = np.exp(1j * t * rotated.frame)
        h_frame = r[:, None] * (h - np.diag(rotated.frame)) * r.conj()[None, :]
        assert np.abs(rotated.apply(t, y) - h_frame @ y).max() < 1e-12 * np.abs(h).max()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_sector_matrix_is_scipys_csr(n):
    # Oracle: the (i, j, value) entries that `SymmetrySector.matrix` collects,
    # through scipy's coo -> csr conversion and sum_duplicates; bit for bit
    params = replace(sb.preset_v0_4(0.2), n_particles=n, n_sites=n)
    sector = sb.build_k0_sector(n, n)
    sizes = sector.orbit_sizes
    for entries in (_static_entries, _hop_forward):
        def rule(rep):
            return entries(rep, params, sb.TermMask())
        rows, cols, vals = [], [], []
        for j, rep in enumerate(sector.representatives):
            for target, amp in rule(rep):
                i = sector.index[target]
                rows.append(i)
                cols.append(j)
                vals.append(amp * math.sqrt(sizes[j] / sizes[i]))
        expected = sparse.coo_matrix((vals, (rows, cols)), shape=(sector.dim,) * 2,
                                     dtype=complex).tocsr()
        expected.sum_duplicates()
        got = sector.matrix(rule)
        assert len(rows) > got.data.size  # duplicates were summed
        _assert_scipys_csr(got, expected)
    # the rule itself, on seeded entries with duplicates, explicit zeros and
    # +-0 parts, and on no entries at all.  12 entries a row: scipy sorts a
    # row of more than 16 entries unstably, which reorders their sums
    rng = np.random.default_rng(n)
    rows = rng.permutation(np.repeat(np.arange(n), 12))
    cols = rng.integers(0, n, size=rows.size)
    vals = np.empty(rows.size, dtype=complex)
    vals.real, vals.imag = rng.choice([0.0, -0.0, 1.0, -2.5, 0.1], size=(2, rows.size))
    vals[::7] = rng.normal(size=vals[::7].size) + 1j * rng.normal(size=vals[::7].size)
    vals[::5] = complex(-0.0, -0.0)
    for entries in ((rows, cols, vals), ([], [], [])):
        expected = sparse.coo_matrix((entries[2], entries[:2]), shape=(n, n),
                                     dtype=complex).tocsr()
        expected.sum_duplicates()
        _assert_scipys_csr(Csr.from_entries(*entries, n), expected)


def _assert_scipys_csr(got, expected):
    for name in ("indices", "indptr"):
        assert getattr(got, name).dtype == getattr(expected, name).dtype
        assert np.array_equal(getattr(got, name), getattr(expected, name))
    assert got.data.tobytes() == expected.data.tobytes()


@pytest.mark.parametrize("width", [1, 18, 64])
@pytest.mark.parametrize("n", [3, 5])
def test_apply_is_scipys_csr_product(n, width):
    # Oracle: `apply` runs scipy's compiled CSR product on its own arrays, so
    # it equals scipy.sparse.csr_matrix((data, indices, indptr)) @ y bit for
    # bit, for a vector, a single column and a block of columns
    params = replace(sb.preset_v0_4(0.2), n_particles=n, n_sites=n)
    parts = sb.build_interaction_picture(params, sb.build_k0_sector(n, n))
    fused, dim, t = parts._fused, parts.basis_dim, 0.37 * parts.t_bloch
    data = fused.values * np.exp(t * fused.rates)[fused.which]
    matrix = sparse.csr_matrix((data, fused.indices, fused.indptr), shape=(dim, dim))
    rng = np.random.default_rng(width)
    shapes = [(dim,), (dim, 1)] if width == 1 else [(dim, width)]
    for shape in shapes:
        y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = parts.apply(t, y)
        assert got.shape == shape
        assert got.tobytes() == (matrix @ y).tobytes()
    with pytest.raises(ValueError, match="does not match"):
        parts.apply(t, np.ones(dim + 1, dtype=complex))


def test_sparsetools_loader_names_a_missing_file(monkeypatch, tmp_path):
    # no fallback: where scipy's sparse/ directory lacks the compiled module,
    # the import fails and says which module it looked for, and where
    monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name: SimpleNamespace(submodule_search_locations=[str(tmp_path)]))
    with pytest.raises(ImportError, match="scipy.sparse._sparsetools not found") as err:
        hamiltonian._load_sparsetools()
    assert str(tmp_path / "sparse") in str(err.value)


def test_parts_reject_blocks_of_different_dimensions():
    parts = sb.build_interaction_picture(PARAMS_12, sb.build_k0_sector(1, 2))
    hop = Csr.from_entries([0], [2], [0.5], 3)
    with pytest.raises(ValueError, match="dimension 3"):
        replace(parts, hop_csr=hop)


def test_parts_compare_by_identity():
    # the generated == compared the Csr fields, tuples of arrays, and raised
    # on two parts built alike; parts now compare, and hash, as objects
    sector = sb.build_k0_sector(1, 2)
    a, b = (sb.build_interaction_picture(PARAMS_12, sector) for _ in range(2))
    assert a == a
    assert not a == b
    assert a != b
    same = replace(a)
    assert same is not a and same != a
    assert same.static_csr is a.static_csr
    assert len({a, b, same}) == 3


@pytest.mark.parametrize("states", [1, 3])
def test_parts_reject_a_charge_per_state_of_another_length(states):
    parts = sb.build_interaction_picture(PARAMS_12, sb.build_k0_sector(1, 2))
    with pytest.raises(ValueError, match="boost_charge"):
        replace(parts, boost_charge=np.zeros(states, dtype=np.int64))


def test_hermiticity_defect_of_sparse_and_dense_agree():
    # a Csr, the same scipy matrix and its dense array, with entries that
    # have no mirror, mirrors that differ and a Hermitian pair
    dense = np.zeros((4, 4), dtype=complex)
    dense[0, 1], dense[1, 0] = 1 + 2j, 1 - 2j
    dense[2, 3], dense[3, 2] = 0.5, 0.25j
    dense[1, 3], dense[2, 2] = -3.0, 1j
    matrix = sparse.csr_matrix(dense)
    block = Csr(matrix.data, matrix.indices, matrix.indptr)
    expected = float(np.abs(dense - dense.conj().T).max())
    assert hermiticity_defect(block) == hermiticity_defect(matrix) == expected == 3.0
    empty = Csr(np.zeros(0, dtype=complex), np.zeros(0, dtype=np.int32), np.zeros(3, np.int32))
    assert hermiticity_defect(empty) == 0.0


def test_sector_mismatch_rejected():
    sector = sb.build_k0_sector(2, 2)
    with pytest.raises(ValueError):
        sb.build_interaction_picture(PARAMS_12, sector)


def test_static_tilted_single_particle_chain():
    # lower-band block is tridiagonal {F, 2F, 3F} - delta/2 with -t_a/2 hops
    p = sb.ModelParams(delta=4.39, c0=-0.15, t_a=0.062, t_b=0.62, w_a=0.03, w_b=0.018,
                       w_x=0.012, g=0.0, force=2.2207, n_particles=1, n_sites=3)
    basis = sb.enumerate_fock(1, 3)
    mask = sb.TermMask(coupling_c0=False)
    h = build_static_tilted(p, basis, mask).toarray().real

    index = {s: i for i, s in enumerate(basis)}
    lower = [index[FockState(tuple(1 if i == l else 0 for i in range(3)), (0, 0, 0))]
             for l in range(3)]
    block = h[np.ix_(lower, lower)]
    expected = (np.diag([p.force - p.delta / 2, 2 * p.force - p.delta / 2,
                         3 * p.force - p.delta / 2])
                + np.diag([-p.t_a / 2] * 2, 1) + np.diag([-p.t_a / 2] * 2, -1))
    assert np.abs(block - expected).max() < 1e-14
    upper = [index[FockState((0, 0, 0), tuple(1 if i == l else 0 for i in range(3)))]
             for l in range(3)]
    assert np.abs(np.diag(h[np.ix_(upper, upper)])
                  - (np.arange(1, 4) * p.force + p.delta / 2)).max() < 1e-14
    # open chain: no corner (site 1 <-> site 3) hopping
    assert h[lower[0], lower[2]] == 0.0


def test_static_tilted_zero_particles():
    basis = sb.enumerate_fock(0, 3)
    h = build_static_tilted(PARAMS_12, basis)
    assert h.shape == (1, 1)
    assert h.nnz == 0


def test_static_tilted_number_conservation():
    p = sb.ModelParams(delta=4.39, c0=-0.15, t_a=0.062, t_b=0.62, w_a=0.03, w_b=0.018,
                       w_x=0.012, g=0.9, force=2.2207, n_particles=2, n_sites=2)
    basis = sb.enumerate_fock(2, 2)
    h = build_static_tilted(p, basis).tocoo()
    for i, j in zip(h.row, h.col):
        assert basis[i].n_particles == basis[j].n_particles == 2


def test_transformed_model_zero_hopping_limit():
    # delta_x -> 0 reduces the inter-band coupling to the on-site c0 F
    p = sb.ModelParams(delta=4.39, c0=-0.15, t_a=1e-14, t_b=1e-14, w_a=0.0, w_b=0.0,
                       w_x=0.0, g=0.0, force=1.0, n_particles=1, n_sites=2)
    h = sb.build_single_particle_transformed(p, site_window=4)
    n = 9
    off = h[:n, n:]
    assert np.abs(np.diag(off) - p.c0 * p.force).max() < 1e-13
    assert np.abs(off - np.diag(np.diag(off))).max() < 1e-13


def test_transformed_model_structure():
    p = sb.preset_v0_4()
    m = 10
    h = sb.build_single_particle_transformed(p, m)
    n = 2 * m + 1
    cf = p.c0 * p.force
    # coupling between lower site l and upper site n carries J_{l-n}(delta_x)
    for l, nn in [(0, 0), (2, 0), (0, 2), (5, 3), (3, 5)]:
        expected = cf * jv(l - nn, p.delta_x)
        assert h[l + m, n + nn + m] == pytest.approx(expected, rel=1e-12)
    # ladder translation covariance: shifting both sites adds F on the diagonal
    assert np.abs(np.diag(h)[1:n] - np.diag(h)[:n - 1] - p.force).max() < 1e-12
    sub = h[np.ix_(range(1, n), range(n + 1, 2 * n))]
    full = h[np.ix_(range(0, n - 1), range(n, 2 * n - 1))]
    assert np.abs(sub - full).max() < 1e-14
    assert np.abs(h - h.conj().T).max() == 0.0


def test_transformed_model_bessel_identities():
    # the gauge transformation is unitary: J_0^2 + 2 sum_m J_m^2 = 1 makes every
    # central coupling row carry (c0 F)^2, and J_{-k} = (-1)^k J_k relates the
    # (l, n) and (n, l) couplings
    for force in (2.2207, 0.7):
        p = replace(sb.preset_v0_4(), force=force)
        m = 12
        h = sb.build_single_particle_transformed(p, m)  # cutoffs 8 and 11, both below m
        n = 2 * m + 1
        off = h[:n, n:]
        assert (off[m] ** 2).sum() == pytest.approx((p.c0 * p.force) ** 2, rel=1e-12)
        sign = (-1.0) ** np.abs(np.subtract.outer(range(n), range(n)))
        assert np.abs(off - sign * off.T).max() < 1e-15


def test_transformed_model_resonant_block():
    # isolated 2x2 block of the order-2 pair (alpha_{l+2}, beta_l): splitting
    # sqrt((2F - delta)^2 + 4 (c0 F J_2)^2), from direct diagonalization
    p = sb.preset_v0_4()
    m = 10
    h = sb.build_single_particle_transformed(p, m)
    n = 2 * m + 1
    ia, ib = (2 + m), (n + 0 + m)          # alpha_{+2}, beta_0
    block = h[np.ix_([ia, ib], [ia, ib])]
    gap = np.diff(np.linalg.eigvalsh(block))[0]
    coupling = p.c0 * p.force * jv(2, p.delta_x)
    assert gap == pytest.approx(math.hypot(2 * p.force - p.delta, 2 * coupling), rel=1e-12)


def test_transformed_model_warnings():
    p = sb.preset_v0_4()
    with pytest.warns(UserWarning):
        sb.build_single_particle_transformed(p, site_window=2)  # window < coupling range


def test_two_level_reduction():
    p = sb.preset_v0_4()
    model = sb.build_resonant_two_level(p, 2)
    assert model.coupling == pytest.approx(p.c0 * p.force * jv(2, p.delta_x), rel=1e-14)
    assert model.detuning == pytest.approx(p.delta_tilde - 2 * p.force, rel=1e-12)
    assert model.amplitude == pytest.approx(0.979, abs=0.001)

    # exactly on resonance: full transfer, period pi/|coupling| = T_res
    p_res = replace(p, force=sb.resonant_force(p.delta, p.c0, 2))
    on_res = sb.build_resonant_two_level(p_res, 2)
    assert abs(on_res.detuning) < 1e-12
    assert on_res.amplitude == pytest.approx(1.0, abs=1e-12)
    assert on_res.period == pytest.approx(math.pi / abs(on_res.coupling), rel=1e-12)
    assert on_res.occupation(on_res.period / 2) == pytest.approx(1.0, abs=1e-9)


def test_two_level_zero_coupling():
    p = sb.ModelParams(delta=4.39, c0=0.0, t_a=0.062, t_b=0.62, w_a=0.03, w_b=0.018,
                       w_x=0.012, g=0.0, force=2.2207, n_particles=5, n_sites=5)
    model = sb.build_resonant_two_level(p, 2)
    assert model.coupling == 0.0
    assert np.all(model.occupation(np.linspace(0, 10, 5)) <= 1e-30)
