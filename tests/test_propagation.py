"""Direct integration, the one-period propagator, and stroboscopic evolution.

The heavyweight dim-402 cases live in the acceptance suite; here the same
contracts are exercised on systems small enough to run in seconds.
"""

import itertools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from scipy.integrate import solve_ivp

import starkband as sb
import starkband.propagation as propagation
from starkband.cli import main
from starkband.fock import Csr, FockState
from starkband.propagation import EIGEN_MIX

from conftest import peak_copies
from oracles import dense_hamiltonian, full_matrix_spectrum

SMALL = sb.ModelParams(delta=4.39, c0=-0.15, t_a=0.062, t_b=0.62, w_a=0.03, w_b=0.018,
                       w_x=0.012, g=0.4, force=2.2201, n_particles=2, n_sites=3)


@pytest.fixture(scope="module")
def small_system():
    sector = sb.build_k0_sector(2, 3)
    parts = sb.build_interaction_picture(SMALL, sector)
    psi0 = sb.project_initial_state(FockState((1, 1, 0), (0, 0, 0)), sector)
    return sector, parts, psi0


def _diagonal_parts(energies, force=2.0):
    dim = len(energies)
    diagonal = Csr.from_entries(range(dim), range(dim), energies, dim)
    return sb.HamiltonianParts(static_csr=diagonal, hop_csr=Csr.from_entries([], [], [], dim),
                               force=force)


def _lab_frame(parts, psi, times):
    """Oracle: i dpsi/dt = H(t) psi from psi(0) = psi, H(t) dense, integrated by
    DOP853 in the lab frame, not through `apply`; one column per time in
    `times`."""
    sol = solve_ivp(lambda t, y: -1j * dense_hamiltonian(parts, t) @ y, (0.0, times[-1]),
                    np.asarray(psi, dtype=complex), method="DOP853", rtol=1e-12, atol=1e-12,
                    t_eval=times)
    assert sol.success
    return sol.y


def _lab_frame_period(parts, fraction=1):
    """Oracle U(T_B / fraction): the matrix ODE i dU/dt = H(t) U, H(t) dense, in
    the lab frame, independent of floquet_operator."""
    dim = parts.basis_dim

    def rhs(t, y):
        return (-1j * dense_hamiltonian(parts, t) @ y.reshape(dim, dim)).ravel()

    sol = solve_ivp(rhs, (0.0, parts.t_bloch / fraction), np.eye(dim, dtype=complex).ravel(),
                    method="DOP853", rtol=1e-12, atol=1e-12)
    assert sol.success
    return sol.y[:, -1].reshape(dim, dim)


def test_diagonal_evolution_exact():
    energies = np.array([0.3, -1.1, 2.7])
    parts = _diagonal_parts(energies)
    psi0 = np.array([0.5, 0.5j, math.sqrt(0.5)], dtype=complex)
    result = sb.evolve(psi0, parts, 5.0, samples_per_period=4)
    assert result.times[-1] == 5.0 and result.states.shape == (8, 3)
    expected = psi0 * np.exp(-1j * np.outer(result.times, energies))
    assert np.abs(result.states - expected).max() < 1e-10


def test_evolve_two_level_closed_form():
    # hopping masked off leaves a static 2x2; compare against the Rabi solution
    p = sb.ModelParams(**{**SMALL.__dict__, "n_particles": 1, "n_sites": 2, "g": 0.0})
    sector = sb.build_k0_sector(1, 2)
    mask = sb.TermMask(hop_a=False, hop_b=False)
    parts = sb.build_interaction_picture(p, sector, mask)
    psi0 = sb.project_initial_state(FockState((1, 0), (0, 0)), sector)
    result = sb.evolve(psi0, parts, 10.0, samples_per_period=56)
    trace = sb.occupation_series(result, sector)
    v = p.c0 * p.force
    half_gap = math.hypot(0.5 * p.delta, v)
    oracle = (v / half_gap) ** 2 * np.sin(half_gap * trace.times) ** 2
    assert np.abs(trace.values - oracle).max() < 1e-6


def test_evolve_validation():
    parts = _diagonal_parts([1.0, 2.0])
    for t_final in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="t_final"):
            sb.evolve(np.array([1.0, 0.0]), parts, t_final, samples_per_period=4)
    with pytest.raises(ValueError, match="samples_per_period"):
        sb.evolve(np.array([1.0, 0.0]), parts, 1.0, samples_per_period=0)
    with pytest.raises(ValueError, match="dimension"):
        sb.evolve(np.array([1.0, 0.0, 0.0]), parts, 1.0, samples_per_period=4)
    with pytest.raises(ValueError, match="weights"):
        sb.evolve(np.array([1.0, 0.0]), parts, 1.0, samples_per_period=4, weights=[1.0])


def test_evolve_sampling_grid():
    # t_k = k T_B/n up to t_final, then t_final itself when it falls between
    # two samples (T_B = pi here)
    parts = _diagonal_parts([0.5, -0.5])
    result = sb.evolve(np.array([1.0, 0.0], dtype=complex), parts, 1.0, samples_per_period=8)
    assert result.times == pytest.approx([0.0, np.pi / 8, np.pi / 4, 1.0], rel=1e-15, abs=0.0)
    assert result.states.shape == (4, 2)
    result = sb.evolve(np.array([1.0, 0.0], dtype=complex), parts, np.pi / 2, samples_per_period=8)
    assert result.times == pytest.approx(np.pi / 8 * np.arange(5), rel=1e-15, abs=0.0)


def test_floquet_diagonal_case():
    energies = np.array([0.2, 1.4, -0.9])
    parts = _diagonal_parts(energies, force=3.0)
    s = sb.floquet_operator(parts)  # boost order 1: S is U(T_B)
    expected = np.diag(np.exp(-1j * energies * parts.t_bloch))
    assert np.abs(s - expected).max() < 1e-10


def test_floquet_unitarity_and_periodicity(small_system):
    sector, parts, psi0 = small_system
    u = np.linalg.matrix_power(sb.floquet_operator(parts), parts.boost_order)
    defect = np.abs(u.conj().T @ u - np.eye(sector.dim)).max()
    assert defect < 1e-8
    # applying U twice, and evolve, which takes its later windows from S,
    # both match two periods integrated in the lab frame
    oracle = _lab_frame(parts, psi0, [2 * parts.t_bloch])[:, -1]
    assert np.abs(u @ (u @ psi0) - oracle).max() < 1e-9
    result = sb.evolve(psi0, parts, 2 * parts.t_bloch, samples_per_period=1)
    assert np.abs(result.states[-1] - oracle).max() < 1e-9


@pytest.fixture(scope="module")
def system44():
    params = replace(sb.preset_v0_4(0.2), n_particles=4, n_sites=4)
    return sb.build_interaction_picture(params, sb.build_k0_sector(4, 4))


def test_apply_matches_dense_hamiltonian(system44):
    # apply is the Hamiltonian in the frame of D = diag(h_static):
    # e^{iDt} (H(t) - D) e^{-iDt}, with the dense lab-frame H(t) of the oracle.
    # At N = 1, L = 3 the hopping blocks have diagonal entries of their own.
    one = sb.build_interaction_picture(replace(sb.preset_v0_4(0.2), n_particles=1, n_sites=3),
                                       sb.build_k0_sector(1, 3))
    rng = np.random.default_rng(3)
    for parts in (system44, one):
        t = 0.37 * parts.t_bloch
        h = dense_hamiltonian(parts, t)
        d = parts.h_static.diagonal().real
        r = np.exp(1j * t * d)
        h_frame = r[:, None] * (h - np.diag(d)) * r.conj()[None, :]
        for shape in ((parts.basis_dim,), (parts.basis_dim, 5)):
            y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            assert np.abs(parts.apply(t, y) - h_frame @ y).max() < 1e-12 * np.abs(h).max()


def test_evolve_matches_lab_frame(system44):
    # 1.5 periods at 8 samples per period, at boost order d = 4
    parts = system44
    rng = np.random.default_rng(5)
    psi = rng.normal(size=parts.basis_dim) + 1j * rng.normal(size=parts.basis_dim)
    psi /= np.linalg.norm(psi)
    result = sb.evolve(psi, parts, 1.5 * parts.t_bloch, samples_per_period=8)
    assert result.times.size == 13
    assert np.abs(result.states.T - _lab_frame(parts, psi, result.times)).max() < 1e-9


# (samples per period, span in Bloch periods): whole periods, one sample per
# period (every sample on a window start, so no window needs integration on
# the propagator route), spans that end on a sample inside a window and
# between two samples, and a span shorter than one period
GRID_CASES = {"whole-periods": (8, 3.0), "one-per-period": (1, 5.0),
              "span-3.5TB": (8, 3.5), "span-4.55TB": (4, 4.55), "span-0.6TB": (8, 0.6)}


@pytest.mark.parametrize("route", ["propagator", "vectors"])
@pytest.mark.parametrize("n,l", [(3, 3), (2, 4)])
@pytest.mark.parametrize("per_period,span_tb", list(GRID_CASES.values()), ids=list(GRID_CASES))
def test_evolve_windows_match_lab_frame(n, l, per_period, span_tb, route, monkeypatch):
    # both routes through the windows: starts from powers of S, integrated
    # side by side in blocks of two windows (FLOQUET_CHUNK // 2, so window 0
    # shares the first block, blocks join up, and the last may hold a
    # partial window), and window-by-window vector integrations
    built = []
    floquet_operator = propagation.floquet_operator
    monkeypatch.setattr(propagation, "_propagator_pays", lambda *args: route == "propagator")
    monkeypatch.setattr(propagation, "floquet_operator",
                        lambda *args, **kw: built.append(1) or floquet_operator(*args, **kw))
    monkeypatch.setattr(propagation, "FLOQUET_CHUNK", 4)
    parts = _parts_for(n, l)
    tb = parts.t_bloch
    rng = np.random.default_rng(11)
    psi = rng.normal(size=parts.basis_dim) + 1j * rng.normal(size=parts.basis_dim)
    psi /= np.linalg.norm(psi)
    result = sb.evolve(psi, parts, span_tb * tb, samples_per_period=per_period)
    want = tb / per_period * np.arange(math.floor(span_tb * per_period + 1e-9) + 1)
    if want[-1] < span_tb * tb * (1 - 1e-12):
        want = np.append(want, span_tb * tb)
    assert result.times == pytest.approx(want, rel=1e-14, abs=0.0)
    assert np.abs(result.states.T - _lab_frame(parts, psi, result.times)).max() < 1e-9
    assert built == ([1] if route == "propagator" and span_tb >= 1 else [])


# (samples per period, span in Bloch periods): whole periods, one sample per
# period, and a t_final between two samples
STREAM_CASES = [(8, 3.0), (1, 4.0), (4, 3.55)]


@pytest.mark.parametrize("route", ["propagator", "vectors"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_streamed_occupations_match_the_states(n, route, monkeypatch):
    # with weights evolve keeps only N_b of each sample; the integrations
    # are those that keep the states, so N_b and the norm drift agree.  On
    # the propagator route the blocks hold two windows (FLOQUET_CHUNK = 4),
    # so the starts of later blocks are built from S as they are needed
    parts = _parts_for(n, n)
    sector = sb.build_k0_sector(n, n)
    psi0 = sb.project_initial_state("unit-filling-lower", sector)
    s = sb.floquet_operator(parts) if route == "propagator" else None
    monkeypatch.setattr(propagation, "_propagator_pays", lambda *args: route == "propagator")
    monkeypatch.setattr(propagation, "floquet_operator", lambda *args, **kw: s)
    monkeypatch.setattr(propagation, "FLOQUET_CHUNK", 4)
    for per_period, span_tb in STREAM_CASES:
        t_final = span_tb * parts.t_bloch
        kept = sb.evolve(psi0, parts, t_final, samples_per_period=per_period)
        streamed = sb.evolve(psi0, parts, t_final, samples_per_period=per_period,
                             weights=sector.upper_fractions)
        assert streamed.states is None and kept.values is None
        assert np.array_equal(streamed.times, kept.times)
        want = sb.occupation_series(kept, sector).values
        assert np.abs(sb.occupation_series(streamed, sector).values - want).max() <= 1e-14
        assert streamed.norm_drift == kept.norm_drift


def test_occupation_series_refuses_other_streamed_weights(small_system):
    sector, parts, psi0 = small_system
    result = sb.evolve(psi0, parts, parts.t_bloch, samples_per_period=4,
                       weights=np.ones(sector.dim))
    assert result.values == pytest.approx(np.ones(5), abs=1e-10)
    with pytest.raises(ValueError, match="upper_fractions"):
        sb.occupation_series(result, sector)


def test_evolve_integrates_one_period_per_block(monkeypatch):
    # N = L = 4 at 32 samples per period takes the propagator route; 10 and
    # 30 periods integrate windows 0..9 and 0..29 (window 10 or 30 holds
    # only its start), each one block of at most FLOQUET_CHUNK // 2 = 32
    # columns, so both integrate one period, in about the same number of
    # right-hand side calls (S is built once, outside the count)
    parts = _parts_for(4, 4)
    s = sb.floquet_operator(parts)
    built, calls = [], []
    apply = sb.HamiltonianParts.apply
    monkeypatch.setattr(propagation, "floquet_operator", lambda *args, **kw: built.append(1) or s)
    monkeypatch.setattr(sb.HamiltonianParts, "apply",
                        lambda self, t, y: calls.append(y.shape) or apply(self, t, y))
    psi = sb.project_initial_state("unit-filling-lower", sb.build_k0_sector(4, 4))
    counts = {}
    for periods in (10, 30):
        calls.clear()
        sb.evolve(psi, parts, periods * parts.t_bloch, samples_per_period=32)
        counts[periods] = len(calls)
        assert set(calls) == {(parts.basis_dim, periods)}
    assert built == [1, 1]
    assert abs(counts[30] - counts[10]) <= 0.1 * counts[10]


def test_evolve_work_at_the_preset(preset_runs, monkeypatch):
    # deterministic work counters at 50 periods and 32 samples per period:
    # S's 7 chunks of columns (six of 64, one of 18) take 452 right-hand
    # side calls, each chunk after the first from the step the one before
    # would take next (518 with every chunk from Hairer's probe); then
    # windows 0..49 run as blocks of 32 and 18 columns (window 50 holds
    # only its start), 1,769 calls in all
    parts = preset_runs.parts(0.2)
    widths, built = [], []
    apply = sb.HamiltonianParts.apply
    floquet_operator = propagation.floquet_operator

    def counted(*args, **kw):
        s = floquet_operator(*args, **kw)
        built.append(len(widths))
        return s

    monkeypatch.setattr(sb.HamiltonianParts, "apply",
                        lambda self, t, y: widths.append(y.shape[1]) or apply(self, t, y))
    monkeypatch.setattr(propagation, "floquet_operator", counted)
    sb.evolve(preset_runs.psi0, parts, 50 * parts.t_bloch, samples_per_period=32)
    assert len(built) == 1
    propagator, blocks = widths[:built[0]], widths[built[0]:]
    assert len(propagator) <= 460
    assert len(widths) <= 1790
    assert list(dict.fromkeys(propagator)) == [64, 18]
    assert list(dict.fromkeys(blocks)) == [32, 18]


def test_evolve_integrates_vectors_where_the_propagator_cannot_be_built(small_system,
                                                                          monkeypatch):
    # S refuses a complex hopping block, and a working set beyond the
    # physical memory; evolve then integrates every window as a vector
    _, parts, psi0 = small_system
    rotated = replace(parts, hop_csr=parts.hop_csr._replace(data=1j * parts.hop_csr.data))
    tb = parts.t_bloch

    def refuse(*args, **kw):
        raise AssertionError("floquet_operator called")

    monkeypatch.setattr(propagation, "floquet_operator", refuse)
    for case in (rotated, parts):
        if case is parts:  # room for the trace (4.5 kB), not for S (53 kB)
            monkeypatch.setattr(propagation, "_physical_memory", lambda: 10**4)
        assert propagation._propagator_obstacle(case)
        result = sb.evolve(psi0, case, 6.3 * tb, samples_per_period=4)
        assert result.times.size == 27
        assert np.abs(result.states.T - _lab_frame(case, psi0, result.times)).max() < 1e-9


def _break_even(dim, order, samples_per_period):
    """Fewest whole periods (the last window that holds a sample) for which
    evolve builds S; None below 10,000."""
    stand_in = SimpleNamespace(basis_dim=dim, boost_order=order)
    return next((final for final in range(1, 10_000)
                 if propagation._propagator_pays(stand_in, final * samples_per_period,
                                                 samples_per_period)), None)


def test_propagator_pays_beyond_a_break_even_that_grows_with_dim():
    # 32 samples per period; the model breaks even at 3 periods at dim 86,
    # 15 at the preset (dim 402) and 166 at N = L = 6 (dim 2076).  Single
    # timings of both routes on one core: at the preset the vector route
    # took 0.29 s against 0.50 s over 12 periods, and 0.86 s against 0.69 s
    # over 17; at N = L = 6, 22.3 s against 25.2 s over 150 periods and
    # 35.0 s against 28.4 s over 200
    assert _break_even(86, 4, 32) <= 3
    assert 12 < _break_even(402, 5, 32) <= 17
    assert 150 < _break_even(2076, 6, 32) <= 200
    # one sample per period at N = L = 6, where S integrates nothing: the
    # model gives 111; vectors took 11.0 s against 14.5 s over 100 periods
    # and 17.7 s against 13.3 s over 140
    assert 100 < _break_even(2076, 6, 1) <= 140


# (N, L) with boost order d = gcd(N, L) = 1, 2, 3, 4
BOOST_SHAPES = [(2, 3), (2, 4), (3, 3), (4, 4)]


def _parts_for(n, l, g=0.2):
    return sb.build_interaction_picture(replace(sb.preset_v0_4(g), n_particles=n, n_sites=l),
                                        sb.build_k0_sector(n, l))


def _boost_phase(parts):
    """Phi = B^(-L/d) in sector coordinates, as floquet_operator uses it."""
    return np.exp(-2j * np.pi * parts.boost_charge / parts.boost_order)


@pytest.mark.parametrize("n,l", BOOST_SHAPES)
def test_boost_shifts_hamiltonian_by_a_fraction_of_the_period(n, l):
    # conj(Phi) H(t) Phi = H(t + T_B/d), exactly, at an arbitrary t
    parts = _parts_for(n, l)
    assert parts.boost_order == math.gcd(n, l)
    phi = _boost_phase(parts)
    tau = parts.t_bloch / parts.boost_order
    for t in (0.0, 0.29 * parts.t_bloch):
        boosted = phi.conj()[:, None] * dense_hamiltonian(parts, t) * phi[None, :]
        assert np.abs(boosted - dense_hamiltonian(parts, t + tau)).max() < 1e-13


@pytest.mark.parametrize("n,l", BOOST_SHAPES)
def test_boost_charge_is_constant_along_each_orbit(n, l):
    sector = sb.build_k0_sector(n, l)
    parts = _parts_for(n, l)
    d = parts.boost_order
    for rep, size, charge in zip(sector.representatives, sector.orbit_sizes,
                                 parts.boost_charge):
        state = rep
        for _ in range(int(size)):
            s = sum(site * (na + nb)
                    for site, (na, nb) in enumerate(zip(state.lower, state.upper)))
            assert s % d == charge
            state = sb.translate(state)


def test_floquet_operator_matches_lab_frame_full_period():
    # U = S^d, S = Y^T Phi Y built from a T_B/(2d) integration, so check it
    # against an independent full-period integration of i dU/dt = H(t) U in
    # the lab frame, for every boost order d = 1..4; (4, 4) spans two chunks
    # of columns
    dims = []
    for n, l in BOOST_SHAPES:
        parts = _parts_for(n, l)
        dims.append(parts.basis_dim)
        u = np.linalg.matrix_power(sb.floquet_operator(parts), parts.boost_order)
        assert np.abs(u - _lab_frame_period(parts)).max() < 1e-9, (n, l)
    assert max(dims) > propagation.FLOQUET_CHUNK


@pytest.mark.parametrize("n,l", BOOST_SHAPES)
def test_floquet_operator_is_the_boosted_fraction_of_a_period(n, l):
    # S on its own: conj(Phi) S = U(T_B/d), against the lab frame over T_B/d
    parts = _parts_for(n, l)
    s = sb.floquet_operator(parts)
    oracle = _lab_frame_period(parts, parts.boost_order)
    assert np.abs(_boost_phase(parts).conj()[:, None] * s - oracle).max() < 1e-9


def _quasi_energy_mismatch(spec, s, order):
    """Largest distance (mod F), in either direction, between the spectrum's
    quasi-energies and -arg(eig(S^order))/T_B from a general eig."""
    want = -np.angle(np.linalg.eigvals(np.linalg.matrix_power(s, order))) / spec.t_bloch
    gap = np.subtract.outer(spec.quasi_energies, want)
    gap = np.abs(gap - spec.force * np.round(gap / spec.force))
    return max(gap.min(axis=0).max(), gap.min(axis=1).max())


@pytest.mark.parametrize("n,l", [(3, 3), (2, 4)], ids=["d3", "d2"])
def test_quasi_energies_are_those_of_the_full_period(n, l):
    # the eigenvalues of U = S^d, at the sizes of the Sambe-space oracle
    parts = _parts_for(n, l)
    rng = np.random.default_rng(11)
    psi0 = rng.normal(size=parts.basis_dim) + 1j * rng.normal(size=parts.basis_dim)
    s = sb.floquet_operator(parts)
    spec = sb.diagonalize_floquet(s, parts.boost_order, parts.t_bloch, psi0)
    assert _quasi_energy_mismatch(spec, s, parts.boost_order) < 1e-12


def test_quasi_energies_are_those_of_the_full_period_at_the_preset(preset_runs):
    parts = preset_runs.parts(0.2)
    s = sb.floquet_operator(parts)
    assert _quasi_energy_mismatch(preset_runs.spectrum(0.2), s, parts.boost_order) < 1e-12


def test_unitarity_gate_scales_with_the_boost_order(monkeypatch, capsys):
    # a budget between max|S^dag S - 1| and d times that fails only because
    # of the factor d = 3, both in floquet_operator and through the CLI
    parts = _parts_for(3, 3)
    assert parts.boost_order == 3
    s = sb.floquet_operator(parts)
    defect = np.abs(s.conj().T @ s - np.eye(parts.basis_dim)).max()
    monkeypatch.setattr(propagation, "UNITARITY_DEFECT_BUDGET", 2 * defect)
    with pytest.raises(sb.NumericalError, match="tighten"):
        sb.floquet_operator(parts)
    assert main(["floquet-spectrum", "--preset", "v0_4", "--n", "3", "--l", "3",
                 "--g", "0.2"]) == 3
    assert "tighten" in capsys.readouterr().err


def test_floquet_operator_integrates_a_fraction_of_the_period(system44, monkeypatch):
    # deterministic work counter, in columns of Y pushed through the
    # right-hand side: T_B/8 at N = L = 4 takes 89.1 dim (two chunks of
    # columns, each with its own steps); the half period T_B/2 took 317 dim
    times, columns = [], []
    apply = sb.HamiltonianParts.apply

    def counted(self, t, y):
        times.append(t)
        columns.append(y.shape[1])
        return apply(self, t, y)

    monkeypatch.setattr(sb.HamiltonianParts, "apply", counted)
    sb.floquet_operator(system44)
    assert system44.boost_order == 4
    assert 0 < sum(columns) <= 100 * system44.basis_dim
    assert max(times) <= system44.t_bloch / 8


def test_floquet_operator_memory_is_two_copies_of_s(preset_runs, monkeypatch):
    # the dense matrix ODE held about 37 copies of S at the preset.  With
    # chunks of 8 columns, so that the stepper does not mask the later
    # phases, the peak is Y, S and two 8-column blocks while S is formed
    # (2.07 measured), then S and one row block of S^dag S
    parts = preset_runs.parts(0.2)
    monkeypatch.setattr(propagation, "FLOQUET_CHUNK", 8)
    assert peak_copies(lambda: sb.floquet_operator(parts), parts.basis_dim ** 2) <= 2.25


def test_diagonalize_floquet_memory_is_s_and_one_real_pair(preset_runs):
    # S, then Re S + mu Im S and the eigenvectors, each half a copy of S; the
    # residual and the overlaps take blocks of 64 columns of V, and V sorted
    # by quasi-energy is the last half copy (2.0 copies with S and V, 2.06
    # measured).  The eigh's input copy and LAPACK's workspace are not seen
    # by tracemalloc.
    parts = preset_runs.parts(0.2)
    s = sb.floquet_operator(parts)
    copies = 1 + peak_copies(lambda: sb.diagonalize_floquet(
        s, parts.boost_order, parts.t_bloch, preset_runs.psi0), s.size)
    assert copies <= 2.25


@pytest.mark.parametrize("n", [4, 5])
def test_propagator_estimate_covers_the_measured_peak(n):
    # the estimate prices the largest phase: at dim 86 and 402 the chunk
    # stepper while Y is integrated.  The diagonalisation's peak adds what
    # numpy's eigh takes from outside tracemalloc's sight: its input copy
    # (dim^2 doubles) and the workspace of LAPACK's dsyevd (2 dim^2)
    parts = _parts_for(n, n)
    dim = parts.basis_dim
    psi0 = sb.project_initial_state("unit-filling-lower", sb.build_k0_sector(n, n))
    built = []
    building = peak_copies(lambda: built.append(sb.floquet_operator(parts)), dim * dim)
    diagonalising = 1 + peak_copies(lambda: sb.diagonalize_floquet(
        built[0], parts.boost_order, parts.t_bloch, psi0), dim * dim) + 3 * 8 / 16
    assert propagation._propagator_bytes(dim) >= 16 * dim * dim * max(building, diagonalising)


@pytest.mark.parametrize("n", [3, 6])
def test_cli_refuses_a_propagator_it_cannot_diagonalise(n, monkeypatch, capsys):
    # physical memory just below the diagonalisation's estimate.  At
    # N = L = 6 (dim 2076) it would hold the integration and S, so only the
    # pricing of the eigh refuses.  Nothing is integrated first.
    dim = sb.build_k0_sector(n, n).dim
    diagonalising = int(16 * dim * dim * propagation.FLOQUET_WORKING_COPIES)
    assert (propagation._propagator_bytes(dim) == diagonalising) == (n == 6)
    monkeypatch.setattr(propagation, "_physical_memory", lambda: diagonalising - 1)

    def refuse(*args):
        raise AssertionError("apply called")

    monkeypatch.setattr(sb.HamiltonianParts, "apply", refuse)
    assert main(["floquet-spectrum", "--preset", "v0_4", "--n", str(n), "--l", str(n)]) == 2
    assert "physical memory" in capsys.readouterr().err


@pytest.mark.parametrize("n", [3, 4, 5])
def test_blocked_floquet_path_is_bit_identical_to_full_products(n, monkeypatch):
    # S formed in column blocks, and sigma and the residual from column
    # blocks of V (one block at dim 20, two at 86, seven at 402), give the
    # very bits of the full products Y^T (Phi Y) and S V
    parts = _parts_for(n, n)
    psi0 = sb.project_initial_state("unit-filling-lower", sb.build_k0_sector(n, n))
    half_periods = []
    integrate = propagation._half_period_propagator

    def kept(*args):
        half_periods.append(integrate(*args))
        return half_periods[-1]

    monkeypatch.setattr(propagation, "_half_period_propagator", kept)
    s = sb.floquet_operator(parts)
    spectrum = sb.diagonalize_floquet(s, parts.boost_order, parts.t_bloch, psi0)
    s_full, eps, coefficients = full_matrix_spectrum(half_periods[0], parts, psi0)
    assert np.array_equal(s, s_full)
    assert np.array_equal(spectrum.quasi_energies, eps)
    assert np.array_equal(spectrum.coefficients, coefficients)


def test_evolve_memory_is_the_propagator_and_the_samples(preset_runs):
    # 50 periods at 32 samples per period: S is built before the 1,601
    # samples exist, and freed before the two blocks of windows (32 and 18)
    # integrate, writing each sample straight into its row.  The peak is
    # the samples plus one 32-column block's working set: DOP853's 16
    # stages, its 3 work rows, the dense output's 7 polynomial rows and the
    # temporaries of a right-hand side call (tracemalloc measured 16.0 MiB,
    # the samples plus 32 such arrays)
    parts = preset_runs.parts(0.2)
    tb = parts.t_bloch
    results = []

    def run():
        results.append(sb.evolve(preset_runs.psi0, parts, 50 * tb, samples_per_period=32))

    copies = peak_copies(run, parts.basis_dim)
    result = results[0]
    assert result.states.shape == (1601, parts.basis_dim)
    assert copies <= len(result.times) + 40 * 32


def test_streamed_evolve_memory_is_that_of_the_propagator(preset_runs):
    # with weights no state of the 1,601 samples is kept: the peak is
    # floquet_operator's own, Y and one chunk's stepper (1,650 vectors of
    # dim 402 measured), and then S and one 32-column block of windows
    # (about 1,400) stays below it; one block more is allowed
    parts = preset_runs.parts(0.2)
    dim, tb = parts.basis_dim, parts.t_bloch
    building = peak_copies(lambda: sb.floquet_operator(parts), dim)
    results = []

    def run():
        results.append(sb.evolve(preset_runs.psi0, parts, 50 * tb, samples_per_period=32,
                                 weights=preset_runs.sector.upper_fractions))

    assert peak_copies(run, dim) <= building + 32
    assert results[0].values.shape == (1601,)


def test_stroboscopic_occupations_memory_is_bounded(preset_runs):
    # one 3,082 x 402 block of phases took about 40 MB of temporaries at the
    # preset.  The blocks of 248 periods at dim 402 are built in one
    # array of 248 x 402 phases, and their products with V take another
    # (2.03 such arrays, 3.24 MB, measured); the blocks must still join up
    spectrum = preset_runs.spectrum(0.2)
    traces = []

    def run():
        traces.append(sb.stroboscopic_occupations(spectrum, preset_runs.sector, 3081))

    assert peak_copies(run, 248 * 402) <= 2.2
    trace = traces[0]
    assert trace.values.size == 3082
    for m in (247, 248, 3081):
        psi = _stroboscopic_state(spectrum, m)
        nb = float((np.abs(psi) ** 2) @ preset_runs.sector.upper_fractions)
        assert trace.values[m] == pytest.approx(nb, abs=1e-12)


def test_floquet_rejects_broken_boost_symmetry():
    parts = _parts_for(3, 3)
    scrambled = replace(parts, boost_charge=np.roll(parts.boost_charge, 1))
    with pytest.raises(ValueError, match="boost symmetry"):
        sb.floquet_operator(scrambled)


def test_floquet_rejects_complex_hopping(small_system):
    _, parts, _ = small_system
    rotated = replace(parts, hop_csr=parts.hop_csr._replace(data=1j * parts.hop_csr.data))
    with pytest.raises(ValueError, match="h_hop"):
        sb.floquet_operator(rotated)


def test_floquet_memory_check(monkeypatch, capsys):
    # the working-set estimate is compared with physical memory before any
    # integration; the CLI turns the refusal into exit code 2
    parts = _diagonal_parts([0.1, 0.2, 0.3])
    monkeypatch.setattr(propagation, "_physical_memory", lambda: 10**6)
    sb.floquet_operator(parts)
    monkeypatch.setattr(propagation, "_physical_memory", lambda: 1000)
    with pytest.raises(ValueError, match=r"needs about [\d.]+ MiB, more than .* physical memory"):
        sb.floquet_operator(parts)
    assert main(["floquet-spectrum", "--preset", "v0_4", "--n", "2", "--l", "2"]) == 2
    assert "physical memory" in capsys.readouterr().err


def test_library_calls_reject_a_trace_beyond_physical_memory():
    # 1e15 periods need petabytes: evolve and stroboscopic_occupations refuse
    # the span before they allocate anything of that size, where numpy used
    # to raise MemoryError
    params = replace(sb.preset_v0_4(0.2), n_particles=2, n_sites=2)
    sector = sb.build_k0_sector(2, 2)
    parts = sb.build_interaction_picture(params, sector)
    psi0 = sb.project_initial_state("unit-filling-lower", sector)
    spectrum = sb.diagonalize_floquet(sb.floquet_operator(parts), parts.boost_order,
                                      parts.t_bloch, psi0)
    with pytest.raises(ValueError, match="physical memory"):
        sb.stroboscopic_occupations(spectrum, sector, 10**15)
    with pytest.raises(ValueError, match="physical memory"):
        sb.evolve(psi0, parts, 1e15 * parts.t_bloch, samples_per_period=32)


def test_evolve_over_a_short_span_of_a_fine_grid(small_system):
    # 1e12 samples per period, of which the span holds two: the offsets of a
    # whole period would take 7.3 TiB, those of the two samples 16 bytes
    _, parts, psi0 = small_system
    n = 10**12
    step = parts.t_bloch / n
    result = sb.evolve(psi0, parts, step, samples_per_period=n)
    assert np.array_equal(result.times, [0.0, step])
    assert np.array_equal(result.states[0], psi0)
    assert np.abs(result.states[1] - _lab_frame(parts, psi0, result.times)[:, 1]).max() < 1e-12


def test_diagonalize_identity():
    psi0 = np.array([0.6, 0.8j], dtype=complex)
    spec = sb.diagonalize_floquet(np.eye(2, dtype=complex), 1, t_bloch=2.0, psi0=psi0)
    assert np.abs(spec.quasi_energies).max() == 0.0
    assert np.abs(np.sort(np.abs(spec.coefficients)) - np.array([0.6, 0.8])).max() < 1e-14
    assert spec.unitarity_defect < 1e-15


def test_diagonalize_rejects_colliding_eigenvalues():
    # cos(phi) + mu sin(phi) is equal at phi0 +- a, so the real symmetric
    # eigh cannot separate the two eigenvectors of this complex symmetric U
    phi0 = math.atan(EIGEN_MIX)
    lam = np.exp(1j * (phi0 + np.array([0.4, -0.4])))
    c, s = math.cos(0.3), math.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    u = rot @ np.diag(lam) @ rot.T
    assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-14
    with pytest.raises(sb.NumericalError, match="residual"):
        sb.diagonalize_floquet(u, 1, t_bloch=2.0, psi0=np.array([1.0, 0.0]))
    # a generic pair of eigenvalues is separated
    u = rot @ np.diag(np.exp(1j * np.array([0.4, -0.9]))) @ rot.T
    spec = sb.diagonalize_floquet(u, 1, t_bloch=2.0, psi0=np.array([1.0, 0.0]))
    assert spec.quasi_energies == pytest.approx([-0.2, 0.45], abs=1e-14)


def test_spectrum_contracts(small_system):
    sector, parts, psi0 = small_system
    s = sb.floquet_operator(parts)
    spec = sb.diagonalize_floquet(s, parts.boost_order, parts.t_bloch, psi0)
    lam = np.exp(-1j * spec.quasi_energies * parts.t_bloch)
    # |lambda_n| = 1 and quasi-energies folded into [-F/2, F/2)
    assert np.abs(np.abs(lam) - 1.0).max() < 1e-8
    assert spec.quasi_energies.min() >= -parts.force / 2
    assert spec.quasi_energies.max() < parts.force / 2
    assert np.sum(np.abs(spec.coefficients) ** 2) == pytest.approx(1.0, abs=1e-8)
    # orthonormal eigenvectors
    q = spec.eigen_vectors
    assert np.abs(q.conj().T @ q - np.eye(sector.dim)).max() < 1e-12


def _stroboscopic_state(spectrum, m):
    """psi(m T_B) = sum_n c_n exp(-i eps_n m T_B) |eps_n>."""
    phases = np.exp(-1j * spectrum.quasi_energies * (m * spectrum.t_bloch))
    return spectrum.eigen_vectors @ (phases * spectrum.coefficients)


def test_stroboscopic_reconstruction(small_system):
    sector, parts, psi0 = small_system
    s = sb.floquet_operator(parts)
    spec = sb.diagonalize_floquet(s, parts.boost_order, parts.t_bloch, psi0)
    assert np.abs(_stroboscopic_state(spec, 0) - psi0).max() < 1e-8
    for m in (1, 7, 50):
        assert np.linalg.norm(_stroboscopic_state(spec, m)) == pytest.approx(1.0, abs=1e-10)


def test_stroboscopic_vs_direct(small_system):
    # the reference is the 50th power of a lab-frame U(T_B), integrated
    # without floquet_operator; evolve applies S 49 d times here (one sample
    # per period, each on a window start)
    sector, parts, psi0 = small_system
    s = sb.floquet_operator(parts)
    spec = sb.diagonalize_floquet(s, parts.boost_order, parts.t_bloch, psi0)
    m = 50
    oracle = np.linalg.matrix_power(_lab_frame_period(parts), m) @ psi0
    assert np.abs(_stroboscopic_state(spec, m) - oracle).max() < 1e-5
    direct = sb.evolve(psi0, parts, m * parts.t_bloch, samples_per_period=1)
    assert np.abs(direct.states[-1] - oracle).max() < 1e-5


def test_quasi_energy_refolding_is_harmless(small_system):
    # eps_n and eps_n + F generate identical stroboscopic dynamics
    sector, parts, psi0 = small_system
    s = sb.floquet_operator(parts)
    spec = sb.diagonalize_floquet(s, parts.boost_order, parts.t_bloch, psi0)
    refolded = sb.FloquetSpectrum(
        quasi_energies=spec.quasi_energies + spec.force,
        eigen_vectors=spec.eigen_vectors,
        coefficients=spec.coefficients,
        unitarity_defect=spec.unitarity_defect,
        t_bloch=spec.t_bloch,
    )
    for m in (1, 13, 60):
        a = _stroboscopic_state(spec, m)
        b = _stroboscopic_state(refolded, m)
        assert np.abs(a - b).max() < 1e-9


def test_stroboscopic_occupation_trace(small_system):
    sector, parts, psi0 = small_system
    s = sb.floquet_operator(parts)
    spec = sb.diagonalize_floquet(s, parts.boost_order, parts.t_bloch, psi0)
    trace = sb.stroboscopic_occupations(spec, sector, 40)
    assert trace.times.size == 41
    assert trace.values[0] == pytest.approx(0.0, abs=1e-12)
    # matches per-sample reconstruction
    for m in (3, 17, 40):
        psi = _stroboscopic_state(spec, m)
        nb = float((np.abs(psi) ** 2) @ sector.upper_fractions)
        assert trace.values[m] == pytest.approx(nb, abs=1e-12)


def test_occupation_series_trivial_states():
    sector = sb.build_k0_sector(2, 2)
    lower = sb.project_initial_state(FockState((1, 1), (0, 0)), sector)
    upper = sb.project_initial_state(FockState((0, 0), (1, 1)), sector)
    result = sb.EvolutionResult(times=np.array([0.0, 1.0]), states=np.stack([lower, upper]),
                                norm_drift=0.0)
    tr = sb.occupation_series(result, sector)
    assert tr.values[0] == 0.0
    assert tr.values[1] == 1.0


def test_norm_drift_small_system(small_system):
    sector, parts, psi0 = small_system
    tb = parts.t_bloch
    result = sb.evolve(psi0, parts, 200 * tb, samples_per_period=1)
    # drift budget is 1e-8 per 1e3 Bloch periods
    assert result.norm_drift / (200 / 1000) < 1e-8


def _single_particle_floquet(params, k):
    """(quasi-energies, eigenvectors) of the 2x2 one-period propagator of a
    single particle at quasi-momentum k, integrated independently of
    starkband.propagation; component 0 is the lower band."""
    cf = params.c0 * params.force

    def rhs(t, y):
        c = math.cos(params.force * t - k)
        h = np.array([[-0.5 * params.delta - params.t_a * c, cf],
                      [cf, 0.5 * params.delta + params.t_b * c]])
        return (-1j * h @ y.reshape(2, 2)).ravel()

    sol = solve_ivp(rhs, (0.0, params.t_bloch), np.eye(2, dtype=complex).ravel(),
                    method="DOP853", rtol=1e-12, atol=1e-12)
    lam, vecs = np.linalg.eig(sol.y[:, -1].reshape(2, 2))
    return -np.angle(lam) / params.t_bloch, vecs


def _count_distribution(q):
    """P(n) = z^n coefficient of perm(I + (z - 1) Q) for one boson per mode,
    by expanding the permanent over all permutations."""
    size = len(q)
    poly = np.zeros(size + 1)
    for perm in itertools.permutations(range(size)):
        term = np.ones(1)
        for i, j in enumerate(perm):
            term = P.polymul(term, [float(i == j) - q[i, j], q[i, j]])
        poly += term
    return poly


def test_preset_g0_two_dominant_clusters(preset_runs):
    # at g = 0 the weights are those of independent bosons, resolved by quasi-momentum
    params = preset_runs.params(0.0)
    n, l = params.n_particles, params.n_sites
    ks = 2 * np.pi * np.arange(l) / l
    p_k = []  # lower-band weight of the -eps state at each k
    for k in ks:
        eps_k, vecs = _single_particle_floquet(params, k)
        p_k.append(abs(vecs[0, np.argmin(eps_k)]) ** 2)
    eps = eps_k.max()  # +-eps is the same at every k

    # the program's own N = 1 spectrum ties the 2x2 oracle to its sign and phase convention
    one = replace(params, n_particles=1)
    sector1 = sb.build_k0_sector(1, l)
    parts1 = sb.build_interaction_picture(one, sector1)
    spec1 = sb.diagonalize_floquet(
        sb.floquet_operator(parts1), parts1.boost_order, parts1.t_bloch,
        sb.project_initial_state(FockState((1,) + (0,) * (l - 1), (0,) * l), sector1))
    assert spec1.quasi_energies == pytest.approx([-eps, eps], abs=1e-9)
    assert abs(spec1.coefficients[0]) ** 2 == pytest.approx(p_k[0], abs=1e-9)

    # unit filling: Q is the lower-band circulant with eigenvalues p_k
    sites = np.arange(l)
    q = (np.exp(1j * np.subtract.outer(sites, sites)[..., None] * ks) @ p_k).real / l
    want_weights = _count_distribution(q)
    want_energies = (n - 2 * np.arange(n + 1)) * eps
    want_energies -= params.force * np.floor(want_energies / params.force + 0.5)
    order = np.argsort(want_energies)

    energies, weights = sb.cluster_weights(preset_runs.spectrum(0.0))
    assert energies == pytest.approx(want_energies[order], abs=1e-7)
    assert weights == pytest.approx(want_weights[order], abs=1e-7)
    top = np.sort(weights)[::-1]
    assert top[0] > 0.25 and top[1] > 0.25
    assert weights.sum() == pytest.approx(1.0, abs=1e-8)


def test_preset_interaction_shifts_quasi_energies(preset_runs):
    # the dominant-pair gap moves measurably when g is turned on
    def dominant_gap(spec):
        energies, weights = sb.cluster_weights(spec)
        top = np.argsort(weights)[::-1][:2]
        gap = abs(energies[top[0]] - energies[top[1]])
        return min(gap, spec.force - gap)

    gap0 = dominant_gap(preset_runs.spectrum(0.0))
    gap2 = dominant_gap(preset_runs.spectrum(0.2))
    assert abs(gap2 - gap0) > 1e-4
