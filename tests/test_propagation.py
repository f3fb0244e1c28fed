"""Direct integration, the one-period propagator, and stroboscopic evolution.

The heavyweight dim-402 cases live in the acceptance suite; here the same
contracts are exercised on systems small enough to run in seconds.
"""

import ctypes
import importlib.util
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import lapack

import starkband as sb
import starkband.propagation as propagation
from starkband import fock
from starkband.cli import main
from starkband.fock import Csr, FockState
from starkband.propagation import EIGEN_MIX

from conftest import peak_copies
from oracles import (dense_hamiltonian, direct_trace, full_matrix_spectrum, full_product,
                     translate)

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


def _random_weights(dim, seed=7):
    """A seeded random w for the oracles sum_j w_j |psi_j|^2 of `evolve`."""
    return np.random.default_rng(seed).normal(size=dim)


def _weighted(w, states):
    """w @ |states|^2: sum_j w_j |psi_j|^2 of each column of `states`."""
    return w @ np.abs(states) ** 2


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
    w = _random_weights(3)
    result = sb.evolve(psi0, parts, 5.0, samples_per_period=4, weights=w)
    assert result.times[-1] == 5.0 and result.values.shape == (8,)
    assert np.abs(result.values - _weighted(w, psi0)).max() < 1e-10


def test_evolve_two_level_closed_form():
    # hopping masked off leaves a static 2x2; compare against the Rabi solution
    p = sb.ModelParams(**{**SMALL.__dict__, "n_particles": 1, "n_sites": 2, "g": 0.0})
    sector = sb.build_k0_sector(1, 2)
    mask = sb.TermMask(hop_a=False, hop_b=False)
    parts = sb.build_interaction_picture(p, sector, mask)
    psi0 = sb.project_initial_state(FockState((1, 0), (0, 0)), sector)
    result = sb.evolve(psi0, parts, 10.0, samples_per_period=56, weights=sector.upper_fractions)
    trace = sb.occupation_series(result, sector)
    v = p.c0 * p.force
    half_gap = math.hypot(0.5 * p.delta, v)
    oracle = (v / half_gap) ** 2 * np.sin(half_gap * trace.times) ** 2
    assert np.abs(trace.values - oracle).max() < 1e-6


def test_evolve_validation():
    parts = _diagonal_parts([1.0, 2.0])
    w = np.ones(2)
    for t_final in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="t_final"):
            sb.evolve(np.array([1.0, 0.0]), parts, t_final, samples_per_period=4, weights=w)
    with pytest.raises(ValueError, match="samples_per_period"):
        sb.evolve(np.array([1.0, 0.0]), parts, 1.0, samples_per_period=0, weights=w)
    with pytest.raises(ValueError, match="dimension"):
        sb.evolve(np.array([1.0, 0.0, 0.0]), parts, 1.0, samples_per_period=4, weights=w)
    with pytest.raises(ValueError, match="weights"):
        sb.evolve(np.array([1.0, 0.0]), parts, 1.0, samples_per_period=4, weights=[1.0])


def test_evolve_sampling_grid():
    # t_k = k T_B/n up to t_final, then t_final itself when it falls between
    # two samples (T_B = pi here)
    parts = _diagonal_parts([0.5, -0.5])
    psi0, w = np.array([1.0, 0.0], dtype=complex), np.ones(2)
    result = sb.evolve(psi0, parts, 1.0, samples_per_period=8, weights=w)
    assert result.times == pytest.approx([0.0, np.pi / 8, np.pi / 4, 1.0], rel=1e-15, abs=0.0)
    assert result.values.shape == (4,)
    result = sb.evolve(psi0, parts, np.pi / 2, samples_per_period=8, weights=w)
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
    w = _random_weights(sector.dim)
    result = sb.evolve(psi0, parts, 2 * parts.t_bloch, samples_per_period=1, weights=w)
    assert abs(result.values[-1] - _weighted(w, oracle)) < 1e-9


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
    w = _random_weights(parts.basis_dim)
    result = sb.evolve(psi, parts, 1.5 * parts.t_bloch, samples_per_period=8, weights=w)
    assert result.times.size == 13
    assert np.abs(result.values - _weighted(w, _lab_frame(parts, psi, result.times))).max() < 1e-9


# (samples per period, span in Bloch periods): whole periods, one sample per
# period (every sample on a window start, so no window needs integration on
# the propagator route) and the same with an off-grid tail, spans that end
# on a sample inside a window and between two samples, a span shorter than
# one period, and 41 window starts, more than the sector's dim, which the
# propagator route streams from S
GRID_CASES = {"whole-periods": (8, 3.0), "one-per-period": (1, 5.0),
              "one-per-period-tail": (1, 5.5),
              "span-3.5TB": (8, 3.5), "span-4.55TB": (4, 4.55), "span-0.6TB": (8, 0.6),
              "forty-periods": (1, 40.0)}


@pytest.mark.parametrize("route", ["propagator", "vectors"])
@pytest.mark.parametrize("n,l", [(3, 3), (2, 4)])
@pytest.mark.parametrize("per_period,span_tb", list(GRID_CASES.values()), ids=list(GRID_CASES))
def test_evolve_windows_match_lab_frame(n, l, per_period, span_tb, route, monkeypatch):
    # both routes through the windows: starts from powers of S, integrated
    # side by side in blocks of at most two windows (FLOQUET_CHUNK = 2, so
    # window 0 shares the first block, blocks join up, and the last may hold
    # a partial window), and window-by-window vector integrations.  The
    # propagator route builds all final + 1 starts before the windows'
    # workspace where they fit, final + 1 <= min(dim, FLOQUET_CHUNK_COPIES * 2),
    # and otherwise (40 periods at dim 20 and 10) none.  With one sample per
    # period it integrates no window, so it allocates no windows' workspace:
    # an off-grid tail integrates in a buffer of its own
    built, drawn, before_windows = [], [], []
    floquet_operator, window_starts = propagation.floquet_operator, propagation._window_starts
    workspace = propagation.workspace
    monkeypatch.setattr(propagation, "_propagator_pays", lambda *args: route == "propagator")
    monkeypatch.setattr(propagation, "floquet_operator",
                        lambda *args, **kw: built.append(1) or floquet_operator(*args, **kw))

    def counted_starts(*args):
        for start in window_starts(*args):
            drawn.append(1)
            yield start

    def windows(size, sampled=False):
        if sampled:
            before_windows.append(len(drawn))
        return workspace(size, sampled=sampled)

    monkeypatch.setattr(propagation, "_window_starts", counted_starts)
    monkeypatch.setattr(propagation, "workspace", windows)
    monkeypatch.setattr(propagation, "FLOQUET_CHUNK", 2)
    parts = _parts_for(n, l)
    tb = parts.t_bloch
    rng = np.random.default_rng(11)
    psi = rng.normal(size=parts.basis_dim) + 1j * rng.normal(size=parts.basis_dim)
    psi /= np.linalg.norm(psi)
    w = _random_weights(parts.basis_dim)
    result = sb.evolve(psi, parts, span_tb * tb, samples_per_period=per_period, weights=w)
    want = tb / per_period * np.arange(math.floor(span_tb * per_period + 1e-9) + 1)
    if want[-1] < span_tb * tb * (1 - 1e-12):
        want = np.append(want, span_tb * tb)
    assert result.times == pytest.approx(want, rel=1e-14, abs=0.0)
    assert np.abs(result.values - _weighted(w, _lab_frame(parts, psi, result.times))).max() < 1e-9
    assert built == ([1] if route == "propagator" and span_tb >= 1 else [])
    final = math.floor(span_tb + 1e-9)
    fit = final + 1 <= min(parts.basis_dim, propagation.FLOQUET_CHUNK_COPIES * 2)
    assert fit == (span_tb < 40)
    assert before_windows == ([] if built and per_period == 1
                              else [final + 1 if built and fit else 0])


def test_occupation_series_refuses_other_streamed_weights(small_system):
    sector, parts, psi0 = small_system
    result = sb.evolve(psi0, parts, parts.t_bloch, samples_per_period=4,
                       weights=np.ones(sector.dim))
    assert result.values == pytest.approx(np.ones(5), abs=1e-10)
    with pytest.raises(ValueError, match="upper_fractions"):
        sb.occupation_series(result, sector)


def test_evolve_integrates_one_period_per_block(monkeypatch):
    # N = L = 4 at 32 samples per period takes the propagator route; 10 and
    # 16 periods integrate windows 0..9 and 0..15 (window 10 or 16 holds
    # only its start), each one block of at most FLOQUET_CHUNK = 16
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
    for periods in (10, 16):
        calls.clear()
        sb.evolve(psi, parts, periods * parts.t_bloch, samples_per_period=32,
                  weights=np.ones(parts.basis_dim))
        counts[periods] = len(calls)
        assert set(calls) == {(parts.basis_dim, periods)}
    assert built == [1, 1]
    assert abs(counts[16] - counts[10]) <= 0.1 * counts[10]


def test_evolve_work_at_the_preset(preset_runs, monkeypatch):
    # deterministic work counters at 50 periods and 32 samples per period:
    # S's 26 chunks of columns (25 of 16, one of 2) take 1,647 right-hand
    # side calls, each chunk after the first from the step the one before
    # would take next, and 25,330 column-calls (the sum of their widths),
    # where 13 chunks of 32 took 818 calls and 25,154 column-calls; then
    # windows 0..49 run as four blocks of 13, 13, 12 and 12 columns (window
    # 50 holds only its start), 2,621 calls and 32,757 column-calls, where
    # two blocks of 25 took 1,317 calls and 32,925 column-calls
    parts = preset_runs.parts(0.2)
    widths, integrations = [], []
    apply = sb.HamiltonianParts.apply
    integrate_windows = propagation._integrate_windows

    def counted(parts, starts, *args):
        integrations.append((starts.shape[1], len(widths)))
        return integrate_windows(parts, starts, *args)

    monkeypatch.setattr(sb.HamiltonianParts, "apply",
                        lambda self, t, y: widths.append(y.shape[1]) or apply(self, t, y))
    monkeypatch.setattr(propagation, "_integrate_windows", counted)
    sb.evolve(preset_runs.psi0, parts, 50 * parts.t_bloch, samples_per_period=32,
              weights=preset_runs.sector.upper_fractions)
    ends = [first for _, first in integrations[1:]] + [len(widths)]
    calls = [widths[first:end] for (_, first), end in zip(integrations, ends)]
    assert all(set(block) == {width} for (width, _), block in zip(integrations, calls))
    chunks, blocks = integrations[:26], integrations[26:]
    assert [width for width, _ in chunks] == [16] * 25 + [2]
    assert [width for width, _ in blocks] == [13, 13, 12, 12]
    propagator, windows = sum(calls[:26], []), sum(calls[26:], [])
    assert len(propagator) == 1_647
    assert len(windows) == 2_621
    assert sum(propagator) == pytest.approx(25_154, rel=0.01)
    assert sum(windows) == pytest.approx(32_925, rel=0.01)


def test_evolve_balances_its_blocks_of_windows(monkeypatch):
    # the fewest blocks of at most FLOQUET_CHUNK windows, widest first, no
    # two more than one apart: 49 windows run as 13, 12, 12 and 12, not 16,
    # 16, 16 and 1, the same four integrations with the same column work
    for windows in range(200):
        widths = propagation._block_widths(windows)
        assert sum(widths) == windows
        assert len(widths) == -(-windows // propagation.FLOQUET_CHUNK)
        assert widths == sorted(widths, reverse=True)
        assert not widths or widths[0] - widths[-1] <= 1
    assert propagation._block_widths(49) == [13, 12, 12, 12]
    # evolve integrates them so: 25 periods at 32 samples per period sample
    # windows 0..24 after their starts, N = L = 3
    parts = _parts_for(3, 3)
    s = sb.floquet_operator(parts)
    widths = []
    apply = sb.HamiltonianParts.apply
    monkeypatch.setattr(propagation, "_propagator_pays", lambda *args: True)
    monkeypatch.setattr(propagation, "floquet_operator", lambda *args, **kw: s)
    monkeypatch.setattr(sb.HamiltonianParts, "apply",
                        lambda self, t, y: widths.append(y.shape[1]) or apply(self, t, y))
    psi = sb.project_initial_state("unit-filling-lower", sb.build_k0_sector(3, 3))
    sb.evolve(psi, parts, 25 * parts.t_bloch, samples_per_period=32,
              weights=np.ones(parts.basis_dim))
    assert list(dict.fromkeys(widths)) == [13, 12]


def test_every_right_hand_side_goes_through_apply(monkeypatch):
    # perfbench/child.py counts HamiltonianParts.apply through a strict
    # (self, t, y) wrapper at class level, and checks that the propagator's
    # right-hand side evaluations equal those calls.  So every evaluation
    # must call apply(t, y), and nothing may call it another way
    apply = sb.HamiltonianParts.apply
    integrate = propagation.integrate
    counts = {"apply": 0, "rhs": 0}

    def strict(self, t, y):
        counts["apply"] += 1
        return apply(self, t, y)

    def counted(fun, *args):
        def rhs(t, y, out):
            counts["rhs"] += 1
            fun(t, y, out)

        return integrate(rhs, *args)

    monkeypatch.setattr(sb.HamiltonianParts, "apply", strict)
    monkeypatch.setattr(propagation, "integrate", counted)
    parts = _parts_for(3, 3)
    psi = sb.project_initial_state("unit-filling-lower", sb.build_k0_sector(3, 3))
    sb.floquet_operator(parts)
    for route in (True, False):
        monkeypatch.setattr(propagation, "_propagator_pays", lambda *args: route)
        sb.evolve(psi, parts, 4 * parts.t_bloch, samples_per_period=32,
                  weights=np.ones(parts.basis_dim))
    assert counts["apply"] == counts["rhs"] > 0


def test_evolve_integrates_vectors_where_the_propagator_cannot_be_built(small_system,
                                                                          monkeypatch):
    # S refuses a complex hopping block, and a working set beyond the
    # physical memory; evolve then integrates every window as a vector
    _, parts, psi0 = small_system
    rotated = replace(parts, hop_csr=parts.hop_csr._replace(data=1j * parts.hop_csr.data))
    tb = parts.t_bloch
    w = _random_weights(parts.basis_dim)

    def refuse(*args, **kw):
        raise AssertionError("floquet_operator called")

    monkeypatch.setattr(propagation, "floquet_operator", refuse)
    for case in (rotated, parts):
        if case is parts:  # room for the trace (4.5 kB), not for S (32 MiB with the process)
            monkeypatch.setattr(fock, "_physical_memory", lambda: 10**4)
        assert propagation._propagator_obstacle(case)
        result = sb.evolve(psi0, case, 6.3 * tb, samples_per_period=4, weights=w)
        assert result.times.size == 27
        oracle = _weighted(w, _lab_frame(case, psi0, result.times))
        assert np.abs(result.values - oracle).max() < 1e-9


def _break_even(dim, order, samples_per_period):
    """Fewest whole periods (the last window that holds a sample) for which
    evolve builds S; None below 10,000."""
    stand_in = SimpleNamespace(basis_dim=dim, boost_order=order)
    return next((final for final in range(1, 10_000)
                 if propagation._propagator_pays(stand_in, final * samples_per_period,
                                                 samples_per_period)), None)


def test_propagator_pays_beyond_a_break_even_that_grows_with_dim():
    # 32 samples per period; with S in chunks of 16 columns the model breaks
    # even at 3 periods at dim 86, 18 at the preset (dim 402) and 184 at
    # N = L = 6 (dim 2076).  CPU times of both routes on one core: at the
    # preset the vector route took 0.58 s against 0.59 s over 14 periods,
    # and 0.76 s against 0.68 s over 18 (medians of five); at N = L = 6,
    # 24.4 s against 25.7 s over 160 periods and 29.1 s against 28.4 s
    # over 210
    assert _break_even(86, 4, 32) <= 3
    assert 14 < _break_even(402, 5, 32) <= 18
    assert 160 < _break_even(2076, 6, 32) <= 210
    # one sample per period at N = L = 6, where S integrates nothing: the
    # model gives 118; vectors took 11.7 s against 14.5 s over 100 periods
    # and 19.6 s against 14.7 s over 140
    assert 100 < _break_even(2076, 6, 1) <= 140
    # the 50 periods of the benchmark's evolve at the preset take S
    assert propagation._propagator_pays(SimpleNamespace(basis_dim=402, boost_order=5),
                                        50 * 32, 32)


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
    for rep, size, charge in zip(sector.occupations.tolist(), sector.orbit_sizes,
                                 parts.boost_charge):
        state = FockState(tuple(rep[:l]), tuple(rep[l:]))
        for _ in range(int(size)):
            s = sum(site * (na + nb)
                    for site, (na, nb) in enumerate(zip(state.lower, state.upper)))
            assert s % d == charge
            state = translate(state)


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
    spec = sb.diagonalize_floquet(s.copy(), parts.boost_order, parts.t_bloch, psi0)
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


def test_unitarity_check_reads_half_of_the_hermitian_gram_matrix(monkeypatch):
    # the check reads the blocks of S^dag S left of and on its diagonal; with
    # column 40 of Y (third of six blocks at dim 86) scaled by 1 + 1e-6, the
    # defect the gate sees is that of the full Gram matrix, about 1e-5
    parts = _parts_for(4, 4)
    half_period = propagation._half_period_propagator
    seen = []

    def scaled(parts):
        y = half_period(parts)
        y[:, 40] *= 1 + 1e-6
        return y

    class Budget(float):  # records the defect it is compared with
        def __lt__(self, defect):
            seen.append(defect)
            return float(self) < defect

    monkeypatch.setattr(propagation, "_half_period_propagator", scaled)
    monkeypatch.setattr(propagation, "UNITARITY_DEFECT_BUDGET", Budget(math.inf))
    s = sb.floquet_operator(parts)
    full = parts.boost_order * np.abs(s.conj().T @ s - np.eye(parts.basis_dim)).max()
    assert full > 1e-6
    assert seen == [pytest.approx(full, rel=0, abs=1e-15)]
    monkeypatch.setattr(propagation, "UNITARITY_DEFECT_BUDGET", 1e-6)
    with pytest.raises(sb.NumericalError, match=f"defect {full:.3e} exceeds 1.0e-06"):
        sb.floquet_operator(parts)


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


def test_floquet_operator_shares_one_stepper_workspace(preset_runs, monkeypatch):
    # S's 26 chunks at the preset (25 of 16 columns, one of 2) all step in
    # one workspace, allocated for 16 columns.  Every buffer handed to the
    # stepper is kept here, so the peak would count one per chunk if each
    # chunk had its own: it is Y and one chunk's working set (20.6 chunks of
    # 16 columns measured: the workspace's 17.5, the chunk's start and end
    # and a right-hand side's result)
    parts = preset_runs.parts(0.2)
    dim = parts.basis_dim
    buffers, chunks = [], []
    integrate, half_period = propagation.integrate, propagation._half_period_propagator

    def recorded(*args):
        buffers.append(args[-1])
        return integrate(*args)

    def integrating_y(parts):
        y = half_period(parts)
        chunks.append(len(buffers))
        assert all(buffer is buffers[0] for buffer in buffers)
        assert buffers[0].nbytes == 16 * dim * propagation.FLOQUET_CHUNK * 17.5
        buffers.clear()  # the workspace is freed before S is formed
        return y

    monkeypatch.setattr(propagation, "integrate", recorded)
    monkeypatch.setattr(propagation, "_half_period_propagator", integrating_y)
    copies = peak_copies(lambda: sb.floquet_operator(parts), dim)
    assert chunks == [26]
    assert copies <= dim + 21 * propagation.FLOQUET_CHUNK


def test_floquet_operator_memory_is_one_copy_of_s(preset_runs, monkeypatch):
    # the dense matrix ODE held about 37 copies of S at the preset, and Y,
    # S and two blocks while S was formed in a second array (2.07 copies
    # measured).  With chunks of 8 columns, so that the stepper does not
    # mask the later phases, and counted from the end of the integration: S
    # is formed in Y's buffer, one copy, with two blocks of at most 10
    # columns and one of numpy's ufunc buffers (1.081 copies measured), then
    # checked with S and one row block of S^dag S
    parts = preset_runs.parts(0.2)
    dim = parts.basis_dim
    monkeypatch.setattr(propagation, "FLOQUET_CHUNK", 8)
    assert max(block.stop - block.start for block in propagation._blocks(dim)) == 10
    half_period = propagation._half_period_propagator

    def integrated(parts):
        y = half_period(parts)
        tracemalloc.reset_peak()
        return y

    monkeypatch.setattr(propagation, "_half_period_propagator", integrated)
    copies = peak_copies(lambda: sb.floquet_operator(parts), dim * dim)
    assert copies <= 1 + (2 * 10 * dim + np.getbufsize()) / dim**2


def test_diagonalize_floquet_memory_is_s_and_one_real_pair(preset_runs):
    # S's first half is rewritten in place into Re S + mu Im S, with Im S's
    # strict triangle beside it, and LAPACK writes the eigenvectors into its
    # second half, with a workspace of half a copy, which tracemalloc sees;
    # then one real array takes (B V)^T and, after the residual, V sorted by
    # quasi-energy: half a copy (1.54 copies with S and one block's
    # temporaries measured)
    parts = preset_runs.parts(0.2)
    s = sb.floquet_operator(parts)
    copies = 1 + peak_copies(lambda: sb.diagonalize_floquet(
        s, parts.boost_order, parts.t_bloch, preset_runs.psi0), s.size)
    assert copies <= 1.6


@pytest.mark.parametrize("n", [4, 5])
def test_propagator_estimate_covers_the_measured_peak(n, monkeypatch):
    # the dense estimate prices the largest phase: at dim 86 and 402 the
    # chunk stepper while Y is integrated, above the diagonalisation and
    # forming S in Y's buffer.  tracemalloc sees the workspace that dstedc
    # and dormtr share; only LAPACKE_dsytrd's own, the dim * NB doubles that
    # dsytrd queries, is out of its sight, and only while dsytrd runs: the
    # diagonalisation's peak is the larger of tracemalloc's peak and what
    # tracemalloc holds as dsytrd starts plus that workspace (1.5 copies and
    # 15.8 vectors of dim at dim 402), and its own term of the estimate
    # covers it
    parts = _parts_for(n, n)
    dim = parts.basis_dim
    psi0 = sb.project_initial_state("unit-filling-lower", sb.build_k0_sector(n, n))
    built, held = [], []
    dsytrd, *stages = propagation._lapacke()

    def recorded(*args):
        held.append(tracemalloc.get_traced_memory()[0] / (16 * dim * dim))
        return dsytrd(*args)

    monkeypatch.setattr(propagation, "_lapacke", lambda: [recorded, *stages])
    building = peak_copies(lambda: built.append(sb.floquet_operator(parts)), dim * dim)
    traced = peak_copies(lambda: sb.diagonalize_floquet(
        built[0], parts.boost_order, parts.t_bloch, psi0), dim * dim)
    queried, info = lapack.dsytrd_lwork(dim, lower=1)
    assert info == 0 and queried == 32 * dim
    diagonalising = 1 + max(traced, held[0] + 8 * queried / (16 * dim * dim))
    assert diagonalising < building
    assert propagation._dense_bytes(dim) >= 16 * dim * dim * max(building, diagonalising)
    assert (propagation.FLOQUET_WORKING_COPIES * dim + propagation.FLOQUET_WORKING_VECTORS
            >= diagonalising * dim)
    # the process estimate adds the parts and the interpreter's base
    assert (propagation._propagator_bytes(parts) - propagation._dense_bytes(dim)
            >= parts.nbytes + 30 * 2**20)


@pytest.mark.parametrize("n", [3, 6])
def test_cli_refuses_a_propagator_it_cannot_diagonalise(n, monkeypatch, capsys):
    # physical memory just below the estimate.  At N = L = 6 (dim 2076) the
    # diagonalisation (S and LAPACK's workspace) is the dense path's largest
    # phase, above the integration (Y and one chunk's stepper) and forming S
    # in Y's buffer (one copy and two blocks); at N = L = 3 the integration
    # is.  Either way the pricing of the process refuses.  Nothing is
    # integrated first.
    parts = _parts_for(n, n)
    dim = parts.basis_dim
    diagonalising = int(16 * dim * (propagation.FLOQUET_WORKING_COPIES * dim
                                    + propagation.FLOQUET_WORKING_VECTORS))
    assert (propagation._dense_bytes(dim) == diagonalising) == (n == 6)
    monkeypatch.setattr(fock, "_physical_memory",
                        lambda: propagation._propagator_bytes(parts) - 1)

    def refuse(*args):
        raise AssertionError("apply called")

    monkeypatch.setattr(sb.HamiltonianParts, "apply", refuse)
    assert main(["floquet-spectrum", "--preset", "v0_4", "--g", "0.2", "--n", str(n),
                 "--l", str(n)]) == 2
    assert "physical memory" in capsys.readouterr().err


def test_cli_refuses_n7_between_the_dense_estimate_and_the_process_peak(monkeypatch, capsys):
    # at N = L = 7 (dim 11,076) the dense arrays alone come to 2,812 MiB,
    # while S is diagonalised, and the process is priced at 2,919 MiB.  On
    # 2,860 MiB of physical memory the run must refuse before anything is
    # integrated, as the pricing of the process does; the sector and parts
    # build in about 0.2 s
    mib = 2**20
    monkeypatch.setattr(fock, "_physical_memory", lambda: 2_860 * mib)
    assert propagation._dense_bytes(11_076) < 2_860 * mib

    def refuse(*args):
        raise AssertionError("apply called")

    monkeypatch.setattr(sb.HamiltonianParts, "apply", refuse)
    assert main(["revival-report", "--preset", "v0_4", "--g", "0.2", "--n", "7",
                 "--l", "7"]) == 2
    assert "propagator at sector dimension 11076" in capsys.readouterr().err


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmRSS and VmHWM from /proc/self/status")
def test_diagonalize_adds_half_a_copy_of_s_to_a_fresh_process(tmp_path):
    # a fresh interpreter loads a unitary complex symmetric S = Q diag(e^{i
    # phi}) Q^T of dim 2,000 (Q real orthogonal, cos(phi) + mu sin(phi)
    # falling, so its mixture has no close eigenvalues) and diagonalises it:
    # the resident memory it adds stays below 0.75 of a copy of S, for
    # LAPACK's workspace, and later (B V)^T, is half a copy (0.64 measured,
    # with the BLAS buffers that LAPACK's products touch); dsyevd's
    # workspace was a whole one, with its own eigenvector matrix (1.12)
    dim = 2_000
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((dim, dim)))
    phi = math.atan(EIGEN_MIX) + np.linspace(0.1, math.pi - 0.1, dim)
    s = np.empty((dim, dim), dtype=complex)
    s.real, s.imag = (q * np.cos(phi)) @ q.T, (q * np.sin(phi)) @ q.T
    np.save(tmp_path / "s.npy", s)
    # VmHWM, the peak of this process image: ru_maxrss would keep the peak
    # of the forking pytest process
    code = ("import numpy as np; from starkband import diagonalize_floquet; "
            "status = lambda key: next(int(line.split()[1]) for line in "
            "open('/proc/self/status') if line.startswith(key)); "
            f"s = np.load({str(tmp_path / 's.npy')!r}); "
            "before = status('VmRSS'); "
            "psi0 = np.zeros(len(s)); psi0[0] = 1.0; "
            "spectrum = diagonalize_floquet(s, 1, 2.0, psi0); "
            "print(before, status('VmHWM'), spectrum.unitarity_defect)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    before, peak, defect = map(float, proc.stdout.split())
    assert defect < 1e-12
    assert (peak - before) * 1024 < 0.75 * s.nbytes


@pytest.mark.parametrize("n", [3, 4, 5])
def test_blocked_floquet_path_is_bit_identical_to_full_products(n, monkeypatch):
    # S formed in Y's own buffer a column block at a time, its lower
    # triangle from Y's later columns and its upper mirrored, M and B
    # written into S's buffer a block of rows at a time, and the overlaps
    # from blocks of V's rows (one block at dim 20, five at 86, twenty-five
    # at 402) give the very bits of the lower triangle of the full product
    # Y^T (Phi Y), mirrored, so S is exactly symmetric where the full
    # product is not, and of V^T psi0; V and m are those of numpy's eigh,
    # and b is that of one product V^T B
    parts = _parts_for(n, n)
    psi0 = sb.project_initial_state("unit-filling-lower", sb.build_k0_sector(n, n))
    half_periods = []
    integrate = propagation._half_period_propagator

    def kept(*args):
        y = integrate(*args)
        half_periods.append(y.copy())  # floquet_operator overwrites y with S
        return y

    monkeypatch.setattr(propagation, "_half_period_propagator", kept)
    s = sb.floquet_operator(parts)
    spectrum = sb.diagonalize_floquet(s.copy(), parts.boost_order, parts.t_bloch, psi0)
    s_full, eps, vectors, coefficients = full_matrix_spectrum(half_periods[0], parts, psi0)
    assert np.array_equal(s, np.tril(s_full) + np.tril(s_full, -1).T)
    assert np.array_equal(s, s.T) and not np.array_equal(s_full, s_full.T)
    assert np.array_equal(spectrum.quasi_energies, eps)
    assert np.array_equal(spectrum.eigen_vectors, vectors)
    assert np.array_equal(spectrum.coefficients, coefficients)


def _assert_is_numpys_eigh(matrix):
    """_symmetric_eigh on the C-ordered transpose of `matrix` gives the very
    bits of np.linalg.eigh(matrix): its eigenvalues, and its eigenvectors as
    the transpose of what it writes into a second array."""
    want_values, want_vectors = np.linalg.eigh(matrix)
    vectors = np.empty_like(matrix)
    values = propagation._symmetric_eigh(np.ascontiguousarray(matrix.T), vectors)
    assert np.array_equal(values, want_values)
    assert np.array_equal(vectors.T, want_vectors)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_symmetric_eigh_is_numpys_on_the_mixture_of_s(n):
    # the full product Y^T (Phi Y) is symmetric only up to its last bits, so
    # both must read one triangle
    parts = _parts_for(n, n)
    s = full_product(propagation._half_period_propagator(parts), parts)
    assert not np.array_equal(s, s.T)
    _assert_is_numpys_eigh(s.real + EIGEN_MIX * s.imag)


def test_symmetric_eigh_is_numpys_on_symmetric_matrices():
    rng = np.random.default_rng(11)
    for dim in (2, 7, 150):
        m = rng.standard_normal((dim, dim))
        _assert_is_numpys_eigh((m + m.T) / 2)  # exactly symmetric
    # a doubly degenerate eigenvalue, whose eigenvectors LAPACK may mix
    q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    m = (q * np.r_[1.0, 1.0, np.arange(2.0, 40.0)]) @ q.T
    m = (m + m.T) / 2
    values = np.linalg.eigvalsh(m)
    assert values[1] - values[0] < 1e-13 < values[2] - values[1]
    _assert_is_numpys_eigh(m)
    _assert_is_numpys_eigh(np.array([[-2.5]]))


def test_symmetric_eigh_takes_the_leading_columns_of_a_wider_array():
    # as diagonalize_floquet calls it, on the two halves of one array (lda =
    # ldz = 2 dim), the three stages give numpy's bits at sizes on both
    # sides of dstedc's switch from QR at 25 and of the blocking of dsytrd
    # (at 32) and of dormtr (by 32 and 64), and leave the strict upper
    # triangle in column-major order, which holds a sentinel here, as it
    # was.  A strided or non-square matrix, and a transposed, float32 or
    # non-square output, are refused
    rng = np.random.default_rng(5)
    for dim in (1, 2, 7, 25, 26, 63, 64, 65, 127, 128, 129, 150, 402):
        m = rng.standard_normal((dim, dim))
        m = (m + m.T) / 2
        want_values, want_vectors = np.linalg.eigh(m)
        wide = np.full((dim, 2 * dim), np.nan)
        lower = np.triu_indices(dim)  # the lower triangle in column-major order
        wide[:, :dim][lower] = m.T[lower]
        packed = np.tril_indices(dim, -1)
        sentinel = rng.standard_normal(len(packed[0]))
        wide[:, :dim][packed] = sentinel
        values = propagation._symmetric_eigh(wide[:, :dim], wide[:, dim:])
        assert np.array_equal(values, want_values), dim
        assert np.array_equal(wide[:, dim:].T, want_vectors), dim
        assert np.array_equal(wide[:, :dim][packed], sentinel), dim
    for a, vectors in ((wide[:, ::2], wide[:, dim:]), (wide[:, :dim], wide[:, dim:].T),
                       (wide[:, :dim], np.empty((dim, dim), dtype=np.float32)),
                       (np.eye(3)[:, :2], np.empty((3, 3))), (np.eye(3), np.empty((3, 2)))):
        with pytest.raises(ValueError, match="C-ordered square float64"):
            propagation._symmetric_eigh(a, vectors)


def test_symmetric_eigh_errors(monkeypatch, capsys):
    # LAPACK's error codes, each naming its routine: LAPACKE_dsytrd refuses a
    # NaN in the triangle it reads (info -4; dsyevd gave -5), and a failure
    # of any of the three stages (forced here: LAPACKE_dsytrd's failed
    # allocation, -1010, a failure of dstedc to converge, 2, and an illegal
    # argument of dormtr, -7) raises NumericalError and exits 3 through the
    # CLI
    with pytest.raises(sb.NumericalError, match="LAPACK dsytrd failed with info -4"):
        propagation._symmetric_eigh(np.full((3, 3), np.nan), np.empty((3, 3)))
    routines = propagation._lapacke()
    for stage, name, info in ((0, "dsytrd", -1010), (1, "dstedc", 2), (2, "dormtr", -7)):
        forced = list(routines)
        forced[stage] = lambda *args, info=info: info
        monkeypatch.setattr(propagation, "_lapacke", lambda forced=forced: forced)
        with pytest.raises(sb.NumericalError, match=f"LAPACK {name} failed with info {info}"):
            propagation._symmetric_eigh(np.eye(3), np.empty((3, 3)))
        assert main(["floquet-spectrum", "--preset", "v0_4", "--n", "3", "--l", "3",
                     "--g", "0.2"]) == 3
        assert f"LAPACK {name} failed with info {info}" in capsys.readouterr().err


def test_lapack_loader_names_a_missing_symbol(monkeypatch):
    # no fallback to numpy's eigh: where numpy's linalg extension does not
    # link a stage of dsyevd, the import fails and names the first symbol
    # it cannot find, and the file
    origin = importlib.util.find_spec("_ctypes").origin
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name: SimpleNamespace(origin=origin))
    propagation._lapacke.cache_clear()
    try:
        with pytest.raises(ImportError, match="scipy_LAPACKE_dsytrd64_ not found") as err:
            propagation._lapacke()
        assert origin in str(err.value)
        monkeypatch.setattr(ctypes, "CDLL", lambda path: SimpleNamespace(
            scipy_LAPACKE_dsytrd64_=SimpleNamespace()))
        with pytest.raises(ImportError, match="scipy_LAPACKE_dstedc_work64_ not found"):
            propagation._lapacke()
    finally:
        propagation._lapacke.cache_clear()


def test_streamed_evolve_memory_is_that_of_the_propagator(preset_runs):
    # with weights no state of the 1,601 samples is kept, and S is freed
    # before the windows, so the peak is floquet_operator's own, Y and one
    # 16-column chunk's stepper (732.0 vectors of dim 402 measured), with
    # the times of the samples beside it (733.6 measured; the times and
    # values of the 1,601 samples weigh 4.0 vectors).  With S kept through
    # the windows it was S and one block of 13 windows (793 measured); two
    # copies while S was formed, 7 chunks of 64 columns and blocks of 25
    # windows took 1,142 and 1,650
    parts = preset_runs.parts(0.2)
    dim, tb = parts.basis_dim, parts.t_bloch
    propagator = peak_copies(lambda: sb.floquet_operator(parts), dim)
    results = []

    def run():
        results.append(sb.evolve(preset_runs.psi0, parts, 50 * tb, samples_per_period=32,
                                 weights=preset_runs.sector.upper_fractions))

    assert peak_copies(run, dim) <= propagator + 4
    assert results[0].values.shape == (1601,)


def _evolve_phases(preset_runs, monkeypatch, periods, samples_per_period):
    """tracemalloc's peaks of `evolve` at the preset over `periods` Bloch
    periods, in vectors of dim: from the end of floquet_operator to the
    allocation of the windows' workspace, and from there to the end."""
    parts = preset_runs.parts(0.2)
    dim = parts.basis_dim
    floquet_operator, workspace = propagation.floquet_operator, propagation.workspace
    phases = []

    def built(parts):
        s = floquet_operator(parts)
        tracemalloc.reset_peak()
        return s

    def windows(size, sampled=False):
        if sampled:
            phases.append(tracemalloc.get_traced_memory()[1] / (16 * dim))
            tracemalloc.reset_peak()
        return workspace(size, sampled=sampled)

    monkeypatch.setattr(propagation, "floquet_operator", built)
    monkeypatch.setattr(propagation, "workspace", windows)
    phases.append(peak_copies(lambda: sb.evolve(
        preset_runs.psi0, parts, periods * parts.t_bloch, samples_per_period=samples_per_period,
        weights=preset_runs.sector.upper_fractions), dim))
    return phases


def test_evolve_windows_hold_the_starts_and_one_block(preset_runs, monkeypatch):
    # 50 periods at 32 samples per period: the 51 window starts fit (51 <=
    # min(402, 22 * 16)).  From the end of floquet_operator until the
    # windows' workspace: S, the starts, the sample times and the products
    # in flight (458.7 vectors of dim 402 measured).  From then on, no S:
    # the starts, one block of at most 13 windows in the shared workspace
    # (DOP853's 25.5 copies of a block, its starts, its end and a work array
    # of sample rows: 29.5) and one of numpy's ufunc buffers (442.0
    # measured; with S in place of the starts, 793)
    dim, starts = 402, 51
    widest = max(propagation._block_widths(50))
    assert widest == 13
    building, windows = _evolve_phases(preset_runs, monkeypatch, 50, 32)
    assert building <= dim + starts + 8
    assert windows <= starts + 29.5 * widest + np.getbufsize() / dim


def test_evolve_streams_the_starts_that_do_not_fit(preset_runs, monkeypatch):
    # 400 periods at one sample per period: 401 starts > 22 * 16, so they
    # come from S one window at a time.  Nothing is integrated and there is
    # no off-grid tail, so no windows' workspace is allocated, and no point
    # after floquet_operator holds more than S and one of numpy's ufunc
    # buffers (407.7 vectors of dim 402 measured); all 401 starts beside S
    # would be 803
    dim = 402
    assert propagation._sampled_windows(400, 1) == 0
    phases = _evolve_phases(preset_runs, monkeypatch, 400, 1)
    assert len(phases) == 1
    assert phases[0] <= dim + np.getbufsize() / dim


def test_stroboscopic_occupations_memory_is_bounded(preset_runs):
    # one 3,082 x 402 block of phases took about 40 MB of temporaries at the
    # preset, and blocks of 248 periods 3.24 MB.  Blocks of 62 periods
    # (TRACE_BLOCK_PHASES // 402) hold one block at a time: its phases and
    # their two real products with V, 32 bytes per phase (797,568 bytes),
    # one of numpy's ufunc buffers (np.getbufsize() complex entries) and
    # the trace's own arrays (0.98 MB in all measured); the blocks must
    # still join up
    spectrum = preset_runs.spectrum(0.2)
    traces = []

    def run():
        traces.append(sb.stroboscopic_occupations(spectrum, preset_runs.sector, 3081))

    block = 32 * 62 * 402
    held = block + 16 * np.getbufsize() + propagation.TRACE_BYTES_PER_SAMPLE * 3082
    assert peak_copies(run, 1) * 16 <= held
    trace = traces[0]
    assert trace.values.size == 3082
    for m in (61, 62, 247, 248, 3081):
        psi = _stroboscopic_state(spectrum, m)
        nb = float((np.abs(psi) ** 2) @ preset_runs.sector.upper_fractions)
        assert trace.values[m] == pytest.approx(nb, abs=1e-12)


@pytest.mark.parametrize("samples", [10_001, 62 * 3 + 17])
def test_spectral_trace_is_every_sample_exponentiated(preset_runs, samples):
    # 10,000 periods are 162 blocks of 62, each turned from the block before,
    # and 203 samples end 17 into the fourth block; every sample against its
    # own phases exponentiated and one complex product with V
    spectrum = preset_runs.spectrum(0.2)
    w = preset_runs.sector.upper_fractions
    values = propagation.spectral_trace(spectrum.quasi_energies, spectrum.eigen_vectors,
                                        spectrum.coefficients, w, spectrum.t_bloch, samples)
    want = direct_trace(spectrum.quasi_energies, spectrum.eigen_vectors, spectrum.coefficients,
                        w, np.arange(samples) * spectrum.t_bloch)
    assert np.abs(values - want).max() <= 1e-12
    trace = sb.stroboscopic_occupations(spectrum, preset_runs.sector, samples - 1)
    assert np.array_equal(trace.values, values)


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
    # the estimate of the process is compared with physical memory before
    # any integration; the CLI turns the refusal into exit code 2
    parts = _diagonal_parts([0.1, 0.2, 0.3])
    need = propagation._propagator_bytes(parts)
    monkeypatch.setattr(fock, "_physical_memory", lambda: need)
    sb.floquet_operator(parts)
    monkeypatch.setattr(fock, "_physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match=r"needs about [\d.]+ MiB, more than .* physical memory"):
        sb.floquet_operator(parts)
    monkeypatch.setattr(fock, "_physical_memory", lambda: 1000)
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
        sb.evolve(psi0, parts, 1e15 * parts.t_bloch, samples_per_period=32,
                  weights=sector.upper_fractions)


def test_evolve_over_a_short_span_of_a_fine_grid(small_system):
    # 1e12 samples per period, of which the span holds two: the offsets of a
    # whole period would take 7.3 TiB, those of the two samples 16 bytes
    _, parts, psi0 = small_system
    n = 10**12
    step = parts.t_bloch / n
    w = _random_weights(parts.basis_dim)
    result = sb.evolve(psi0, parts, step, samples_per_period=n, weights=w)
    assert np.array_equal(result.times, [0.0, step])
    assert result.values[0] == propagation._weighted_norms(psi0[None], w)[0]
    oracle = _weighted(w, _lab_frame(parts, psi0, result.times)[:, 1])
    assert abs(result.values[1] - oracle) < 1e-12


def test_diagonalize_identity():
    psi0 = np.array([0.6, 0.8j], dtype=complex)
    spec = sb.diagonalize_floquet(np.eye(2, dtype=complex), 1, t_bloch=2.0, psi0=psi0)
    assert np.abs(spec.quasi_energies).max() == 0.0
    assert np.abs(np.sort(np.abs(spec.coefficients)) - np.array([0.6, 0.8])).max() < 1e-14
    assert spec.unitarity_defect < 1e-15


def test_diagonalize_rejects_an_asymmetric_s(small_system):
    # S is symmetric up to round-off; one off-diagonal entry moved by 1e-6
    # breaks that, and is refused before LAPACK runs, in either triangle
    _, parts, psi0 = small_system
    s = sb.floquet_operator(parts)
    for entry in ((3, 1), (1, 3)):
        broken = s.copy()
        broken[entry] += 1e-6
        with pytest.raises(sb.NumericalError, match=r"asymmetry max\|S - S\^T\| 1\.0"):
            sb.diagonalize_floquet(broken, parts.boost_order, parts.t_bloch, psi0)
    sb.diagonalize_floquet(s, parts.boost_order, parts.t_bloch, psi0)


def test_diagonalize_refuses_a_nan_in_either_check(monkeypatch):
    # an infinite entry of S makes max|S - S^T| NaN (inf - inf), in the
    # first row block or in a later one (dim 40: rows 0-15 and 16-39), and
    # a NaN in V makes the residual NaN; each is refused, where a check
    # with `>`, or a max that drops a NaN, returned quasi-energies
    for dim, entry in ((4, 1), (40, 30)):
        s = np.eye(dim, dtype=complex)
        s[entry, entry] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(
                sb.NumericalError, match=r"asymmetry max\|S - S\^T\| nan"):
            sb.diagonalize_floquet(s, 1, 2.0, np.eye(dim)[0])
    symmetric_eigh = propagation._symmetric_eigh

    def spoiled(a, vectors):
        values = symmetric_eigh(a, vectors)
        vectors[1, 1] = np.nan
        return values

    monkeypatch.setattr(propagation, "_symmetric_eigh", spoiled)
    with pytest.raises(sb.NumericalError, match="eigenvector residual nan"):
        sb.diagonalize_floquet(np.eye(4, dtype=complex), 1, 2.0, np.eye(4)[0])


def test_diagonalize_consumes_s(small_system):
    # S's buffer is rewritten into the real matrices and, by LAPACK, into
    # the eigenvectors, and holds no S on return; the input must be a
    # C-ordered complex square
    _, parts, psi0 = small_system
    s = sb.floquet_operator(parts)
    kept = s.copy()
    sb.diagonalize_floquet(s, parts.boost_order, parts.t_bloch, psi0)
    assert not np.array_equal(s, kept)
    for bad in (kept.T, kept.real.copy(), kept[:, :-1].copy()):
        with pytest.raises(ValueError, match="C-ordered square complex"):
            sb.diagonalize_floquet(bad, parts.boost_order, parts.t_bloch, psi0)


def test_diagonalize_hands_the_free_heap_back_before_dsytrd(small_system, monkeypatch):
    # glibc's malloc_trim runs once, after S's buffer is rewritten and just
    # before dsytrd, and moves no bit; where the C library has none the
    # diagonalisation goes on without it
    _, parts, psi0 = small_system
    s = sb.floquet_operator(parts)
    trim = propagation._malloc_trim()
    assert trim is None or trim(0) in (0, 1)
    calls = []
    rewrite = propagation._rewrite_rows
    dsytrd, *stages = propagation._lapacke()
    monkeypatch.setattr(propagation, "_rewrite_rows",
                        lambda *args: calls.append("rewrite") or rewrite(*args))
    monkeypatch.setattr(propagation, "_lapacke",
                        lambda: [lambda *args: calls.append("dsytrd") or dsytrd(*args), *stages])
    monkeypatch.setattr(propagation, "_malloc_trim", lambda: lambda pad: calls.append(pad) or 1)
    trimmed = sb.diagonalize_floquet(s.copy(), parts.boost_order, parts.t_bloch, psi0)
    assert calls == ["rewrite"] * len(propagation._blocks(parts.basis_dim)) + [0, "dsytrd"]
    monkeypatch.setattr(propagation, "_malloc_trim", lambda: None)
    spectrum = sb.diagonalize_floquet(s, parts.boost_order, parts.t_bloch, psi0)
    for name in ("quasi_energies", "eigen_vectors", "coefficients"):
        assert np.array_equal(getattr(trimmed, name), getattr(spectrum, name)), name


def test_floquet_operator_hands_the_free_heap_back_before_y(small_system, monkeypatch):
    # glibc's malloc_trim runs once, before the stepper workspace and the
    # propagator's first right-hand side, and moves no bit of S; where the C
    # library has none S is built without it
    _, parts, _ = small_system
    calls = []
    apply, workspace = sb.HamiltonianParts.apply, propagation.workspace
    monkeypatch.setattr(sb.HamiltonianParts, "apply",
                        lambda self, t, y: calls.append("apply") or apply(self, t, y))
    monkeypatch.setattr(propagation, "workspace",
                        lambda *args, **kw: calls.append("workspace") or workspace(*args, **kw))
    monkeypatch.setattr(propagation, "_malloc_trim", lambda: lambda pad: calls.append(pad) or 1)
    trimmed = sb.floquet_operator(parts)
    assert calls[:3] == [0, "workspace", "apply"]
    assert calls.count(0) == 1
    monkeypatch.setattr(propagation, "_malloc_trim", lambda: None)
    assert np.array_equal(sb.floquet_operator(parts), trimmed)


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
    w = _random_weights(sector.dim)
    direct = sb.evolve(psi0, parts, m * parts.t_bloch, samples_per_period=1, weights=w)
    assert abs(direct.values[-1] - _weighted(w, oracle)) < 1e-5


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
    # N_b is 0 in a lower-band state and 1 in an upper-band one, and with
    # the hopping, the inter-band coupling and the pair exchange masked off
    # the bands keep their particles
    params = replace(sb.preset_v0_4(0.2), n_particles=2, n_sites=2)
    sector = sb.build_k0_sector(2, 2)
    parts = sb.build_interaction_picture(params, sector, sb.TermMask.from_names("int_a,int_b"))
    for bands, nb in ((((1, 1), (0, 0)), 0.0), (((0, 0), (1, 1)), 1.0)):
        psi0 = sb.project_initial_state(FockState(*bands), sector)
        result = sb.evolve(psi0, parts, parts.t_bloch, samples_per_period=4,
                           weights=sector.upper_fractions)
        tr = sb.occupation_series(result, sector)
        assert tr.values[0] == nb
        assert np.abs(tr.values - nb).max() < 1e-12


def test_norm_drift_small_system(small_system):
    sector, parts, psi0 = small_system
    tb = parts.t_bloch
    result = sb.evolve(psi0, parts, 200 * tb, samples_per_period=1, weights=sector.upper_fractions)
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
