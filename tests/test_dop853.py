"""`dop853.integrate` against its oracle, scipy.integrate.solve_ivp(method="DOP853").

The stepper is meant to take scipy's steps exactly, so every case asks for
the same number of right-hand side calls and the same states to round-off:
a chunk of columns of the propagator, one Bloch-period window of a vector
and a block of windows side by side, each sampled on its offsets through
`emit`, a chunk and a window that start from a carried first step, and a
nonlinear scalar problem on which scipy rejects steps.  A solution that
blows up must fail in both.  Each right-hand side writes into the row it
is given, fun(t, y, out), and `_returning` turns it into the fun(t, y) that
scipy calls.  The working set of one call is counted in arrays of the
state's size, and a workspace shared by several calls must give each the
bits of its own.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_tableau

import starkband as sb
from starkband import dop853
from starkband.propagation import DEFAULT_ATOL, DEFAULT_RTOL, FLOQUET_CHUNK

from conftest import peak_copies


def _counted(fun):
    calls = []

    def counted(t, y, out):
        calls.append(t)
        fun(t, y, out)

    return counted, calls


def _returning(fun):
    """The right-hand side fun(t, y, out), which writes into `out`, as the
    fun(t, y) that returns its value, for scipy."""
    def returning(t, y):
        out = np.empty_like(y)
        fun(t, y, out)
        return out

    return returning


def _both(fun, y0, t0, t1, t_eval, rtol, atol, first_step=None):
    """scipy's solution, then dop853's end state, its number of calls and
    the samples it emitted, one column per time of t_eval (each emitted
    once, in order); both start from `first_step` when it is given."""
    sol = solve_ivp(_returning(fun), (t0, t1), y0, method="DOP853", t_eval=t_eval, rtol=rtol,
                    atol=atol, first_step=first_step)
    assert sol.success, sol.message
    counted, calls = _counted(fun)
    emitted = []
    end, _ = dop853.integrate(counted, y0, t0, t1, rtol, atol, t_eval,
                              lambda i, y: emitted.append((i, y.copy())), first_step)
    assert [i for i, _ in emitted] == list(range(0 if t_eval is None else len(t_eval)))
    samples = np.array([y for _, y in emitted]).T
    return sol, end, len(calls), samples


def _preset_parts(n):
    sector = sb.build_k0_sector(n, n)
    params = replace(sb.preset_v0_4(0.2), n_particles=n, n_sites=n)
    return sector, sb.build_interaction_picture(params, sector)


def _block_rhs(parts, width):
    dim = parts.basis_dim

    def rhs(t, w, out):
        np.multiply(parts.apply(t, w.reshape(dim, width)), -1j, out=out.reshape(dim, width))

    return rhs


def test_tableau_is_scipys():
    c = scipy_tableau
    assert np.array_equal(dop853.C, c.C)
    assert np.array_equal(dop853.A, c.A)
    assert np.array_equal(dop853.B, c.B)
    assert np.array_equal(dop853.E3, c.E3)
    assert np.array_equal(dop853.E5, c.E5)
    assert np.array_equal(dop853.D, c.D)


def test_propagator_chunk_matches_scipy():
    # the first FLOQUET_CHUNK = 16 columns of W over T_B/(2d), as
    # floquet_operator integrates them; N = L = 4 (dim 86, d = 4) is the
    # smallest ring with a full chunk
    _, parts = _preset_parts(4)
    dim, width = parts.basis_dim, FLOQUET_CHUNK
    w0 = np.eye(dim, width, dtype=complex).ravel()
    half = 0.5 * parts.t_bloch / parts.boost_order
    sol, end, calls, _ = _both(_block_rhs(parts, width), w0, 0.0, half, None,
                               DEFAULT_RTOL, DEFAULT_ATOL)
    assert calls == sol.nfev
    assert np.abs(end - sol.y[:, -1]).max() <= 1e-13


def test_evolve_window_matches_scipy():
    # one Bloch-period window of a vector at N = L = 3, sampled at its 32
    # offsets, the first at t0, and at its end
    sector, parts = _preset_parts(3)
    psi0 = sb.project_initial_state("unit-filling-lower", sector)
    tb = parts.t_bloch
    times = np.append(tb / 32 * np.arange(32), tb)
    sol, end, calls, states = _both(_block_rhs(parts, 1), psi0, 0.0, tb, times,
                                    DEFAULT_RTOL, DEFAULT_ATOL)
    assert calls == sol.nfev
    assert states.shape == sol.y.shape == (parts.basis_dim, times.size)
    assert np.abs(states - sol.y).max() <= 1e-13
    assert np.array_equal(states[:, 0], psi0)
    assert np.abs(end - sol.y[:, -1]).max() <= 1e-13


def test_block_of_windows_matches_scipy():
    # eight Bloch-period windows side by side at N = L = 4 (dim 86), sampled
    # after their starts as evolve samples them: at offsets 1..31 of 32,
    # the last of them the end of the span
    _, parts = _preset_parts(4)
    dim, width = parts.basis_dim, 8
    rng = np.random.default_rng(3)
    w0 = (rng.normal(size=(dim, width)) + 1j * rng.normal(size=(dim, width))).ravel()
    offsets = parts.t_bloch / 32 * np.arange(1, 32)
    sol, end, calls, samples = _both(_block_rhs(parts, width), w0, 0.0, offsets[-1], offsets,
                                     DEFAULT_RTOL, DEFAULT_ATOL)
    assert calls == sol.nfev
    assert samples.shape == sol.y.shape == (dim * width, offsets.size)
    assert np.abs(samples - sol.y).max() <= 1e-13
    assert np.abs(end - sol.y[:, -1]).max() <= 1e-13


def test_carried_step_on_a_chunk_matches_scipy():
    # floquet_operator's later chunks start from the step that the chunk
    # before would take next: here the last 16 columns at N = L = 4 from
    # the first 16's, which is scipy's next step to the round-off of the
    # error estimate on the clipped last step
    _, parts = _preset_parts(4)
    dim, width = parts.basis_dim, FLOQUET_CHUNK
    half = 0.5 * parts.t_bloch / parts.boost_order
    rhs = _block_rhs(parts, width)
    first = np.eye(dim, width, dtype=complex).ravel()
    _, step = dop853.integrate(rhs, first, 0.0, half, DEFAULT_RTOL, DEFAULT_ATOL)
    solver = DOP853(_returning(rhs), 0.0, first, half, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL)
    while solver.status == "running":
        solver.step()
    assert step == pytest.approx(solver.h_abs, rel=1e-6)
    w0 = np.eye(dim, width, width - dim, dtype=complex).ravel()
    sol, end, calls, _ = _both(rhs, w0, 0.0, half, None, DEFAULT_RTOL, DEFAULT_ATOL, step)
    assert calls == sol.nfev
    assert np.abs(end - sol.y[:, -1]).max() <= 1e-13


def test_carried_step_on_a_window_matches_scipy():
    # evolve's vector windows each start from the step that the window
    # before would take next: window 1 at N = L = 3, sampled at its 32
    # offsets and at its end
    sector, parts = _preset_parts(3)
    rhs = _block_rhs(parts, 1)
    tb = parts.t_bloch
    psi0 = sb.project_initial_state("unit-filling-lower", sector)
    start, step = dop853.integrate(rhs, psi0, 0.0, tb, DEFAULT_RTOL, DEFAULT_ATOL)
    times = np.append(tb / 32 * np.arange(32), tb)
    sol, end, calls, states = _both(rhs, start, 0.0, tb, times, DEFAULT_RTOL, DEFAULT_ATOL, step)
    assert calls == sol.nfev
    assert np.abs(states - sol.y).max() <= 1e-13
    assert np.abs(end - sol.y[:, -1]).max() <= 1e-13


def test_working_set_of_a_chunk_and_of_a_sampled_block(preset_runs):
    # at the preset (dim 402), in arrays of the state's size: a 16-column
    # chunk without samples holds its 13 stages, y, y_new and one work row,
    # the three real vectors of the error scale and the result of a
    # right-hand side call, which goes straight into its stage row (18.5
    # measured; 19.7 when Hairer's probe made temporaries of the scaled
    # states); a block of 25 windows sampled at 31 offsets adds three
    # dense-output stages and four rows of the polynomial, whose other three
    # rows reuse stages (25.5 measured; 29.5 with seven rows of its own and
    # the right-hand side copied into its row)
    parts = preset_runs.parts(0.2)
    dim, tb = parts.basis_dim, parts.t_bloch
    chunk = np.eye(dim, FLOQUET_CHUNK, dtype=complex).ravel()
    half = 0.5 * tb / parts.boost_order
    assert peak_copies(lambda: dop853.integrate(
        _block_rhs(parts, FLOQUET_CHUNK), chunk, 0.0, half, DEFAULT_RTOL, DEFAULT_ATOL),
        chunk.size) <= 19
    width = 25
    rng = np.random.default_rng(3)
    block = (rng.normal(size=(dim, width)) + 1j * rng.normal(size=(dim, width))).ravel()
    offsets = tb / 32 * np.arange(1, 32)
    samples = np.empty((offsets.size, block.size), dtype=complex)

    def run():
        dop853.integrate(_block_rhs(parts, width), block, 0.0, offsets[-1], DEFAULT_RTOL,
                         DEFAULT_ATOL, offsets, samples.__setitem__)

    assert peak_copies(run, block.size) <= 26
    assert np.isfinite(samples).all()


def test_shared_workspace_gives_the_same_bits():
    # chunks of a propagator and sampled blocks of windows at N = L = 4 share
    # one buffer, sized for the widest; each gives the bits of an
    # integration with a buffer of its own
    _, parts = _preset_parts(4)
    dim, end_time = parts.basis_dim, parts.t_bloch / 4
    offsets = end_time / 8 * np.arange(1, 9)
    work = dop853.workspace(dim * FLOQUET_CHUNK, sampled=True)
    rng = np.random.default_rng(5)
    for width, t_eval in ((FLOQUET_CHUNK, None), (7, offsets), (FLOQUET_CHUNK, offsets), (1, None)):
        w0 = (rng.normal(size=(dim, width)) + 1j * rng.normal(size=(dim, width))).ravel()
        runs = []
        for buffer in (None, work):
            emitted = []
            end, step = dop853.integrate(_block_rhs(parts, width), w0, 0.0, end_time, DEFAULT_RTOL,
                                         DEFAULT_ATOL, t_eval,
                                         lambda i, y: emitted.append(y.copy()), None, buffer)
            runs.append((end, step, emitted))
        (end, step, emitted), (shared_end, shared_step, shared_emitted) = runs
        assert np.array_equal(end, shared_end) and step == shared_step
        assert len(emitted) == (0 if t_eval is None else 8)
        assert all(np.array_equal(a, b) for a, b in zip(emitted, shared_emitted))
    # a buffer for unsampled integrations is too small for a sampled one
    unsampled = dop853.workspace(dim * FLOQUET_CHUNK)
    assert unsampled.size < work.size
    chunk = np.eye(dim, FLOQUET_CHUNK, dtype=complex).ravel()
    with pytest.raises(ValueError, match="too small"):
        dop853.integrate(_block_rhs(parts, FLOQUET_CHUNK), chunk, 0.0, end_time, DEFAULT_RTOL,
                         DEFAULT_ATOL, offsets, lambda i, y: None, None, unsampled)


def test_rejected_steps_match_scipy():
    # a narrow pulse at t = 5 on a nonlinear decay: the step that first
    # meets it fails by so much that its cut is clamped to MIN_FACTOR
    def fun(t, y, out):
        out[...] = np.cos(10.0 * t) * y * y - y + 10.0 * np.exp(-((t - 5.0) / 1e-3) ** 2)

    sol = solve_ivp(_returning(fun), (0.0, 10.0), [1.0], method="DOP853", rtol=1e-6, atol=1e-9)
    accepted = sol.t.size - 1
    # every attempt costs 12 calls, after the first f and the step probe
    assert (sol.nfev - 2) / 12 > accepted
    sol, end, calls, _ = _both(fun, np.array([1.0]), 0.0, 10.0, None, 1e-6, 1e-9)
    assert calls == sol.nfev
    assert abs(end[0] - sol.y[0, -1]) <= 1e-13


def test_blow_up_raises_where_scipy_fails():
    # y' = y^2, y(0) = 1 is 1/(1 - t): the steps shrink towards t = 1
    def fun(t, y, out):
        np.multiply(y, y, out=out)

    sol = solve_ivp(_returning(fun), (0.0, 2.0), [1.0], method="DOP853", rtol=1e-12, atol=1e-12)
    assert not sol.success
    with pytest.raises(dop853.NumericalError, match="ten units in the last place"):
        dop853.integrate(fun, np.array([1.0]), 0.0, 2.0, 1e-12, 1e-12)


def test_numerical_error_is_one_class():
    assert sb.NumericalError is dop853.NumericalError
    assert issubclass(sb.NumericalError, RuntimeError)


def test_rejects_an_empty_span():
    with pytest.raises(ValueError, match="t1 > t0"):
        dop853.integrate(lambda t, y, out: np.negative(y, out=out), np.array([1.0]), 1.0, 1.0,
                         1e-9, 1e-9)

