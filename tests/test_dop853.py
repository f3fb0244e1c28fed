"""`dop853.integrate` against its oracle, scipy.integrate.solve_ivp(method="DOP853").

The stepper is meant to take scipy's steps exactly, so every case asks for
the same number of right-hand side calls and the same states to round-off:
a chunk of columns of the propagator, one Bloch-period window of a vector
and a block of windows side by side, each sampled on its offsets through
`emit`, and a nonlinear scalar problem on which scipy rejects steps.  A
solution that blows up must fail in both.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_tableau

import starkband as sb
from starkband import dop853
from starkband.propagation import DEFAULT_ATOL, DEFAULT_RTOL, FLOQUET_CHUNK


def _counted(fun):
    calls = []

    def counted(t, y):
        calls.append(t)
        return fun(t, y)

    return counted, calls


def _both(fun, y0, t0, t1, t_eval, rtol, atol):
    """scipy's solution, then dop853's end state, its number of calls and
    the samples it emitted, one column per time of t_eval (each emitted
    once, in order)."""
    sol = solve_ivp(fun, (t0, t1), y0, method="DOP853", t_eval=t_eval, rtol=rtol, atol=atol)
    assert sol.success, sol.message
    counted, calls = _counted(fun)
    emitted = []
    end = dop853.integrate(counted, y0, t0, t1, rtol, atol, t_eval,
                           lambda i, y: emitted.append((i, y.copy())))
    assert [i for i, _ in emitted] == list(range(0 if t_eval is None else len(t_eval)))
    samples = np.array([y for _, y in emitted]).T
    return sol, end, len(calls), samples


def _preset_parts(n):
    sector = sb.build_k0_sector(n, n)
    params = replace(sb.preset_v0_4(0.2), n_particles=n, n_sites=n)
    return sector, sb.build_interaction_picture(params, sector)


def _block_rhs(parts, width):
    dim = parts.basis_dim

    def rhs(t, w):
        return (-1j * parts.apply(t, w.reshape(dim, width))).ravel()

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
    # the first FLOQUET_CHUNK = 64 columns of W over T_B/(2d), as
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


def test_rejected_steps_match_scipy():
    # a narrow pulse at t = 5 on a nonlinear decay: the step that first
    # meets it fails by so much that its cut is clamped to MIN_FACTOR
    def fun(t, y):
        return np.cos(10.0 * t) * y * y - y + 10.0 * np.exp(-((t - 5.0) / 1e-3) ** 2)

    sol = solve_ivp(fun, (0.0, 10.0), [1.0], method="DOP853", rtol=1e-6, atol=1e-9)
    accepted = sol.t.size - 1
    # every attempt costs 12 calls, after the first f and the step probe
    assert (sol.nfev - 2) / 12 > accepted
    sol, end, calls, _ = _both(fun, np.array([1.0]), 0.0, 10.0, None, 1e-6, 1e-9)
    assert calls == sol.nfev
    assert abs(end[0] - sol.y[0, -1]) <= 1e-13


def test_blow_up_raises_where_scipy_fails():
    # y' = y^2, y(0) = 1 is 1/(1 - t): the steps shrink towards t = 1
    def fun(t, y):
        return y * y

    sol = solve_ivp(fun, (0.0, 2.0), [1.0], method="DOP853", rtol=1e-12, atol=1e-12)
    assert not sol.success
    with pytest.raises(dop853.NumericalError, match="ten units in the last place"):
        dop853.integrate(fun, np.array([1.0]), 0.0, 2.0, 1e-12, 1e-12)


def test_numerical_error_is_one_class():
    assert sb.NumericalError is dop853.NumericalError
    assert issubclass(sb.NumericalError, RuntimeError)


def test_rejects_an_empty_span():
    with pytest.raises(ValueError, match="t1 > t0"):
        dop853.integrate(lambda t, y: -y, np.array([1.0]), 1.0, 1.0, 1e-9, 1e-9)

