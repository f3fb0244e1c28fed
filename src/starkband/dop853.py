"""The explicit Runge-Kutta method DOP853: Dormand-Prince 8(5,3) with its
7th-order dense output (Hairer, Norsett & Wanner, Solving Ordinary
Differential Equations I, Sec. II.10).

`integrate` takes the same steps as scipy.integrate.solve_ivp with
method="DOP853" and no max_step, and makes the same right-hand side calls
with the same arguments, so its states agree with scipy's to round-off:

  * the first step from Hairer's heuristic (select_initial_step, error
    order 7), or the caller's `first_step`, as solve_ivp's first_step;
  * the error norm that blends the 5th- and 3rd-order estimates, E5 and E3,
    in the weighted RMS norm with scale atol + rtol max(|y|, |y_new|);
  * new steps SAFETY * err^(-1/8), clamped to [MIN_FACTOR, MAX_FACTOR] of
    the last, and no growth in the step accepted right after a rejection;
  * failure once a step would fall below ten units in the last place of t;
  * the dense output, three extra stages and a degree-7 polynomial, formed
    only on the steps that contain a requested time; each sample goes to
    the caller's `emit` as its step is accepted, so no array of all the
    samples is needed.

The kernel.  One work buffer holds the stages, y, y_new and a work row for
stage arguments and samples, the three real vectors of the error scale,
and, when samples are asked for, four rows of the polynomial; its first
three rows go into the stages k[1..3], which nothing reads once the step is
accepted.  `fun(t, y, out)` writes each right-hand side straight into its
stage row.  The caller may pass the buffer (see `workspace`), so that a run
of integrations, such as the chunks of a propagator, shares one; otherwise
each call allocates its own.  Every stage sum, the step, the dense
output's D product and both error estimates are written in place on real
views: the tableau is real, so a complex stage is two real rows, which
halves a complex product's flops and makes no temporaries.  |y_new| is kept
as the next step's |y|.

Each sum keeps scipy's order of operations: the dot over the stage rows,
then times h, then plus y, and E5 and E3 as two products.  Folding h into
the tableau row, or stacking E5 and E3 into one product, is faster but
rounds differently, and where steps are rejected that changes the steps:
914 and 890 calls against scipy's 962 in tests/test_dop853.py.

The carried step.  `integrate` returns the step it would take next, so an
integration that carries on from another one, such as the next chunk of
columns of a propagator or the next Bloch-period window, can start from it
through `first_step` instead of from Hairer's probe, which opens well below
the steady step.

Importing scipy.integrate costs about 0.3 s per process, since it loads
scipy.optimize, scipy.fft and scipy.spatial, and a run needs only this
stepper of it.  tests/test_dop853.py pins this module to solve_ivp.
"""

import numpy as np

__all__ = ["NumericalError", "integrate", "workspace"]

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0  # -1 / (error estimator order + 1)
N_STAGES = 12


def _sparse_rows(width, rows):
    """An array with one row per dict {column: value}, zero elsewhere."""
    table = np.zeros((len(rows), width))
    for row, entries in zip(table, rows):
        row[list(entries)] = list(entries.values())
    return table


# The tableau, transcribed from scipy/integrate/_ivp/dop853_coefficients.py
# (SciPy, BSD 3-Clause licence), as the shortest decimals that give the same
# doubles; only the nonzero entries.  Rows 1-11 of A make the stages, row 12
# is B, the weights of the step, and rows 13-15 make the extra stages of the
# dense output.
C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
              0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
              0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
              0.7777777777777778])
A = _sparse_rows(16, (
    {},
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
     5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
     5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
     8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
     5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
     8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
     5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
     8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932, 11: 0.0003825710908356584,
     12: -0.00034046500868740456, 13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
     7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
     13: 2.9475147891527724, 14: -9.15095847217987},
))
B = A[N_STAGES, :N_STAGES]
# the error estimates weigh the 12 stages and f(t + h, y_new)
E5, E3 = _sparse_rows(N_STAGES + 1, (
    {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
     7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
     10: 0.08192320648511571, 11: -0.022355307863886294},
    {0: -0.18980075407240762, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: -0.4226823213237919, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.02265179219836082},
))
# the dense output's coefficients of degree 3..6 over all 16 stages
D = _sparse_rows(16, (
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
     7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
     10: 2.2404374302607883, 11: 0.6315787787694688, 12: -0.08899033645133331,
     13: 18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
     7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
     10: -30.674084731089398, 11: -9.332130526430229, 12: 15.697238121770845,
     13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
     7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
     10: -1.0006050966910838, 11: 0.7777137798053443, 12: -2.778205752353508,
     13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
     7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
     10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
     13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564},
))


class NumericalError(RuntimeError):
    """Integration failure or a propagator that failed its quality checks."""


def _rms(x) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, interval, rtol, atol, scale, arg, out):
    """Hairer's first step: one explicit Euler probe of the second derivative.
    The scale goes into `scale`, the scaled states and the probe's argument
    into the row `arg` and its right-hand side into the row `out`."""
    np.abs(y0, out=scale)
    scale *= rtol
    scale += atol
    d0 = _rms(np.divide(y0, scale, out=arg))
    d1 = _rms(np.divide(f0, scale, out=arg))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    np.multiply(f0, h0, out=arg)
    arg += y0
    fun(t0 + h0, arg, out)
    out -= f0
    d2 = _rms(np.divide(out, scale, out=out)) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval)


def _error_norm(k, h, scale, out) -> float:
    """scipy's blend of the E5 and E3 estimates over the 13 stages k, each
    formed in the free row `out` on real views: a complex vector has the
    norm of its real view, and each pair of its reals shares one scale."""
    k, out = k.view(float), out.view(float)
    norms = []
    for weights in (E5, E3):
        np.dot(weights, k, out=out)
        pairs = out.reshape(scale.size, -1)
        pairs /= scale[:, None]
        norms.append(np.linalg.norm(out) ** 2)
    err5, err3 = norms
    if err5 == 0 and err3 == 0:
        return 0.0
    return np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * scale.size)


def _stage_sum(weights, k, h, y, out):
    """Write y + (weights . k) h into `out` and return it: the argument of a
    stage, or the step, in scipy's order (the dot over the stage rows, then
    the step, then y), in place on real views."""
    real = out.view(float)
    np.dot(weights, k.view(float), out=real)
    real *= h
    real += y.view(float)
    return out


def _dense(fun, k, t_old, h, y_old, y, out, high, times):
    """Yield the state at each of `times` in [t_old, t_old + h], the step
    from y_old to y with the stages k[:13], as the row `out`, which the next
    state overwrites.  The three extra stages go into k[13:], the terms of
    degree 3..6 of the polynomial into the four rows of `high` and then
    those of degree 0..2 into k[1:4], whose stages nothing reads from there
    on (the tableau gives them no weight past stage 4), all on real views."""
    for s in range(N_STAGES + 1, 16):
        fun(t_old + C[s] * h, _stage_sum(A[s, :s], k[:s], h, y_old, out), k[s])
    k, y_old, y, high, real = (a.view(float) for a in (k, y_old, y, high, out))
    np.dot(D, k, out=high)
    high *= h
    p = [*k[1:4], *high]
    np.subtract(y, y_old, out=p[0])
    np.multiply(k[0], h, out=p[1])
    p[1] -= p[0]
    np.add(k[N_STAGES], k[0], out=p[2])
    p[2] *= h
    np.multiply(p[0], 2, out=real)
    np.subtract(real, p[2], out=p[2])
    for t in times:
        x = (t - t_old) / h
        np.multiply(p[6], x, out=real)
        for i in range(5, -1, -1):
            real += p[i]
            real *= x if i % 2 == 0 else 1 - x
        real += y_old
        yield out


def _rows(sampled) -> int:
    """Rows of a state's size in the work buffer: the 13 stages, y, y_new
    and the work row, and with samples the 3 extra stages and 4 rows of the
    polynomial."""
    return N_STAGES + 4 + 7 * bool(sampled)


def workspace(size: int, dtype=complex, sampled: bool = False) -> np.ndarray:
    """A work buffer that `integrate` can use for any state of at most
    `size` entries of `dtype`, sampled (t_eval given) or not as `sampled`
    says: float64 entries for `_rows` rows and three real vectors."""
    return np.empty((_rows(sampled) * np.dtype(dtype).itemsize // 8 + 3) * size)


def integrate(fun, y0, t0, t1, rtol, atol, t_eval=None, emit=None, first_step=None,
              work=None):
    """Integrate y' = f(t, y) from y(t0) = y0 over [t0, t1], t1 > t0, and
    return y(t1) and the step the stepper would take next, to be the
    `first_step` of an integration that carries on from here.  fun(t, y, out)
    writes f(t, y) into the row `out`, which is not y.

    The first step is `first_step`, as solve_ivp's is, or else Hairer's
    probe.  With t_eval, sorted within [t0, t1], emit(i, y_i) receives y at
    t_eval[i] from the dense output of the step that holds it, in order of
    i, as soon as that step is accepted; y_i is a work row that the next
    sample overwrites, so emit copies what it keeps.  `work`, from
    `workspace`, holds the working set, or else a buffer is allocated for
    this call.  NumericalError is raised when a step falls below ten units
    in the last place of t.
    """
    y0 = np.asarray(y0)
    y0 = y0.astype(np.result_type(y0.dtype, float), copy=False)
    t0, t1 = float(t0), float(t1)
    if not t1 > t0:
        raise ValueError(f"integration needs t1 > t0, got [{t0}, {t1}]")
    rtol = max(rtol, 100 * np.finfo(float).eps)  # as solve_ivp clamps it
    size, sampled = y0.size, t_eval is not None
    if work is None:
        work = workspace(size, y0.dtype, sampled)
    floats = _rows(sampled) * size * y0.itemsize // 8
    if work.dtype != float or work.ndim != 1 or work.size < floats + 3 * size:
        raise ValueError(f"work buffer of {work.size} {work.dtype} entries is too small for "
                         f"{size} entries of {y0.dtype}")
    # the stages, then y, y_new and a row for stage arguments and samples,
    # then the dense output's terms of degree 3..6; |y|, |y_new| and the scale
    stages = 16 if sampled else N_STAGES + 1
    block = work[:floats].view(y0.dtype).reshape(-1, size)
    k, (y, y_new, arg), high = block[:stages], block[stages:stages + 3], block[stages + 3:]
    abs_y, abs_new, scale = work[floats:floats + 3 * size].reshape(3, size)
    y[...] = y0
    fun(t0, y, k[0])
    h_abs = (_initial_step(fun, t0, y, k[0], t1 - t0, rtol, atol, scale, arg, k[1])
             if first_step is None else first_step)
    np.abs(y, out=abs_y)
    t, done = t0, 0
    while t < t1:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise NumericalError(f"time integration failed at t = {t!r}: the step fell "
                                     f"below {min_step:.3e}, ten units in the last place")
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = np.abs(h)
            for s in range(1, N_STAGES):
                fun(t + C[s] * h, _stage_sum(A[s, :s], k[:s], h, y, arg), k[s])
            fun(t + h, _stage_sum(B, k[:N_STAGES], h, y, y_new), k[N_STAGES])
            np.abs(y_new, out=abs_new)
            np.maximum(abs_y, abs_new, out=scale)
            scale *= rtol
            scale += atol
            error = _error_norm(k[:N_STAGES + 1], h, scale, arg)
            if error < 1:
                factor = MAX_FACTOR if error == 0 else min(MAX_FACTOR,
                                                           SAFETY * error ** ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error ** ERROR_EXPONENT)
            rejected = True
        t_old, t = t, t_new
        y, y_new = y_new, y
        abs_y, abs_new = abs_new, abs_y
        if sampled:
            end = np.searchsorted(t_eval, t, side="right")
            if end > done:
                for i, y_i in enumerate(_dense(fun, k, t_old, h, y_new, y, arg, high,
                                               t_eval[done:end]), done):
                    emit(i, y_i)
                done = end
        k[0] = k[N_STAGES]
    return y.copy(), float(h_abs)
