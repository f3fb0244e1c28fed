"""Time evolution under the periodically driven sector Hamiltonian.

Everything rests on the propagator S over T_B/d, d = gcd(N, L), integrated
once as a matrix ODE; the one-period propagator U(T_B) = S^d is never
formed.  The eigenbasis of S is that of U and gives the stroboscopic
long-time observables (collapse and revival live at thousands of Bloch
periods).  S also gives continuous traces on the grid t_k = k T_B/n that
`evolve` samples: psi(mT_B + s) = U(s) S^(dm) psi0, so every Bloch-period
window holds the same offsets s = T_B/n * arange(n), and all the windows
are integrated side by side over one period as the columns of a few
blocks.  Where S costs more than it saves, or cannot be built, `evolve`
integrates the windows one after the other as a vector instead.

Every integration solves i dW/dt = HamiltonianParts.apply(t, W) for
W = e^{iDt} psi, in the frame of the static diagonal D (band gap and
interactions, the largest entries of H), so the integrator steps only
through the couplings; the diagonal phases into and out of the frame are
exact.  The integrator is `dop853.integrate`, which takes the DOP853
steps of scipy.integrate.solve_ivp without importing scipy.integrate.
The propagator is integrated over T_B/(2d): a boost of the ring shifts H(t)
by T_B/d, and time reversal (h_static and h_hop are real in the kappa = 0
basis) halves that span.  The resulting S is complex symmetric, so its
eigenbasis comes from one real symmetric eigh, numpy's.

Memory stays within 3.5 dim x dim complex copies (see FLOQUET_*): the
propagator is integrated in chunks of columns (Y and one chunk), S is
formed and checked in blocks of columns (Y and S, then S), and its
diagonalisation holds S, the real matrix it diagonalises and what eigh
allocates.  The windows of `evolve` are integrated in blocks of half as
many columns, each sample handed on as the step that holds it is accepted,
and the stroboscopic trace in short blocks of periods.  `evolve` keeps
either every state or, given weights w, only sum_j w_j |psi_j|^2 per
sample: then it holds S (or one vector), one block of windows and the
float trace, and no array of all the samples' states.
"""

import collections
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .analysis import OscillationTrace
from .dop853 import NumericalError, integrate
from .fock import SymmetrySector
from .hamiltonian import HamiltonianParts

__all__ = [
    "NumericalError",
    "EvolutionResult",
    "FloquetSpectrum",
    "evolve",
    "floquet_operator",
    "diagonalize_floquet",
    "stroboscopic_occupations",
    "occupation_series",
    "check_trace_memory",
    "DEFAULT_RTOL",
    "DEFAULT_ATOL",
]

# Integration error dominates both the unitarity-defect budget (1e-8) and
# the norm-drift budget (1e-8 per 1e3 Bloch periods).  Measured on the
# dim-402 reference system, DOP853 needs 1e-12 to hold the drift budget
# (1e-11 gives ~5e-8 per 1e3 periods); the defect d max|S^dag S - 1| of
# floquet_operator is then ~1.1e-11 (g = 0.2).
DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-12
# The dense path, in dim x dim complex copies per phase (tracemalloc, plus
# what LAPACK allocates out of its sight); _propagator_bytes prices the largest:
# - integrating Y = U(T_B/(2d)) in chunks of FLOQUET_CHUNK columns: Y, and
#   FLOQUET_CHUNK_COPIES arrays of dim x FLOQUET_CHUNK for DOP853's stages and
#   work rows, a right-hand side's result and the chunk's start (19.5 measured
#   at dim 86, 402 and 2076, 20.1 at dim 20, where width = dim);
# - forming S in column blocks, then checking S^dag S in row blocks: Y, S and
#   two blocks, then S and one (2.06 copies measured at dim 2076);
# - diagonalize_floquet: S, Re S + mu Im S, and eigh's input copy, eigenvectors
#   and divide-and-conquer workspace of 2 dim^2 doubles, FLOQUET_WORKING_COPIES
#   in all (tracemalloc sees S, the mixture and the eigenvectors: 2.0).
# The windows of evolve are integrated in blocks of FLOQUET_CHUNK // 2 columns.
FLOQUET_CHUNK = 64
FLOQUET_WORKING_COPIES = 3.5
FLOQUET_CHUNK_COPIES = 22
# The fixed cost of one right-hand side call, in state entries of the sparse
# products it matches: fitted to dop853.integrate at N = L = 3..6 (dim
# 20..2076, widths 1..32), where a call costs about
# (600 + (width + 1) * dim) * 44 ns on one core (rms error 16%)
EVOLVE_CALL_OVERHEAD = 600
# diagonalize_floquet: the weight of Im S in its eigh (irrational, so no rational
# symmetry of the spectrum makes eigenvalues collide) and the eigenpair residual budget.
EIGEN_MIX = (math.sqrt(5.0) - 1.0) / 2.0
EIGEN_RESIDUAL_BUDGET = 1e-8
# floquet_operator: the budget of d max|S^dag S - 1|, to first order max|U^dag U - 1|
UNITARITY_DEFECT_BUDGET = 1e-6
# Bytes a trace holds per sample beside its states, by tracemalloc: six float64
# arrays (45 per period of revival-report measured).
TRACE_BYTES_PER_SAMPLE = 48


@dataclass(frozen=True)
class EvolutionResult:
    """The sample times of `evolve`, what it kept of the state at each, and
    the norm drift of the last.

    Without weights `evolve` keeps every state, one row of `states` per time
    in kappa = 0 coordinates.  With weights w it keeps only
    values[k] = sum_j w_j |psi_j(t_k)|^2 and `weights` itself, and `states`
    is None.
    """

    times: np.ndarray
    states: np.ndarray | None
    norm_drift: float
    weights: np.ndarray | None = None
    values: np.ndarray | None = None


@dataclass(frozen=True)
class FloquetSpectrum:
    """Eigen-decomposition of the one-period propagator U(T_B) = S^d.

    quasi_energies are folded to [-F/2, F/2) and sorted ascending;
    eigen_vectors holds the matching real orthonormal columns; coefficients are
    the overlaps of those columns with the designated initial state;
    unitarity_defect is max_j ||lambda_j|^2 - 1| over U's eigenvalues.  Within
    numerically degenerate eigenvalue clusters the individual coefficients
    are basis-dependent; only per-cluster aggregates of |c_n| are meaningful
    there.
    """

    quasi_energies: np.ndarray
    eigen_vectors: np.ndarray
    coefficients: np.ndarray
    unitarity_defect: float
    t_bloch: float

    @property
    def dim(self) -> int:
        return len(self.quasi_energies)

    @property
    def force(self) -> float:
        return 2.0 * math.pi / self.t_bloch


def _integrate_windows(parts, starts, s_start, s_end, offsets, sink, rtol, atol,
                       first_step=None):
    """Integrate the columns of `starts`, each the lab-frame state at offset
    `s_start` of its own Bloch-period window, to offset `s_end`, and return
    their lab-frame states there as a dim x width block, and the step that
    the integrator would take next (see `dop853.integrate`; `first_step` is
    its first).

    H(mT_B + s) = H(s), so every window integrates i dW/ds = apply(s, W) on
    W = e^{iDs} psi from the same s_start.  At each of the sorted `offsets`,
    as the step that holds offsets[i] is accepted, sink(i, rows) receives
    the states e^{-iDs} W, one row per column, in a width x dim work array
    that the next sample overwrites.
    """
    dim, width = starts.shape
    d = parts.frame

    def rhs(s, w):
        out = parts.apply(s, w.reshape(dim, width))
        out *= -1j
        return out.ravel()

    rows = None if offsets is None else np.empty((width, dim), dtype=complex)

    def emit(i, w):
        np.multiply(np.exp(-1j * offsets[i] * d), w.reshape(dim, width).T, out=rows)
        sink(i, rows)

    w0 = np.exp(1j * s_start * d)[:, None] * starts if s_start else starts  # e^0 = 1
    end, step = integrate(rhs, w0.ravel(), s_start, s_end, rtol, atol, offsets, emit, first_step)
    return np.exp(-1j * s_end * d)[:, None] * end.reshape(dim, width), step


def _period_cost(dim: int, width: int, samples: int = 1) -> int:
    """Relative cost of integrating a dim x width block over one Bloch period
    that holds `samples` samples, the first at its start.  DOP853 makes about
    580 right-hand side calls per period at any width (590, 602, 578 and 566
    at N = L = 3..6), each later sample adds about 7 calls' worth (three
    dense-output stages and the polynomial: a period with 32 samples took
    1.3 to 1.4 times one without), and each call costs EVOLVE_CALL_OVERHEAD
    + (width + 1) * dim state entries' worth of work (the extra dim is the
    frame and error norm)."""
    return (580 + 7 * (samples - 1)) * (EVOLVE_CALL_OVERHEAD + (width + 1) * dim)


def _sampled_windows(last: int, samples_per_period: int) -> int:
    """How many Bloch-period windows hold a grid sample after their start,
    with samples 0..last on the grid of samples_per_period per period: the
    windows that need integrating, all but the last when it holds only its
    start."""
    return -(-last // samples_per_period) if samples_per_period > 1 else 0


def _propagator_pays(parts: HamiltonianParts, last: int, samples_per_period: int) -> bool:
    """Whether building S, taking d products S @ psi per window, and
    integrating the windows that hold a sample after their start (see
    `_sampled_windows`; `last` is the last sample on the grid) side by side
    in blocks of FLOQUET_CHUNK // 2 costs less than integrating them one
    after the other as a vector.  With one sample per period the S route
    integrates nothing, and the vector route integrates every window but
    the last, whose only sample is its start.

    S integrates its column chunks over T_B/(2d) in about 1.1 times the
    calls of that fraction of a period: at N = L = 5 and 6 the first chunk,
    from Hairer's probe step, takes 74 and 62 calls, each later one, from
    the step the chunk before would take next, 61 and 49 (12 more where
    that step is rejected), 452 and 1,678 calls in all.  Its two dense
    products, 5 to 20% more, are left to the fit.  A product S @ psi costs
    about dim^2 / 40 state entries' worth (1.0 to 1.6 ns per entry against
    44 ns per entry of a call).  Single timings of both routes on one core,
    with every chunk of S from the step the one before would take next:
    with 32 samples per period the vector route was faster over 12 periods
    at N = L = 5 and over 150 at N = L = 6, S over 17 and over 200 (the
    model breaks even at 15 and 166); with one sample per period at
    N = L = 6, vectors over 100 periods and S over 140 (the model: 111).
    """
    dim, order, n = parts.basis_dim, parts.boost_order, samples_per_period
    full, rest = divmod(dim, FLOQUET_CHUNK)
    propagator = 1.1 / (2 * order) * (full * _period_cost(dim, FLOQUET_CHUNK)
                                      + (rest > 0) * _period_cost(dim, rest))
    final, windows = last // n, _sampled_windows(last, n)
    products = order * final * dim**2 / 40
    if n == 1:
        return propagator + products < final * _period_cost(dim, 1)
    width = FLOQUET_CHUNK // 2
    full, rest = divmod(windows, width)
    blocks = full * _period_cost(dim, width, n) + (rest > 0) * _period_cost(dim, rest, n)
    return propagator + products + blocks < windows * _period_cost(dim, 1, n)


def _weighted_norms(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j weights_j |rows[k, j]|^2 for each row k: one product over the
    real and imaginary parts of all rows at once that makes no temporary of
    their size, and the same bits for a row alone as among others."""
    re_im = rows.view(float).reshape(*rows.shape, 2)
    return np.einsum("kjc,kjc,j->k", re_im, re_im, weights)


class _Samples:
    """What `evolve` keeps of its samples, spaced `stride` apart along the
    rows a block hands over: every state, or with `weights` only
    `_weighted_norms` of each; and either way a copy of the state at sample
    `keep`, which the last short integration starts from."""

    def __init__(self, size: int, stride: int, dim: int, weights, keep: int):
        self.states = np.empty((size, dim), dtype=complex) if weights is None else None
        self.values = np.empty(size) if weights is not None else None
        self.weights, self.stride, self.keep, self.kept = weights, stride, keep, None

    def put(self, first: int, rows: np.ndarray):
        """Record rows[i] as sample first + i * stride."""
        index = slice(first, first + len(rows) * self.stride, self.stride)
        if self.states is None:
            self.values[index] = _weighted_norms(rows, self.weights)
        else:
            self.states[index] = rows
        i, r = divmod(self.keep - first, self.stride)
        if r == 0 and 0 <= i < len(rows):
            self.kept = rows[i].copy()


def evolve(
    psi0,
    parts: HamiltonianParts,
    t_final: float,
    *,
    samples_per_period: int,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    weights=None,
) -> EvolutionResult:
    """Sample psi(t) of i d/dt psi = H(t) psi from psi(0) = psi0 at
    t_k = k T_B/n, n = samples_per_period, up to t_final; a t_final between
    two samples is the last sample, one short integration from the one
    before.  Without `weights`, row k of the result's states is psi(t_k).
    With weights w, one per basis state, the result keeps only
    values[k] = sum_j w_j |psi_j(t_k)|^2, formed as each sample is reached
    (w = sector.upper_fractions gives N_b, see `occupation_series`), and no
    state but the one the last short integration starts from.  The two
    differ only in what is kept: the integrations, and so the bits of every
    sample, are the same.

    Time is cut into Bloch-period windows [mT_B, (m+1)T_B), and window m
    holds the samples at mT_B + T_B/n * arange(n), the first of them its
    start psi(mT_B).  H(t) has period T_B, so psi(mT_B) = S^(dm) psi0 with
    S = floquet_operator(parts).  Where `_propagator_pays`, the starts are
    built that way, and the windows that hold a sample after their start
    (all but a last one that holds only its start) are integrated side by
    side over one period, as the columns of blocks of at most
    FLOQUET_CHUNK // 2 windows (see `_integrate_windows`), so that a
    block's working set, dense output included, stays below that of a
    chunk of S.  The states keep every start, so they are all built first
    and S is freed before the blocks integrate; with weights the starts of
    each block are built from S just before it integrates, and S is held
    to the last.  With one sample per period the starts are all the
    samples, and nothing is integrated.  S costs dim^2 to build and apply,
    so it needs more windows as dim grows.  Otherwise, and when S cannot be
    built (complex blocks, or a working set beyond the physical memory),
    every window is one vector integration from the end of the one before.
    Either way the integrator hands each sample on as the step that holds
    it is accepted, and every integration but the first starts from the
    step that the one before would take next.
    """
    if not 0 < t_final < math.inf:
        raise ValueError(f"t_final={t_final} must be positive and finite")
    if samples_per_period < 1:
        raise ValueError(f"samples_per_period must be positive, got {samples_per_period}")
    psi0 = np.asarray(psi0, dtype=complex)
    dim, n, tb = parts.basis_dim, samples_per_period, parts.t_bloch
    if psi0.shape != (dim,):
        raise ValueError(f"state has dimension {psi0.shape}, expected ({dim},)")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (dim,):
            raise ValueError(f"weights have shape {weights.shape}, expected ({dim},)")

    step = tb / n
    last = int(math.floor(t_final / step + 1e-9))  # the last sample on the grid
    # the grid and, maybe, t_final
    check_trace_memory(last + 2, 16 * dim if weights is None else 0)
    times = step * np.arange(last + 1)
    if times[-1] < t_final - 1e-9 * step:
        times = np.append(times, t_final)
    offsets = step * np.arange(min(n, last + 1))  # a window holds at most last + 1 samples
    final = last // n  # the last window that holds a sample
    s = None
    if (final and _propagator_obstacle(parts) is None
            and _propagator_pays(parts, last, n)):
        # before the states exist, so that S's working set does not add to them
        s = floquet_operator(parts, rtol=rtol, atol=atol)
    samples = _Samples(times.size, n, dim, weights, last)

    def windows(m, starts, s_end, first_step):
        """Integrate windows m, m + 1, ... from their starts, the columns of
        `starts` (each already recorded), to offset s_end."""
        count = min(n, last + 1 - m * n)  # the samples of window m

        def sink(i, rows):
            first = m * n + 1 + i
            samples.put(first, rows[:len(range(first, last + 1, n))])

        return _integrate_windows(parts, starts, 0.0, s_end, offsets[1:count], sink,
                                  rtol, atol, first_step)

    carried = None  # the step that the last integration would take next
    if s is None:
        state = psi0[:, None]
        for m in range(final + 1):
            samples.put(m * n, state.T)
            s_end = tb if m < final else offsets[last - m * n]
            if s_end > 0:
                state, carried = windows(m, state, s_end, carried)
    else:
        def boosted(s, state):
            """psi(mT_B) = S^(dm) psi0 for m = 0..final, each recorded as it
            is built; S is freed with the last."""
            for m in range(final + 1):
                if m:
                    for _ in range(parts.boost_order):
                        state = s @ state
                samples.put(m * n, state[None])
                yield state

        starts = boosted(s, psi0)
        s = None
        if weights is None:  # build every start into the states, and free S
            collections.deque(starts, maxlen=0)
            starts = iter(samples.states[:last + 1:n])
        width, sampled = FLOQUET_CHUNK // 2, _sampled_windows(last, n)
        for m in range(0, sampled, width):
            block = np.column_stack(list(itertools.islice(starts, min(width, sampled - m))))
            _, carried = windows(m, block, offsets[min(n, last + 1 - m * n) - 1], carried)
        collections.deque(starts, maxlen=0)  # a last window that holds only its start

    end = samples.kept
    if times.size > last + 1:
        end, _ = _integrate_windows(parts, end[:, None], offsets[last % n],
                                    t_final - final * tb, None, None, rtol, atol, carried)
        samples.put(last + 1, end.T)
        end = end[:, 0]
    drift = abs(np.linalg.norm(end) - np.linalg.norm(psi0))
    return EvolutionResult(times=times, states=samples.states, norm_drift=float(drift),
                           weights=weights, values=samples.values)


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_trace_memory(samples: int, sample_bytes: int = 0):
    """Reject with ValueError, before it is allocated, a trace of `samples`
    samples beyond physical memory: each holds TRACE_BYTES_PER_SAMPLE of
    trace arrays and `sample_bytes` more (its states, say)."""
    need = samples * (TRACE_BYTES_PER_SAMPLE + sample_bytes)
    have = _physical_memory()
    if need > have:
        raise ValueError(f"a trace of {samples:,} samples needs about {need / 2**20:,.1f} MiB, "
                         f"more than the {have / 2**20:,.1f} MiB of physical memory")


def _propagator_bytes(dim: int) -> int:
    """Estimated peak bytes of `floquet_operator` and `diagonalize_floquet` at
    sector dimension `dim`: the largest of their three phases, in dim x dim
    and dim x FLOQUET_CHUNK complex arrays (see the FLOQUET_* constants)."""
    width = min(dim, FLOQUET_CHUNK)
    copies = max(dim + FLOQUET_CHUNK_COPIES * width,  # integrating Y: Y and the stepper's chunk
                 2 * dim + 2 * width,  # forming and checking S: Y, S and two blocks
                 FLOQUET_WORKING_COPIES * dim)  # diagonalising S
    return int(16 * dim * copies)


def _propagator_obstacle(parts: HamiltonianParts) -> str | None:
    """Why `floquet_operator` cannot build S for `parts`, or None: the
    estimated working set of building and diagonalising S exceeds the
    physical memory, or a block is complex or does not carry the boost
    charges."""
    dim = parts.basis_dim
    need = _propagator_bytes(dim)
    have = _physical_memory()
    if need > have:
        return (f"the propagator at sector dimension {dim} needs about "
                f"{need / 2**20:,.1f} MiB, more than the {have / 2**20:,.1f} MiB "
                "of physical memory")
    order, charge = parts.boost_order, parts.boost_charge
    for name, block, step in (("h_static", parts.static_csr, 0), ("h_hop", parts.hop_csr, 1)):
        if np.any(block.data.imag != 0.0):
            return f"{name} has complex entries; S = Y^T Phi Y needs it real"
        if np.any((charge[block.rows()] - charge[block.indices] - step) % order):
            return f"{name} breaks the boost symmetry of order {order}"
    return None


def _half_period_propagator(parts: HamiltonianParts, rtol: float, atol: float) -> np.ndarray:
    """Y = U(T_B/(2d)), integrated FLOQUET_CHUNK columns at a time by
    `_integrate_windows`, each chunk from the matching columns of the
    identity with its own adaptive steps, the first of them the step that
    the chunk before would take next, into one preallocated dim x dim array."""
    dim = parts.basis_dim
    half = 0.5 * parts.t_bloch / parts.boost_order
    y = np.empty((dim, dim), dtype=complex)
    step = None
    for start in range(0, dim, FLOQUET_CHUNK):
        eye = np.eye(dim, min(FLOQUET_CHUNK, dim - start), -start, dtype=complex)
        y[:, start:start + eye.shape[1]], step = _integrate_windows(
            parts, eye, 0.0, half, None, None, rtol, atol, step)
    return y


def floquet_operator(
    parts: HamiltonianParts,
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> np.ndarray:
    """Boosted propagator S = Y^T Phi Y over T_B/d, d = parts.boost_order,
    from the matrix ODE over [0, T_B/(2d)] in the frame of the static
    diagonal.  The one-period propagator is U(T_B) = S^d; nothing forms it.

    Frame: with D = diag(h_static), W(t) = e^{iDt} U(t) obeys
    i dW/dt = apply(t, W) from W(0) = 1, and U(t) = e^{-iDt} W(t).

    Symmetry: Phi = diag(exp(-2 pi i boost_charge / d)) = B^(-L/d) gives
    conj(Phi) H(t) Phi = H(t + T_B/d), and real h_static and h_hop give
    U(-t) = U(t)*, so U(T_B/d) = conj(Phi) S with Y = U(T_B/(2d)), and
    U(kT_B/d) = conj(Phi)^k S^k with Phi^d = 1.  Complex blocks, or blocks
    that do not carry the charges (h_static keeps the charge mod d, h_hop
    raises it by one), raise ValueError.

    Memory: the columns of W are independent, so Y = U(T_B/(2d)) is
    integrated FLOQUET_CHUNK columns at a time into one preallocated array
    (`_half_period_propagator`), and the stepper keeps only the chunk's end
    state: Y and FLOQUET_CHUNK_COPIES arrays of the chunk's size.  S is then
    written into a second array one column block of FLOQUET_CHUNK at a time,
    Y^T (Phi Y[:, block]), and Y is freed: two dim x dim copies.  The defect
    d max|S^dag S - 1| comes from row blocks S[:, rows]^H S of the Gram
    matrix, so the check holds S and one block.  ValueError is raised
    before any integration when the estimated working set of building and
    diagonalising S exceeds the physical memory.  The defect is checked
    against UNITARITY_DEFECT_BUDGET; a failure suggests tightening the
    tolerances.
    """
    dim = parts.basis_dim
    problem = _propagator_obstacle(parts)
    if problem:
        raise ValueError(problem)
    order = parts.boost_order
    y = _half_period_propagator(parts, rtol, atol)
    phi = np.exp(-2j * math.pi * parts.boost_charge / order)[:, None]
    s = np.empty((dim, dim), dtype=complex)
    blocks = [slice(start, start + FLOQUET_CHUNK) for start in range(0, dim, FLOQUET_CHUNK)]
    for cols in blocks:
        s[:, cols] = y.T @ (phi * y[:, cols])
    del y
    defect = 0.0
    for rows in blocks:
        gram = s[:, rows].conj().T @ s
        gram[:, rows][np.diag_indices(gram.shape[0])] -= 1.0
        defect = max(defect, order * float(np.abs(gram).max()))
    if defect > UNITARITY_DEFECT_BUDGET:
        raise NumericalError(f"one-period propagator defect {defect:.3e} exceeds "
                             f"{UNITARITY_DEFECT_BUDGET:.1e}; tighten rtol/atol")
    return s


def diagonalize_floquet(s: np.ndarray, order: int, t_bloch: float, psi0) -> FloquetSpectrum:
    """Quasi-energies, orthonormal eigenvectors and initial-state overlaps of
    U(T_B) = S^order, for S = floquet_operator(parts), order = parts.boost_order.

    S is complex symmetric and unitary, so Re S and Im S commute and share a
    real orthonormal eigenbasis: that of the eigh (divide and conquer) of
    Re S + mu Im S, mu = EIGEN_MIX, with eigenvalues sigma_j = v_j^T S v_j.
    Eigenvalues with equal cos(phi) + mu sin(phi) would mix; the residual
    max|SV - V Sigma| catches that, and an S that is not symmetric, with
    NumericalError above EIGEN_RESIDUAL_BUDGET.  U has the same vectors and
    the eigenvalues lambda = sigma^order, so quasi-energies are
    -arg(lambda)/T_B, in [-F/2, F/2), and the unitarity defect is
    max_j ||lambda_j|^2 - 1|, which with the residual check bounds the
    entrywise defect of V Lambda V^T.

    Memory, in complex copies of S: besides S, the eigh holds the real
    matrix it diagonalises, eigh's input copy and the eigenvectors (half a
    copy each) and LAPACK's divide-and-conquer workspace of 2 dim^2 doubles
    (one), 3.5 in all, of which tracemalloc sees 2.0 (numpy's linalg
    allocates the input copy and the workspace itself).  Then sigma and the
    residual are formed one block of FLOQUET_CHUNK columns of V at a time,
    from S V[:, block], and so are the overlaps V[:, block]^T psi0, so no
    dim x dim product or complex copy of V is made (2.0 copies with S, V
    and V sorted by quasi-energy).
    """
    mixed = EIGEN_MIX * s.imag
    mixed += s.real
    _, vectors = np.linalg.eigh(mixed)
    del mixed
    psi0 = np.asarray(psi0, dtype=complex)
    sigma = np.empty(len(vectors), dtype=complex)
    overlaps = np.empty(len(vectors), dtype=complex)
    residual = 0.0
    for start in range(0, len(vectors), FLOQUET_CHUNK):
        cols = slice(start, start + FLOQUET_CHUNK)
        sv = s @ vectors[:, cols]
        sigma[cols] = np.einsum("ij,ij->j", vectors[:, cols], sv)
        residual = max(residual, float(np.abs(sv - vectors[:, cols] * sigma[cols]).max()))
        overlaps[cols] = vectors[:, cols].T @ psi0
    if residual > EIGEN_RESIDUAL_BUDGET:
        raise NumericalError(f"Floquet eigenvector residual {residual:.3e} exceeds "
                             f"{EIGEN_RESIDUAL_BUDGET:.0e}")
    lam = sigma ** order
    eps = -np.angle(lam) / t_bloch
    ranks = np.argsort(eps, kind="stable")
    return FloquetSpectrum(
        quasi_energies=eps[ranks],
        eigen_vectors=vectors[:, ranks],
        coefficients=overlaps[ranks],
        unitarity_defect=float(np.abs(np.abs(lam) ** 2 - 1.0).max()),
        t_bloch=t_bloch,
    )


def stroboscopic_occupations(
    spectrum: FloquetSpectrum,
    sector: SymmetrySector,
    n_periods: int,
) -> OscillationTrace:
    """Upper-band occupation N_b at t = 0, T_B, ..., n_periods*T_B."""
    if spectrum.dim != sector.dim:
        raise ValueError(f"spectrum dimension {spectrum.dim} does not match sector {sector.dim}")
    check_trace_memory(n_periods + 1)
    w = sector.upper_fractions
    ms = np.arange(n_periods + 1)
    values = np.empty(ms.size)
    vt = spectrum.eigen_vectors.T
    # periods per block: about 100,000 phases, one complex array of 1.6 MB
    chunk = max(1, 100_000 // max(1, spectrum.dim))
    buffer = np.empty((min(chunk, ms.size), spectrum.dim), dtype=complex)
    for start in range(0, ms.size, chunk):
        block = ms[start:start + chunk]
        phases = buffer[:block.size]
        np.multiply(-1j, np.outer(block * spectrum.t_bloch, spectrum.quasi_energies), out=phases)
        np.exp(phases, out=phases)
        phases *= spectrum.coefficients
        values[start:start + chunk] = ((phases.real @ vt) ** 2 + (phases.imag @ vt) ** 2) @ w
    return OscillationTrace(times=ms * spectrum.t_bloch, values=values)


def occupation_series(result: EvolutionResult, sector: SymmetrySector) -> OscillationTrace:
    """N_b(t) = (1/N) sum_l <n_l^b> at the sample times of `evolve`.

    The observable is diagonal in sector coordinates because the total
    upper-band number is translation invariant: N_b = sum_j w_j |psi_j|^2
    with w = upper_fractions (`_weighted_norms`).  A result that kept its
    states gets them from those; one that `evolve` streamed with
    weights=sector.upper_fractions already holds them, with the same bits.
    A result streamed with other weights raises ValueError.
    """
    w = sector.upper_fractions
    if result.states is not None:
        values = _weighted_norms(result.states, w)
    elif np.array_equal(result.weights, w):
        values = result.values
    else:
        raise ValueError("the result holds sum_j w_j |psi_j|^2 for weights other than "
                         "the sector's upper_fractions")
    return OscillationTrace(times=result.times, values=values)
