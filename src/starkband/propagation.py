"""Time evolution under the periodically driven sector Hamiltonian.

Everything rests on the propagator S over T_B/d, d = gcd(N, L), integrated
once as a matrix ODE; the one-period propagator U(T_B) = S^d is never
formed.  The eigenbasis of S is that of U and gives the stroboscopic
long-time observables (collapse and revival live at thousands of Bloch
periods).  S also gives continuous traces of sum_j w_j |psi_j|^2 (N_b for
w = upper_fractions) on the grid t_k = k T_B/n that `evolve` samples:
psi(mT_B + s) = U(s) S^(dm) psi0, so every Bloch-period window holds the
same offsets s = T_B/n * arange(n), and all the windows are integrated
side by side over one period as the columns of a few blocks.  Where S
costs more than it saves, or cannot be built, the same loop integrates the
windows one after the other as a vector instead.

Every integration solves i dW/dt = HamiltonianParts.apply(t, W) for
W = e^{iDt} psi, in the frame of the static diagonal D (band gap and
interactions, the largest entries of H), so the integrator steps only
through the couplings; the diagonal phases into and out of the frame are
exact.  The integrator is `dop853.integrate`, which takes the DOP853
steps of scipy.integrate.solve_ivp without importing scipy.integrate.
The propagator is integrated over T_B/(2d): a boost of the ring shifts H(t)
by T_B/d, and time reversal (h_static and h_hop are real in the kappa = 0
basis) halves that span.  The resulting S is complex symmetric, so its
eigenbasis comes from one real symmetric eigendecomposition: the three
stages of LAPACK's dsyevd, the routine of numpy's eigh, called inside S's
own buffer.

Memory stays within 1.5 dim x dim complex copies, and a few dim x 16 ones
(see FLOQUET_*), phase by phase.  The propagator is integrated in chunks
of FLOQUET_CHUNK = 16 columns (Y and one chunk's working set), all stepped
in one DOP853 workspace, allocated once and freed before S is formed: a
workspace per chunk would leave freed chunk-sized arrays in glibc's heap,
whose free pages malloc_trim hands back before Y and before LAPACK runs.
S is formed in Y's own buffer and checked, in blocks of columns (one copy
and two blocks), and its diagonalisation consumes S: it holds S's buffer,
whose first half is rewritten in place into the real matrix that LAPACK
reduces and whose second half takes the eigenvectors, and LAPACK's
workspace of half a copy.  `evolve` integrates its windows in
the fewest blocks of at most FLOQUET_CHUNK windows, of balanced widths (50
windows as 13, 13, 12 and 12), in one workspace shared by the blocks, each
sample handed on as the step that holds it is accepted, and keeps only
sum_j w_j |psi_j|^2 of it: it holds the window starts, built from S before
S is freed, where they fit (else S, or one vector), one block of windows
and the float trace.  Every trace from an eigendecomposition, the
stroboscopic N_b and the single-particle command's, is one kernel,
`spectral_trace`: blocks of about TRACE_BLOCK_PHASES phases and at least
TRACE_BLOCK_PERIODS samples, each turned from the block before.
"""

import ctypes
import functools
import importlib.util
import math
from dataclasses import dataclass

import numpy as np

from .analysis import OscillationTrace
from .dop853 import NumericalError, integrate, workspace
from .fock import SymmetrySector, memory_shortfall
from .hamiltonian import HamiltonianParts

__all__ = [
    "NumericalError",
    "EvolutionResult",
    "FloquetSpectrum",
    "evolve",
    "floquet_operator",
    "diagonalize_floquet",
    "spectral_trace",
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
# what LAPACK allocates out of its sight); _dense_bytes prices the largest:
# - integrating Y = U(T_B/(2d)) in chunks of FLOQUET_CHUNK columns: Y, and
#   FLOQUET_CHUNK_COPIES arrays of dim x FLOQUET_CHUNK: the one stepper
#   workspace that every chunk shares (DOP853's 13 stages, y, y_new, a work
#   row and the error scale, 17.5), a right-hand side's result, the chunk's
#   start and its end (20.6 measured at dim 402, 20.7 at dim 86 and 21.1 at
#   dim 20: the rephased CSR data of a call weighs more against a narrower
#   chunk);
# - forming S in Y's buffer in column blocks, then checking S^dag S in row
#   blocks: one copy and two blocks (1.08 copies measured at dim 402 with
#   blocks of 8);
# - diagonalize_floquet: S's buffer, whose first half it rewrites in place
#   into Re S + mu Im S with Im S's strict triangle in the triangle that
#   LAPACK leaves alone, and into whose second half dstedc writes the
#   eigenvectors, and the workspace that dstedc and dormtr share, 1 + 4 dim +
#   dim^2 doubles and 3 + 5 dim integers; then one real array that takes
#   (B V)^T and, after the residual, V sorted: FLOQUET_WORKING_COPIES in all.
#   FLOQUET_WORKING_VECTORS vectors of dim cover the rest: the eigenvalues,
#   the overlaps and the bookkeeping, and one row block's temporaries of
#   fewer than 2 FLOQUET_CHUNK rows of doubles (tracemalloc, which sees the
#   workspace, measured 15.8 at dim 402 with blocks of up to 18 rows, and
#   20.0 at dim 2076 with 28; LAPACKE_dsytrd's own workspace, dim * 32
#   doubles, comes and goes before the shared one).  This phase is the
#   largest above dim 656, from N = L = 6 on.
# The windows of evolve are integrated in the fewest blocks of at most
# FLOQUET_CHUNK columns, of balanced widths, in one workspace that also holds
# the dense output's 3 extra stages and 4 more rows (DOP853 holds 25.5 copies
# of a block, and a block of evolve 29.5 with its starts and sample rows),
# beside S or, where they fit, all the window starts in its place (see
# evolve).
FLOQUET_CHUNK = 16
FLOQUET_WORKING_COPIES = 1.5
FLOQUET_WORKING_VECTORS = 24
FLOQUET_CHUNK_COPIES = 22
# Besides the dense arrays and the arrays of the parts, a process that builds
# and diagonalises S holds the interpreter with numpy and the package
# (PROCESS_BYTES: 29.7 MiB of RSS after importing starkband.cli), and, per
# sector state, the sector's arrays, the part of glibc's heap that
# malloc_trim cannot hand back, and the BLAS buffers that LAPACK's and the
# residual's products touch (SPARE_BYTES_PER_STATE: at N = L = 6, dim 2076,
# 11.5 MiB of a 142.3 MiB peak RSS, 5.7 KiB per state).  At N = L = 7 that
# prices 2,919 MiB; a run with 64-column chunks and a separate real matrix
# for dsyevd, 2.5 copies, peaked at 4,793 MiB.
PROCESS_BYTES = 32 * 2**20
SPARE_BYTES_PER_STATE = 6 * 2**10
# The fixed cost of one right-hand side call, in state entries of the sparse
# products it matches: fitted to dop853.integrate at N = L = 3..6 (dim
# 20..2076, widths 1..32), where a call costs about
# (600 + (width + 1) * dim) * 44 ns on one core (rms error 16%)
EVOLVE_CALL_OVERHEAD = 600
# diagonalize_floquet: the weight of Im S in its eigh (irrational, so no rational
# symmetry of the spectrum makes eigenvalues collide), and the budget of the
# eigenpair residual and of S's asymmetry max|S - S^T|.
EIGEN_MIX = (math.sqrt(5.0) - 1.0) / 2.0
EIGEN_RESIDUAL_BUDGET = 1e-8
# floquet_operator: the budget of d max|S^dag S - 1|, to first order max|U^dag U - 1|
UNITARITY_DEFECT_BUDGET = 1e-6
# Bytes a trace holds per sample beside its caller's, by tracemalloc: six float64
# arrays (45 per period of revival-report measured).
TRACE_BYTES_PER_SAMPLE = 48
# spectral_trace: the phases of one block of samples, about 25,000 (a block
# of 62 periods at dim 402: its phases and their two real products with V
# are 32 bytes per phase, 0.8 MB), but at least TRACE_BLOCK_PERIODS samples,
# as each block streams all of V twice
TRACE_BLOCK_PHASES = 25_000
TRACE_BLOCK_PERIODS = 62


@dataclass(frozen=True)
class EvolutionResult:
    """The sample times of `evolve`, values[k] = sum_j w_j |psi_j(t_k)|^2
    for its weights w, and the norm drift of the last sample's state."""

    times: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    norm_drift: float


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


def _integrate_windows(parts, starts, s_start, s_end, offsets, sink, first_step, work):
    """Integrate the columns of `starts`, each the lab-frame state at offset
    `s_start` of its own Bloch-period window, to offset `s_end`, and return
    their lab-frame vectors there as a dim x width block, and the step that
    the integrator would take next (see `dop853.integrate`; `first_step` is
    its first, None for Hairer's probe, and `work` its work buffer), at
    DEFAULT_RTOL and DEFAULT_ATOL.

    H(mT_B + s) = H(s), so every window integrates i dW/ds = apply(s, W) on
    W = e^{iDs} psi from the same s_start.  At each of the sorted `offsets`,
    as the step that holds offsets[i] is accepted, sink(i, rows) receives
    psi = e^{-iDs} W, one row per column, in a width x dim work array
    that the next sample overwrites.
    """
    dim, width = starts.shape
    d = parts.frame

    def rhs(s, w, row):
        np.multiply(parts.apply(s, w.reshape(dim, width)), -1j, out=row.reshape(dim, width))

    rows = None if offsets is None else np.empty((width, dim), dtype=complex)

    def emit(i, w):
        np.multiply(np.exp(-1j * offsets[i] * d), w.reshape(dim, width).T, out=rows)
        sink(i, rows)

    w0 = np.exp(1j * s_start * d)[:, None] * starts if s_start else starts  # e^0 = 1
    end, step = integrate(rhs, w0.ravel(), s_start, s_end, DEFAULT_RTOL, DEFAULT_ATOL, offsets,
                          emit, first_step, work)
    end = end.reshape(dim, width)
    return np.multiply(np.exp(-1j * s_end * d)[:, None], end, out=end), step


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
    windows that the S route of `evolve` integrates, all but the last when
    it holds only its start."""
    return -(-last // samples_per_period) if samples_per_period > 1 else 0


def _block_widths(windows: int) -> list[int]:
    """The widths of the fewest blocks of at most FLOQUET_CHUNK windows,
    widest first, no two more than one apart: 49 windows run as 25 and 24."""
    blocks = -(-windows // FLOQUET_CHUNK)
    width, wider = divmod(windows, max(blocks, 1))
    return [width + (b < wider) for b in range(blocks)]


def _blocks(dim: int) -> list[slice]:
    """The column (or row) blocks in which S is formed, checked and
    rewritten: FLOQUET_CHUNK of dim each, the last with the rest too (18
    at dim 402).  A last block of 2 would be a product of 2 rows and 2
    columns, which OpenBLAS's zgemm, with two threads, rounds otherwise
    than the full product."""
    starts = range(0, max(dim - FLOQUET_CHUNK, 0) + 1, FLOQUET_CHUNK)
    return [slice(start, end) for start, end in zip(starts, [*starts[1:], dim])]


def _propagator_pays(parts: HamiltonianParts, last: int, samples_per_period: int) -> bool:
    """Whether building S, taking d products S @ psi per window, and
    integrating the windows that hold a sample after their start (see
    `_sampled_windows`; `last` is the last sample on the grid) side by side
    in the blocks of `_block_widths` costs less than integrating
    ceil(last/n) windows one after the other as a vector, one period each
    (n = samples_per_period, see `evolve`).

    S integrates its column chunks over T_B/(2d) in about 1.1 times the
    calls of that fraction of a period.  At N = L = 5 and 6 the first chunk,
    from Hairer's probe step, takes 74 and 62 calls, each later one, from
    the step the chunk before would take next, 61 and 49 (12 more each time
    that step is rejected, in 4 of 25 and 13 of 129 later chunks): 1,647
    and 6,551 calls in all.  Its two dense products, 7% more at N = L = 5
    and 36% at N = L = 6, are left to the fit.  A product S @ psi costs
    about dim^2 / 40 state entries' worth (1.0 to 1.6 ns per entry against
    44 ns per entry of a call).  CPU times of both routes on one core, with
    32 samples per period: at N = L = 5 the vector route was faster over 10
    periods (0.39 s against 0.54 s, medians of five), about even over 14
    (0.58 s against 0.59 s) and S over 18 (0.68 s against 0.76 s); at
    N = L = 6 the vector route over 160 (24.4 s against 25.7 s) and S over
    210 (28.4 s against 29.1 s).  The model breaks even at 18 and 184.
    With one sample per period, where S integrates nothing, at N = L = 5
    vectors were faster over 10 periods (0.34 s against 0.45 s) and S over
    12 (0.36 s against 0.41 s; the model: 16), and at N = L = 6 vectors
    over 100 (11.7 s against 14.5 s, wall) and S over 140 (14.7 s against
    19.6 s; the model: 118).
    """
    dim, order, n = parts.basis_dim, parts.boost_order, samples_per_period
    full, rest = divmod(dim, FLOQUET_CHUNK)
    propagator = 1.1 / (2 * order) * (full * _period_cost(dim, FLOQUET_CHUNK)
                                      + (rest > 0) * _period_cost(dim, rest))
    products = order * (last // n) * dim**2 / 40
    blocks = sum(_period_cost(dim, width, n)
                 for width in _block_widths(_sampled_windows(last, n)))
    return propagator + products + blocks < -(-last // n) * _period_cost(dim, 1, n)


def _window_starts(s: np.ndarray, psi0: np.ndarray, order: int):
    """psi(mT_B) = S^(order m) psi0 for m = 0, 1, ..., each `order` products
    S @ psi from the one before, formed as it is asked for."""
    start = psi0
    while True:
        yield start
        for _ in range(order):
            start = s @ start


def _weighted_norms(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j weights_j |rows[k, j]|^2 for each row k: one product over the
    real and imaginary parts of all rows at once that makes no temporary of
    their size, and the same bits for a row alone as among others."""
    re_im = rows.view(float).reshape(*rows.shape, 2)
    return np.einsum("kjc,kjc,j->k", re_im, re_im, weights)


def evolve(
    psi0,
    parts: HamiltonianParts,
    t_final: float,
    *,
    samples_per_period: int,
    weights,
) -> EvolutionResult:
    """values[k] = sum_j w_j |psi_j(t_k)|^2, w = `weights` (one per basis
    state; sector.upper_fractions gives N_b, see `occupation_series`), for
    psi(t) of i d/dt psi = H(t) psi from psi(0) = psi0, at t_k = k T_B/n,
    n = samples_per_period, up to t_final; a t_final between two samples is
    the last sample, one short integration from the one before.  Each value
    is formed as its sample is reached, and no state is kept but the one
    that short integration starts from.

    Time is cut into Bloch-period windows [mT_B, (m+1)T_B), and window m
    holds the samples at mT_B + T_B/n * arange(n), the first of them its
    start psi(mT_B).  One loop integrates the windows that hold a sample
    after their start in blocks, the columns of a block side by side (see
    `_integrate_windows`), all in one workspace, each from the step that
    the integration before would take next; the integrator hands each
    sample on as the step that holds it is accepted.  The windows that hold
    only their start are recorded after the loop.  The blocks come from one
    of two routes:
    - S: H(t) has period T_B, so psi(mT_B) = S^(dm) psi0 with
      S = floquet_operator(parts), each start d products S @ psi from the
      one before (`_window_starts`).  Where `_propagator_pays`, the blocks
      are the fewest of at most FLOQUET_CHUNK windows, of balanced widths
      (`_block_widths`), each integrated to its last sample.  The starts of
      windows 0..final are all built before the first block, and S is freed
      before the blocks' workspace is allocated, where final + 1 <=
      min(dim, FLOQUET_CHUNK_COPIES * min(dim, FLOQUET_CHUNK)): the starts
      then weigh no more than S, which they replace in the blocks' phase,
      and S and the starts together no more than the propagator's
      integration just before.  Longer spans build each block's starts
      with S as the block is reached.  The products and their order are
      the same either way.  With one sample per period the starts are all
      the samples, and nothing is integrated.  S costs dim^2 to build and
      apply, so it needs more windows as dim grows.
    - Vectors: otherwise, and when S cannot be built (complex blocks, or a
      working set beyond the physical memory), ceil(last/n) blocks of one
      window, each integrated over the whole period (a last window only to
      its last sample) from the end of the one before.
    """
    if not 0 < t_final < math.inf:
        raise ValueError(f"t_final={t_final} must be positive and finite")
    if samples_per_period < 1:
        raise ValueError(f"samples_per_period must be positive, got {samples_per_period}")
    psi0 = np.asarray(psi0, dtype=complex)
    dim, n, tb = parts.basis_dim, samples_per_period, parts.t_bloch
    if psi0.shape != (dim,):
        raise ValueError(f"state has dimension {psi0.shape}, expected ({dim},)")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (dim,):
        raise ValueError(f"weights have shape {weights.shape}, expected ({dim},)")

    step = tb / n
    last = int(math.floor(t_final / step + 1e-9))  # the last sample on the grid
    check_trace_memory(last + 2)  # the grid and, maybe, t_final
    times = step * np.arange(last + 1)
    if times[-1] < t_final - 1e-9 * step:
        times = np.append(times, t_final)
    offsets = step * np.arange(min(n, last + 1))  # a window holds at most last + 1 samples
    final = last // n  # the last window that holds a sample
    starts, widths = None, [1] * -(-last // n)  # the vector route, unless S pays
    if (final and _propagator_obstacle(parts) is None
            and _propagator_pays(parts, last, n)):
        widths = _block_widths(_sampled_windows(last, n))
        starts = _window_starts(floquet_operator(parts), psi0, parts.boost_order)
        if final + 1 <= min(dim, FLOQUET_CHUNK_COPIES * min(dim, FLOQUET_CHUNK)):
            ahead = np.empty((final + 1, dim), dtype=complex)
            for row, start in zip(ahead, starts):
                row[...] = start
            starts = iter(ahead)  # the last reference to S goes with its generator
    values = np.empty(times.size)
    kept = None  # the state at sample `last`

    def put(first, rows):
        """Record rows[i] as sample first + i * n."""
        nonlocal kept
        values[first:first + len(rows) * n:n] = _weighted_norms(rows, weights)
        i, r = divmod(last - first, n)
        if r == 0 and 0 <= i < len(rows):
            kept = rows[i].copy()

    start = psi0  # psi(mT_B) of the last window m recorded, or to record next

    def window_start(m):
        """psi(mT_B), recorded; on the S route the next of `starts`."""
        nonlocal start
        if starts is not None:
            start = next(starts)
        put(m * n, start[None])
        return start

    def sink(i, rows):
        """Record sample i + 1 of windows m, m + 1, ... of the block."""
        first = m * n + 1 + i
        put(first, rows[:len(range(first, last + 1, n))])

    work = workspace(dim * max(widths), sampled=True) if widths else None  # a lone tail allocates its own
    carried, m = None, 0  # the step that the last integration would take next
    for width in widths:
        count = min(n, last + 1 - m * n)  # the samples of window m
        block = np.column_stack([window_start(m + j) for j in range(width)])
        s_end = tb if starts is None and m < final else offsets[count - 1]
        end, carried = _integrate_windows(parts, block, 0.0, s_end, offsets[1:count], sink,
                                          carried, work)
        if starts is None:
            start = end[:, 0]
        m += width
    for m in range(m, final + 1):  # windows that hold only their start
        window_start(m)

    end = kept
    if times.size > last + 1:
        end, _ = _integrate_windows(parts, end[:, None], offsets[last % n],
                                    t_final - final * tb, None, None, carried, work)
        put(last + 1, end.T)
        end = end[:, 0]
    drift = abs(np.linalg.norm(end) - np.linalg.norm(psi0))
    return EvolutionResult(times=times, values=values, weights=weights, norm_drift=float(drift))


def check_trace_memory(samples: int, sample_bytes: int = 0):
    """Reject with ValueError, before it is allocated, a trace of `samples`
    samples beyond physical memory: each holds TRACE_BYTES_PER_SAMPLE of
    trace arrays and `sample_bytes` more (its CSV line, say)."""
    problem = memory_shortfall(f"a trace of {samples:,} samples",
                               samples * (TRACE_BYTES_PER_SAMPLE + sample_bytes))
    if problem:
        raise ValueError(problem)


def _dense_bytes(dim: int) -> int:
    """Estimated peak bytes of the dense arrays of `floquet_operator` and
    `diagonalize_floquet` at sector dimension `dim`: the largest of their
    three phases, in complex vectors of dim entries (see the FLOQUET_*
    constants)."""
    width = min(dim, FLOQUET_CHUNK)
    vectors = max(dim + FLOQUET_CHUNK_COPIES * width,  # integrating Y: Y and the stepper's chunk
                  dim + 2 * width,  # forming and checking S in Y's buffer: one copy and two blocks
                  FLOQUET_WORKING_COPIES * dim + FLOQUET_WORKING_VECTORS)  # diagonalising S
    return int(16 * dim * vectors)


def _propagator_bytes(parts: HamiltonianParts) -> int:
    """Estimated peak bytes of a process that builds and diagonalises S for
    `parts`: the dense arrays (`_dense_bytes`), the arrays of the parts,
    PROCESS_BYTES and SPARE_BYTES_PER_STATE per sector state."""
    dim = parts.basis_dim
    return _dense_bytes(dim) + parts.nbytes + PROCESS_BYTES + SPARE_BYTES_PER_STATE * dim


def _propagator_obstacle(parts: HamiltonianParts) -> str | None:
    """Why `floquet_operator` cannot build S for `parts`, or None: the
    estimated peak of a process that builds and diagonalises S
    (`_propagator_bytes`) exceeds the physical memory, or a block is complex
    or does not carry the boost charges."""
    dim = parts.basis_dim
    problem = memory_shortfall(f"the propagator at sector dimension {dim}",
                               _propagator_bytes(parts))
    if problem:
        return problem
    order, charge = parts.boost_order, parts.boost_charge
    for name, block, step in (("h_static", parts.static_csr, 0), ("h_hop", parts.hop_csr, 1)):
        if np.any(block.data.imag != 0.0):
            return f"{name} has complex entries; S = Y^T Phi Y needs it real"
        if np.any((charge[block.rows()] - charge[block.indices] - step) % order):
            return f"{name} breaks the boost symmetry of order {order}"
    return None


def _half_period_propagator(parts: HamiltonianParts) -> np.ndarray:
    """Y = U(T_B/(2d)), integrated FLOQUET_CHUNK columns at a time by
    `_integrate_windows`, each chunk from the matching columns of the
    identity with its own adaptive steps, the first of them the step that
    the chunk before would take next, into one preallocated dim x dim array.
    All chunks share one stepper workspace, freed on return.  First glibc's
    malloc_trim (`_malloc_trim`) hands back the heap's free pages."""
    trim = _malloc_trim()
    if trim is not None:  # what the set-up freed need not stay resident under Y
        trim(0)
    dim = parts.basis_dim
    half = 0.5 * parts.t_bloch / parts.boost_order
    width = min(FLOQUET_CHUNK, dim)
    y = np.empty((dim, dim), dtype=complex)
    work = workspace(dim * width)
    step = None
    for start in range(0, dim, width):
        eye = np.eye(dim, min(width, dim - start), -start, dtype=complex)
        y[:, start:start + eye.shape[1]], step = _integrate_windows(
            parts, eye, 0.0, half, None, None, step, work)
    return y


def floquet_operator(parts: HamiltonianParts) -> np.ndarray:
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
    (`_half_period_propagator`), every chunk in one stepper workspace, and
    the stepper keeps only the chunk's end state: Y and FLOQUET_CHUNK_COPIES
    arrays of the chunk's size.  The workspace is freed, and S is then
    written over Y one column block at a time (`_blocks`), in order: S's
    lower part S[i:, block] = Y[:, i:]^T (Phi Y[:, block]), from i = the
    block's first column, reads only the columns of Y from i on, which no
    block before has overwritten, and goes over Y[i:, block]; then the
    block's upper part, S[:i, block] and the upper half of its diagonal
    block, is mirrored from the lower, so S is exactly symmetric.  That is
    one dim x dim copy and two blocks.  The defect d max|S^dag S - 1| comes
    from the row blocks S[:, rows]^H S[:, :rows.stop] of the Hermitian Gram
    matrix, the columns left of and on its diagonal, so the check holds S
    and one block.  ValueError is raised before any integration when the
    estimated peak of a process that builds and diagonalises S
    (`_propagator_bytes`) exceeds the physical memory.  The defect is
    checked against UNITARITY_DEFECT_BUDGET; a failure suggests tightening
    DEFAULT_RTOL and DEFAULT_ATOL.
    """
    dim = parts.basis_dim
    problem = _propagator_obstacle(parts)
    if problem:
        raise ValueError(problem)
    order = parts.boost_order
    s = _half_period_propagator(parts)  # Y, overwritten by S
    phi = np.exp(-2j * math.pi * parts.boost_charge / order)[:, None]
    blocks = _blocks(dim)
    for cols in blocks:  # S[i:, cols] reads only Y[:, i:], which no block before overwrote
        i = cols.start
        s[i:, cols] = s[:, i:].T @ (phi * s[:, cols])
        s[:i, cols] = s[cols, :i].T  # the upper triangle, mirrored from the lower
        diagonal = s[cols, cols]
        upper = np.triu_indices(len(diagonal), 1)
        diagonal[upper] = diagonal.T[upper]
    defect = 0.0
    for rows in blocks:  # S^dag S is Hermitian: the blocks left of and on its diagonal
        gram = s[:, rows].conj().T @ s[:, :rows.stop]
        gram[:, rows][np.diag_indices(gram.shape[0])] -= 1.0
        defect = max(defect, order * float(np.abs(gram).max()))
    if defect > UNITARITY_DEFECT_BUDGET:
        raise NumericalError(f"one-period propagator defect {defect:.3e} exceeds "
                             f"{UNITARITY_DEFECT_BUDGET:.1e}; tighten DEFAULT_RTOL/DEFAULT_ATOL")
    return s


@functools.cache
def _malloc_trim():
    """glibc's malloc_trim, which hands the free pages of malloc's heap back
    to the system, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc, or no dlopen(NULL) here
        return None
    trim.restype = ctypes.c_int
    trim.argtypes = [ctypes.c_size_t]
    return trim


@functools.cache
def _lapacke():
    """The three stages of LAPACK's dsyevd, LAPACKE_dsytrd, LAPACKE_dstedc_work
    and LAPACKE_dormtr_work, from the OpenBLAS that numpy's linalg extension
    links (the numpy wheels export them with 64-bit integers as
    scipy_LAPACKE_*64_), found through that extension's file."""
    origin = importlib.util.find_spec("numpy.linalg._umath_linalg").origin
    library = ctypes.CDLL(origin)
    size, pointer, char = ctypes.c_int64, ctypes.c_void_p, ctypes.c_char
    routines = []
    for name, argtypes in (
            ("dsytrd", [char, size, pointer, size, pointer, pointer, pointer]),
            ("dstedc_work", [char, size, pointer, pointer, pointer, size, pointer, size, pointer,
                             size]),
            ("dormtr_work", [char, char, char, size, size, pointer, size, pointer, pointer, size,
                             pointer, size])):
        symbol = f"scipy_LAPACKE_{name}64_"
        try:
            routine = getattr(library, symbol)
        except AttributeError:
            raise ImportError(f"{symbol} not found: {origin} does not link it") from None
        routine.restype = size
        routine.argtypes = [ctypes.c_int, *argtypes]  # the matrix layout first
        routines.append(routine)
    return routines


def _leading_dimension(a: np.ndarray, n: int) -> int:
    """LAPACK's leading dimension of `a`, an n x n C-ordered float64 array, or
    the leading columns of a wider one, read in column-major order: its row
    stride.  Anything else raises ValueError."""
    if (a.dtype != np.float64 or a.shape != (n, n) or not a.flags.writeable
            or (n > 1 and a.strides[1] != 8) or a.strides[0] % 8 or a.strides[0] < 8 * n):
        raise ValueError(f"need a C-ordered square float64 array, or the leading columns of "
                         f"one, got {a.dtype} {a.shape} with strides {a.strides}")
    return max(a.strides[0] // 8, 1)


def _lapack_check(name: str, info: int):
    """Raise NumericalError for LAPACK routine `name`'s nonzero error code."""
    if info:
        raise NumericalError(f"LAPACK {name} failed with info {info}")


def _symmetric_eigh(a: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the real symmetric matrix whose lower
    triangle the square `a` holds in column-major order; its orthonormal
    eigenvectors go into the square `vectors`, one per row.  Each is
    C-ordered, or the leading columns of a wider C-ordered array, whose row
    stride is LAPACK's leading dimension; the two must not overlap.

    These are the three stages of LAPACK's dsyevd, the routine of
    np.linalg.eigh: dsytrd reduces the triangle to tridiagonal form and
    writes its reflectors over it, dstedc (divide and conquer) writes the
    tridiagonal matrix's eigenvectors into `vectors`, and dormtr applies the
    reflectors there.  dstedc and dormtr share one workspace of 1 + 4n + n^2
    doubles and 3 + 5n integers, the sizes dsyevd passes them (dormtr's
    blocking, and so its bits, depend on it), and LAPACKE_dsytrd allocates
    the workspace that dsytrd queries, which blocks it as dsyevd does.  So
    the eigenvalues and eigenvectors (vectors.T) are np.linalg.eigh(a.T)'s
    bit for bit, with half a copy of workspace where dsyevd takes a whole
    one, its own eigenvector matrix besides.  The strict upper triangle of
    `a` in column-major order is neither read nor written.  dsyevd's
    rescaling of a matrix with an entry beyond 1e146, or all below 1e-146,
    is left out.  LAPACKE_dsytrd refuses a NaN in the triangle (info -4); a
    nonzero error code raises NumericalError naming its routine."""
    n = len(a)
    lda, ldz = _leading_dimension(a, n), _leading_dimension(vectors, n)
    dsytrd, dstedc, dormtr = _lapacke()
    col_major = 102  # LAPACKE's LAPACK_COL_MAJOR
    values = np.empty(n)
    off_diagonal, tau = np.empty((2, n))
    _lapack_check("dsytrd", dsytrd(col_major, b"L", n, a.ctypes.data, lda, values.ctypes.data,
                                   off_diagonal.ctypes.data, tau.ctypes.data))
    work, iwork = np.empty(1 + 4 * n + n * n), np.empty(3 + 5 * n, dtype=np.int64)
    _lapack_check("dstedc", dstedc(col_major, b"I", n, values.ctypes.data,
                                   off_diagonal.ctypes.data, vectors.ctypes.data, ldz,
                                   work.ctypes.data, work.size, iwork.ctypes.data, iwork.size))
    _lapack_check("dormtr", dormtr(col_major, b"L", b"L", b"N", n, n, a.ctypes.data, lda,
                                   tau.ctypes.data, vectors.ctypes.data, ldz, work.ctypes.data,
                                   work.size))
    return values


def _rewrite_rows(s: np.ndarray, rows: slice, diagonal: np.ndarray) -> float:
    """Rewrite `rows` of the first half of S's buffer, viewed as a dim x 2 dim
    real array, as the same rows of M = Re S + mu Im S on and right of the
    diagonal and of B = Im S left of it, put B's diagonal on those rows into
    `diagonal`, and return max|S - S^T| over them.  Both are read from S's
    lower triangle, so B is symmetric: row j of M from column j of S, rows j
    and below, and row j of B from row j of S, columns below j.  So rows are
    read before they are written, and blocks of rows go top down.  LAPACK,
    in column-major order, reads M's lower triangle and leaves B's strict
    upper one alone; the second half of the buffer is left free."""
    packed = s.view(float)[:, :len(s)]
    start = rows.start
    cols = s[start:, rows].copy()  # S[i, j] for i >= start
    asymmetry = float(np.abs(s[rows, start:] - cols.T).max())
    top = cols[:cols.shape[1]]  # the diagonal block, mirrored from its lower triangle
    upper = np.triu_indices(len(top), 1)
    top[upper] = top.T[upper]
    m = np.multiply(EIGEN_MIX, cols.imag)
    m += cols.real
    diagonal[rows] = top.imag.diagonal()
    packed[rows, :start] = s[rows, :start].imag
    packed[rows, start:] = m.T
    lower = np.tril_indices(len(top), -1)
    packed[rows, rows][lower] = top.imag[lower]  # B below the diagonal of the block
    return asymmetry


def diagonalize_floquet(s: np.ndarray, order: int, t_bloch: float, psi0) -> FloquetSpectrum:
    """Quasi-energies, orthonormal eigenvectors and initial-state overlaps of
    U(T_B) = S^order, for S = floquet_operator(parts), order = parts.boost_order.
    S is consumed: its buffer is the working space.

    S is complex symmetric and unitary, so Re S and Im S commute and share a
    real orthonormal eigenbasis: that of the eigendecomposition (the stages
    of LAPACK's dsyevd, see `_symmetric_eigh`) of M = Re S + mu Im S,
    mu = EIGEN_MIX, with eigenvalues m_j.  With B = Im S and
    b_j = v_j^T B v_j, S has the eigenvalues sigma_j = (m_j - mu b_j) + i b_j;
    M and B are read from S's lower triangle (`_rewrite_rows`).
    NumericalError is raised above EIGEN_RESIDUAL_BUDGET, or at NaN (as an
    infinite entry gives), by max|S - S^T| (0 for the S of
    `floquet_operator`, a guard on what other callers pass), before LAPACK
    runs, and by the residual max|BV - V diag(b)|, which
    catches eigenvalues with equal cos(phi) + mu sin(phi), as they would
    mix; with LAPACK's backward error the two bound max|SV - V Sigma|.  U
    has the same vectors and the eigenvalues lambda = sigma^order, so
    quasi-energies are -arg(lambda)/T_B, in [-F/2, F/2), and the unitarity
    defect is max_j ||lambda_j|^2 - 1|, which with the residual check bounds
    the entrywise defect of V Lambda V^T.

    Memory, in complex copies of S: S's buffer is viewed as a dim x 2 dim
    real array, and its first half is rewritten into M, with B's strict
    lower triangle in the triangle of M that LAPACK does not read and B's
    diagonal in a vector (`_rewrite_rows`).  Then glibc's malloc_trim
    (`_malloc_trim`) hands back the free pages that the stepper workspace
    and S's temporaries left in the heap, which would otherwise stay
    resident beside LAPACK's workspace (0.8 MiB at the preset).  LAPACK
    reduces the first half (lda = 2 dim) and writes the eigenvectors into
    the second, with a workspace of half a copy: 1.5 in all.  B is then
    mirrored back over the reflectors, and one real product V^T B = (B V)^T
    gives b and the residual, in an array that then takes V sorted by
    quasi-energy (half a copy, once LAPACK's workspace is freed); the
    overlaps and the residual go in the row blocks of `_blocks`.
    Products of single blocks would tie the bits of b to FLOQUET_CHUNK:
    OpenBLAS's dgemm rounds the last columns of a narrow block otherwise
    than the full product.
    """
    dim = len(s)
    if s.dtype != complex or s.shape != (dim, dim) or not s.flags.c_contiguous:
        raise ValueError(f"need a C-ordered square complex array, got {s.dtype} {s.shape}")
    blocks = _blocks(dim)
    diagonal = np.empty(dim)  # B's
    asymmetry = np.max([_rewrite_rows(s, rows, diagonal) for rows in blocks])  # keeps a NaN
    if not asymmetry <= EIGEN_RESIDUAL_BUDGET:
        raise NumericalError(f"Floquet operator asymmetry max|S - S^T| {asymmetry:.3e} exceeds "
                             f"{EIGEN_RESIDUAL_BUDGET:.0e}")
    packed, vectors = np.hsplit(s.view(float), 2)
    trim = _malloc_trim()
    if trim is not None:  # what the heap freed need not stay resident under LAPACK's workspace
        trim(0)
    values = _symmetric_eigh(packed, vectors)  # row j of `vectors` is now v_j
    for rows in blocks:  # B over the reflectors, mirrored from its strict lower triangle
        packed[rows, rows.stop:] = packed[rows.stop:, rows].T
        square = packed[rows, rows]
        upper = np.triu_indices(len(square), 1)
        square[upper] = square.T[upper]
        np.fill_diagonal(square, diagonal[rows])
    psi0 = np.asarray(psi0, dtype=complex)
    overlaps = np.concatenate([vectors[rows] @ psi0 for rows in blocks])
    products = vectors @ packed  # V^T B = (B V)^T, as B is symmetric; later V^T sorted
    b = np.einsum("ij,ij->i", vectors, products)
    residual = 0.0
    for rows in blocks:
        block = products[rows]
        block -= np.einsum("i,ij->ij", b[rows], vectors[rows])  # no ufunc buffer
        residual = np.maximum(residual, np.abs(block, out=block).max())
    if not residual <= EIGEN_RESIDUAL_BUDGET:
        raise NumericalError(f"Floquet eigenvector residual {residual:.3e} exceeds "
                             f"{EIGEN_RESIDUAL_BUDGET:.0e}")
    lam = (values - EIGEN_MIX * b + 1j * b) ** order
    eps = -np.angle(lam) / t_bloch
    ranks = np.argsort(eps, kind="stable")
    for rows in blocks:
        products[rows] = vectors[ranks[rows]]
    return FloquetSpectrum(
        quasi_energies=eps[ranks],
        eigen_vectors=products.T,
        coefficients=overlaps[ranks],
        unitarity_defect=float(np.abs(np.abs(lam) ** 2 - 1.0).max()),
        t_bloch=t_bloch,
    )


def spectral_trace(energies, vectors, coefficients, weights, step, samples) -> np.ndarray:
    """values[k] = sum_j w_j |psi_j(k step)|^2 for k < samples, where
    psi_j(t) = sum_n V_jn c_n e^{-i E_n t}: the columns of `vectors` V are
    eigenvectors of energies E, c the coefficients and w the weights.

    The samples go in blocks of about TRACE_BLOCK_PHASES phases c_n
    e^{-i E_n t}, at least TRACE_BLOCK_PERIODS samples.  Only the first
    block is exponentiated; each later one is the block before turned in
    place by e^{-i E_n chunk step}, one exp of dim entries.  The phases and
    their two real products with V, 32 bytes per phase, are allocated
    once.  A trace beyond physical memory raises ValueError first."""
    check_trace_memory(samples)
    values = np.empty(samples)
    chunk = min(samples, max(TRACE_BLOCK_PERIODS, TRACE_BLOCK_PHASES // max(1, len(energies))))
    phases = np.empty((chunk, len(energies)), dtype=complex)
    re, im = np.empty((2, *phases.shape))
    np.multiply(-1j, np.outer(np.arange(chunk) * step, energies, out=re), out=phases)
    np.exp(phases, out=phases)
    phases *= coefficients
    turn = np.exp(-1j * (chunk * step) * energies)
    for start in range(0, samples, chunk):
        np.square(np.matmul(phases.real, vectors.T, out=re), out=re)
        np.square(np.matmul(phases.imag, vectors.T, out=im), out=im)
        re += im
        values[start:start + chunk] = (re @ weights)[:samples - start]  # the last may be short
        phases *= turn  # the next block
    return values


def stroboscopic_occupations(
    spectrum: FloquetSpectrum,
    sector: SymmetrySector,
    n_periods: int,
) -> OscillationTrace:
    """Upper-band occupation N_b at t = 0, T_B, ..., n_periods*T_B."""
    if spectrum.dim != sector.dim:
        raise ValueError(f"spectrum dimension {spectrum.dim} does not match sector {sector.dim}")
    values = spectral_trace(spectrum.quasi_energies, spectrum.eigen_vectors,
                            spectrum.coefficients, sector.upper_fractions, spectrum.t_bloch,
                            n_periods + 1)
    return OscillationTrace(times=np.arange(n_periods + 1) * spectrum.t_bloch, values=values)


def occupation_series(result: EvolutionResult, sector: SymmetrySector) -> OscillationTrace:
    """N_b(t) = (1/N) sum_l <n_l^b> at the sample times of `evolve`.

    The observable is diagonal in sector coordinates because the total
    upper-band number is translation invariant: N_b = sum_j w_j |psi_j|^2
    with w = upper_fractions, the values of a result that `evolve` formed
    with weights=sector.upper_fractions.  A result with other weights
    raises ValueError.
    """
    if not np.array_equal(result.weights, sector.upper_fractions):
        raise ValueError("the result holds sum_j w_j |psi_j|^2 for weights other than "
                         "the sector's upper_fractions")
    return OscillationTrace(times=result.times, values=result.values)
