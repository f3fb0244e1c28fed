"""Time evolution under the periodically driven sector Hamiltonian.

Two complementary routes, mirroring how the dynamics is usually computed:
direct adaptive Runge-Kutta integration of i d/dt psi = H(t) psi for
sub-period detail, and the eigenbasis of the one-period propagator for
stroboscopic long-time observables (collapse and revival live at thousands
of Bloch periods, far beyond what direct integration should be asked to do).

Both integrate i dW/dt = HamiltonianParts.apply(t, W) for W = e^{iDt} psi,
in the frame of the static diagonal D (band gap and interactions, the
largest entries of H), so the integrator steps only through the couplings;
the diagonal phases into and out of the frame are exact.  The propagator
is integrated over T_B/(2d), d = gcd(N, L): a boost of the ring shifts
H(t) by T_B/d, and time reversal (h_static and h_hop are real in the kappa = 0
basis) halves that span.  The resulting U is complex symmetric, so its
eigenbasis comes from one real symmetric eigh.

Memory stays within a few copies of U: the propagator is integrated in
chunks of columns, and the stroboscopic trace in short blocks of periods.
"""

import gc
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh

from .analysis import OscillationTrace
from .fock import SymmetrySector
from .hamiltonian import HamiltonianParts

__all__ = [
    "NumericalError",
    "WaveFunction",
    "EvolutionResult",
    "FloquetSpectrum",
    "evolve",
    "floquet_operator",
    "diagonalize_floquet",
    "stroboscopic_occupations",
    "occupation_series",
    "DEFAULT_RTOL",
    "DEFAULT_ATOL",
]

# Integration error dominates both the unitarity-defect budget (1e-8) and
# the norm-drift budget (1e-8 per 1e3 Bloch periods).  Measured on the
# dim-402 reference system, DOP853 needs 1e-12 to hold the drift budget
# (1e-11 gives ~5e-8 per 1e3 periods); the one-period defect of
# floquet_operator is then ~1.3e-11 (g = 0.2).
DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-12
# floquet_operator integrates U in chunks of FLOQUET_CHUNK columns.  Its peak
# is estimated as FLOQUET_WORKING_COPIES dim x dim complex arrays (U, Y, the
# products of (Y^T Phi Y)^d and the unitarity check) plus FLOQUET_CHUNK_COPIES
# dim x FLOQUET_CHUNK ones (DOP853's stages and the steps solve_ivp keeps).
FLOQUET_CHUNK = 64
FLOQUET_WORKING_COPIES = 8
FLOQUET_CHUNK_COPIES = 64
# diagonalize_floquet: the weight of Im U in its eigh (irrational, so no rational
# symmetry of the spectrum makes eigenvalues collide) and the eigenpair residual budget.
EIGEN_MIX = (math.sqrt(5.0) - 1.0) / 2.0
EIGEN_RESIDUAL_BUDGET = 1e-8


class NumericalError(RuntimeError):
    """Integration failure or a propagator that failed its quality checks."""


@dataclass(frozen=True)
class WaveFunction:
    """Complex coordinate vector in the kappa = 0 basis at a given time."""

    coords: np.ndarray
    time: float = 0.0

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))


@dataclass(frozen=True)
class EvolutionResult:
    """Sampled snapshots of a direct integration plus its final norm drift."""

    snapshots: list
    norm_drift: float

    def __iter__(self):
        return iter(self.snapshots)

    def __len__(self):
        return len(self.snapshots)


@dataclass(frozen=True)
class FloquetSpectrum:
    """Eigen-decomposition of the one-period propagator.

    quasi_energies are folded to [-F/2, F/2) and sorted ascending;
    eigen_vectors holds the matching real orthonormal columns; coefficients are
    the overlaps of those columns with the designated initial state.  Within
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


def _coords_of(psi0) -> np.ndarray:
    coords = psi0.coords if isinstance(psi0, WaveFunction) else np.asarray(psi0)
    return np.asarray(coords, dtype=complex)


def _integrate(rhs, y0, t0, t1, t_eval, rtol, atol, method):
    sol = solve_ivp(
        rhs, (t0, t1), y0, method=method, rtol=rtol, atol=atol,
        t_eval=t_eval, dense_output=False,
    )
    if not sol.success:
        raise NumericalError(f"time integration failed: {sol.message}")
    return sol


def evolve(
    psi0,
    parts: HamiltonianParts,
    t_final: float,
    *,
    sample_every: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    method: str = "DOP853",
) -> EvolutionResult:
    """Integrate i d/dt psi = H(t) psi and sample every `sample_every`.

    psi0 may be a WaveFunction (evolution starts at its time stamp) or a
    bare coordinate vector (starts at t = 0).  The returned snapshots always
    include the initial and final times.  The integration runs on
    W = e^{iDt} psi (see the module docstring); the snapshots are lab-frame
    states, views into one array that is rephased column by column in place.
    """
    t0 = psi0.time if isinstance(psi0, WaveFunction) else 0.0
    if t_final <= t0:
        raise ValueError(f"t_final={t_final} must exceed the initial time {t0}")
    if sample_every <= 0:
        raise ValueError(f"sample_every must be positive, got {sample_every}")
    coords = _coords_of(psi0)
    if coords.shape != (parts.basis_dim,):
        raise ValueError(f"state has dimension {coords.shape}, expected ({parts.basis_dim},)")

    n = int(math.floor((t_final - t0) / sample_every + 1e-9))
    times = t0 + sample_every * np.arange(n + 1)
    if times[-1] < t_final - 1e-9 * sample_every:
        times = np.append(times, t_final)
    times[-1] = min(times[-1], t_final)

    def rhs(t, y):
        return -1j * parts.apply(t, y)

    d = parts.frame
    sol = _integrate(rhs, np.exp(1j * t0 * d) * coords, t0, t_final, times, rtol, atol, method)
    for k, t in enumerate(sol.t):
        sol.y[:, k] *= np.exp(-1j * t * d)
    snapshots = [WaveFunction(sol.y[:, k], float(sol.t[k])) for k in range(sol.t.size)]
    drift = abs(snapshots[-1].norm - np.linalg.norm(coords))
    return EvolutionResult(snapshots=snapshots, norm_drift=float(drift))


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def floquet_operator(
    parts: HamiltonianParts,
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    method: str = "DOP853",
    max_defect: float = 1e-6,
) -> np.ndarray:
    """One-period propagator U(T_B) = (Y^T Phi Y)^d, from the matrix ODE over
    [0, T_B/(2d)] in the frame of the static diagonal, d = parts.boost_order.

    Frame: with D = diag(h_static), W(t) = e^{iDt} U(t) obeys
    i dW/dt = apply(t, W) from W(0) = 1, and U(t) = e^{-iDt} W(t).

    Symmetry: Phi = diag(exp(-2 pi i boost_charge / d)) = B^(-L/d) gives
    conj(Phi) H(t) Phi = H(t + T_B/d), and real h_static and h_hop give
    U(-t) = U(t)*, so U(T_B/d) = conj(Phi) Y^T Phi Y with Y = U(T_B/(2d)).
    Complex blocks, or blocks that do not carry the charges (h_static keeps
    S mod d, h_hop raises it by one), raise ValueError.

    Memory: the columns of W are independent, so they are integrated
    FLOQUET_CHUNK at a time, each chunk from the matching columns of the
    identity with its own adaptive steps and the same rtol and atol, into
    one preallocated dim x dim array.  A finished scipy solver is a
    reference cycle (it keeps a closure over itself), so its stage arrays
    would outlive the chunk until the cyclic collector ran; a collection
    of the youngest generation after each chunk frees them.  ValueError is
    raised before any integration when the estimated working set exceeds
    the physical memory.  The unitarity defect max|U^dag U - 1| is checked
    against `max_defect`; a failure suggests tightening the tolerances.
    """
    dim = parts.basis_dim
    need = 16 * dim * (FLOQUET_WORKING_COPIES * dim
                       + FLOQUET_CHUNK_COPIES * min(dim, FLOQUET_CHUNK))
    have = _physical_memory()
    if need > have:
        raise ValueError(f"the propagator at sector dimension {dim} needs about "
                         f"{need / 2**20:,.1f} MiB, more than the {have / 2**20:,.1f} MiB "
                         "of physical memory")
    order, charge = parts.boost_order, parts.boost_charge
    for name, step in (("h_static", 0), ("h_hop", 1)):
        block = getattr(parts, name).tocoo()
        if np.any(block.data.imag != 0.0):
            raise ValueError(f"{name} has complex entries; U(T_B) = (Y^T Phi Y)^d needs it real")
        if np.any((charge[block.row] - charge[block.col] - step) % order):
            raise ValueError(f"{name} breaks the boost symmetry of order {order}")

    half = 0.5 * parts.t_bloch / order
    y = np.empty((dim, dim), dtype=complex)
    for start in range(0, dim, FLOQUET_CHUNK):
        width = min(FLOQUET_CHUNK, dim - start)

        def rhs(t, w, width=width):
            return (-1j * parts.apply(t, w.reshape(dim, width))).ravel()

        w0 = np.zeros((dim, width), dtype=complex)
        w0[start:start + width] = np.eye(width)
        sol = _integrate(rhs, w0.ravel(), 0.0, half, None, rtol, atol, method)
        y[:, start:start + width] = sol.y[:, -1].reshape(dim, width)
        del sol
        gc.collect(0)
    y *= np.exp(-1j * half * parts.frame)[:, None]
    phi = np.exp(-2j * math.pi * charge / order)
    u = np.linalg.matrix_power(y.T @ (phi[:, None] * y), order)
    defect = float(np.abs(u.conj().T @ u - np.eye(dim)).max())
    if defect > max_defect:
        raise NumericalError(f"one-period propagator defect {defect:.3e} exceeds "
                             f"{max_defect:.1e}; tighten rtol/atol")
    return u


def diagonalize_floquet(u: np.ndarray, t_bloch: float, psi0) -> FloquetSpectrum:
    """Quasi-energies, orthonormal eigenvectors and initial-state overlaps.

    U from `floquet_operator` is complex symmetric and unitary, so Re U and
    Im U commute and share a real orthonormal eigenbasis: that of the eigh
    (divide and conquer) of Re U + mu Im U, mu = EIGEN_MIX, with
    lambda_j = v_j^T U v_j.  Eigenvalues with equal cos(phi) + mu sin(phi)
    would mix; the residual max|UV - V Lambda| catches that, and a U that is
    not symmetric, with NumericalError above EIGEN_RESIDUAL_BUDGET.
    Quasi-energies are -arg(lambda)/T_B, landing in [-F/2, F/2).
    """
    dim = u.shape[0]
    defect = float(np.abs(u.conj().T @ u - np.eye(dim)).max())
    _, vectors = eigh(u.real + EIGEN_MIX * u.imag, driver="evd")
    uv = u @ vectors
    lam = np.einsum("ij,ij->j", vectors, uv)
    residual = float(np.abs(uv - vectors * lam).max())
    if residual > EIGEN_RESIDUAL_BUDGET:
        raise NumericalError(f"Floquet eigenvector residual {residual:.3e} exceeds "
                             f"{EIGEN_RESIDUAL_BUDGET:.0e}")
    eps = -np.angle(lam) / t_bloch
    order = np.argsort(eps, kind="stable")
    vectors = vectors[:, order]
    coeffs = vectors.T @ _coords_of(psi0)
    return FloquetSpectrum(
        quasi_energies=eps[order],
        eigen_vectors=vectors,
        coefficients=coeffs,
        unitarity_defect=defect,
        t_bloch=t_bloch,
    )


def stroboscopic_occupations(
    spectrum: FloquetSpectrum,
    sector: SymmetrySector,
    n_periods: int,
    every: int = 1,
    meta: dict | None = None,
) -> OscillationTrace:
    """Upper-band occupation N_b at t = 0, every*T_B, ..., n_periods*T_B."""
    if spectrum.dim != sector.dim:
        raise ValueError(f"spectrum dimension {spectrum.dim} does not match sector {sector.dim}")
    w = sector.upper_fractions
    ms = np.arange(0, n_periods + 1, every)
    values = np.empty(ms.size)
    vt = spectrum.eigen_vectors.T
    # periods per block: about 100,000 phases, so its temporaries take a few MB
    chunk = max(1, 100_000 // max(1, spectrum.dim))
    for start in range(0, ms.size, chunk):
        block = ms[start:start + chunk]
        phases = np.exp(
            -1j * np.outer(block * spectrum.t_bloch, spectrum.quasi_energies)
        ) * spectrum.coefficients
        values[start:start + chunk] = ((phases.real @ vt) ** 2 + (phases.imag @ vt) ** 2) @ w
    return OscillationTrace(times=ms * spectrum.t_bloch, values=values, meta=dict(meta or {}))


def occupation_series(source, sector: SymmetrySector, meta: dict | None = None) -> OscillationTrace:
    """N_b(t) = (1/N) sum_l <n_l^b> from evolution snapshots.

    `source` is an EvolutionResult or any iterable of WaveFunctions.  The
    observable is diagonal in sector coordinates because the total
    upper-band number is translation invariant.
    """
    snapshots = list(source)
    if not snapshots:
        raise ValueError("no snapshots to analyse")
    w = sector.upper_fractions
    times = np.array([s.time for s in snapshots])
    values = np.array([float((np.abs(s.coords) ** 2) @ w) for s in snapshots])
    return OscillationTrace(times=times, values=values, meta=dict(meta or {}))
