"""Time-scale extraction from occupation traces and one-period spectra.

Measurement conventions:

  * The collapse criterion is applied to the upper envelope of the trace,
    never to raw samples, because the raw occupation crosses the threshold
    every resonant cycle even without any damping.
  * "No collapse" and "no revival" are expected outcomes, reported as None;
    asking for a period of a trace that never oscillates is a usage error
    and raises.

Crests of the trace and the revival peak of its envelope are found with
scipy.signal's definitions (find_peaks with wlen=None, and peak_widths at
rel_height=0.5), computed here with numpy so that a run never imports
scipy.signal, which loads scipy.stats.  The oracle test in
tests/test_analysis.py checks them against scipy sample for sample:

  * Crest: a local maximum, i.e. a strict rise, a flat or single-sample top,
    then a strict fall.  A plateau reports its midpoint (left + right) // 2,
    so the first and last samples never qualify.
  * Prominence: on each side, the base is the lowest sample before the first
    sample higher than the crest; ties go to the sample nearest the crest.
    The prominence is the crest height minus the higher of the two bases.
  * FWHM: from the crest towards each base while the samples stay above
    height - prominence/2, then linear interpolation between the last sample
    above that level and the first one below it.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import collapse_from_revival

__all__ = [
    "COLLAPSE_THRESHOLD",
    "OscillationTrace",
    "SpectralRevival",
    "upper_envelope",
    "collapse_time",
    "revival_time",
    "spectral_revival_estimate",
    "cluster_weights",
    "coefficient_width",
    "initial_period",
    "build_revival_report",
]

# envelope value at which the oscillation counts as collapsed:
# (max + mean)/2 fallen to 1/e above the mean, i.e. 1/2 + 1/(2e)
COLLAPSE_THRESHOLD = 0.5 + 0.5 / math.e

# envelope prominence a revival peak must have over the post-collapse plateau
REVIVAL_PROMINENCE = 0.05

# neighbour spacing up to which quasi-energies count as one degenerate cluster
CLUSTER_TOL = 1e-10


@dataclass(frozen=True)
class OscillationTrace:
    """Sampled upper-band occupation N_b(t)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times and values must be 1-D arrays of equal length")
        if t.size >= 2 and not np.all(np.diff(t) > 0):
            raise ValueError("sample times must be strictly increasing")
        if v.size and (v.min() < -1e-9 or v.max() > 1.0 + 1e-9):
            raise ValueError(f"occupations outside [0, 1]: range [{v.min()}, {v.max()}]")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def span(self) -> float:
        return float(self.times[-1] - self.times[0])


def upper_envelope(trace: OscillationTrace, window: float) -> OscillationTrace:
    """Per-window maxima of the trace, placed at the window centers.

    The window should be about one (measured) oscillation period so that
    every window contains a crest.  A trailing partial window is dropped:
    it cannot be guaranteed to contain a crest, and a spurious dip there
    would fake a collapse.  Values between centers are meant to be read by
    linear interpolation.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if trace.span < 3 * window:
        raise ValueError(
            f"trace spans {trace.span:g}, need at least 3 windows of {window:g} for an envelope"
        )
    t0 = trace.times[0]
    n_windows = int(math.floor(trace.span / window * (1 + 1e-12)))
    edges = t0 + window * np.arange(n_windows + 1)
    idx = np.searchsorted(trace.times, edges)
    held = np.flatnonzero(idx[1:] > idx[:-1])  # the windows that hold a sample
    # the sample after a held window is the first of the next held one, or past the last
    maxima = np.maximum.reduceat(trace.values[:idx[-1]], idx[held])
    return OscillationTrace(t0 + window * (held + 0.5), maxima)


class _Peak(NamedTuple):
    index: int
    prominence: float
    left_base: int
    right_base: int
    width: float  # full width at half prominence, in samples


def _find_peaks(v: np.ndarray, prominence: float) -> list[_Peak]:
    """Local maxima of v whose prominence is at least `prominence`, in order.

    Crest, prominence and width are defined in the module docstring.
    """
    steps = np.flatnonzero(np.diff(v))  # k with v[k + 1] != v[k]
    rise = v[steps + 1] > v[steps]
    tops = np.flatnonzero(rise[:-1] & ~rise[1:])
    peaks = []
    for p in (steps[tops] + 1 + steps[tops + 1]) // 2:
        sides = []
        for seg in (v[p::-1], v[p:]):  # each side, starting at the peak
            n = 16  # widen the search as needed: the cost follows the distance scanned
            while n < seg.size and not (seg[:n] > v[p]).any():
                n *= 16
            higher = np.flatnonzero(seg[:n] > v[p])
            seg = seg[:higher[0]] if higher.size else seg
            sides.append((seg, int(np.argmin(seg))))  # first minimum: nearest the peak
        prom = v[p] - max(seg[b] for seg, b in sides)
        if not prom >= prominence:
            continue
        half = v[p] - prom * 0.5
        ends = []
        for seg, b in sides:
            below = np.flatnonzero(seg[:b] <= half)
            j = int(below[0]) if below.size else b
            ends.append((j, (half - seg[j]) / (seg[j - 1] - seg[j]) if seg[j] < half else 0.0))
        (jl, fl), (jr, fr) = ends
        width = (float(p + jr) - fr) - (float(p - jl) + fl)
        peaks.append(_Peak(int(p), float(prom), int(p) - sides[0][1], int(p) + sides[1][1],
                           float(width)))
    return peaks


def initial_period(trace: OscillationTrace) -> float:
    """Resonant period measured from the first four oscillation crests.

    Collapse distorts the late-time crest spacing, so the envelope window of
    a collapsing trace must be measured where the oscillation is still
    coherent.  A crest must have a prominence of a quarter of the value
    range, which rejects the small off-resonant wiggles riding on the
    resonant oscillation; its time is parabolically refined.  The median
    spacing is used so that a deep collapse between early crests cannot
    drag the estimate.  Raises if fewer than two maxima qualify.
    """
    v = trace.values
    spread = float(v.max() - v.min()) if v.size else 0.0
    if spread <= 0:
        raise ValueError("trace is constant; period undefined")
    crests = [_refine_peak(trace.times, v, peak.index) for peak in _find_peaks(v, 0.25 * spread)]
    if len(crests) < 2:
        raise ValueError(f"found {len(crests)} qualifying maxima; need at least 2 for a period")
    spacings = sorted(np.diff(crests[:4]).tolist())
    half = len(spacings) // 2
    if len(spacings) % 2:
        return spacings[half]
    return (spacings[half - 1] + spacings[half]) / 2  # np.median's mean, without numpy.ma


def _refine_peak(times, values, p) -> float:
    """Vertex of the parabola through the three samples around index p.

    p is a local maximum from _find_peaks, which needs a sample on each side
    (a strict rise before it and a strict fall after it), so p is never the
    first or the last index.
    """
    t = times[p - 1:p + 2].astype(float)
    y = values[p - 1:p + 2].astype(float)
    denom = (y[0] - 2.0 * y[1] + y[2])
    if denom >= 0.0:  # flat or corrupted neighbourhood; keep the sample
        return float(t[1])
    # uniform or nearly uniform spacing is assumed within one sample triplet
    h = 0.5 * (t[2] - t[0])
    return float(t[1] + 0.5 * h * (y[0] - y[2]) / denom)


def collapse_time(trace: OscillationTrace, window: float) -> float | None:
    """First time the upper envelope falls through COLLAPSE_THRESHOLD.

    The envelope window should be the resonant period measured from the
    initial crests, `initial_period` (the interaction shifts the period
    slightly, so the analytic value is not used).  Returns None when the
    envelope never collapses.  Raises if the envelope never exceeds the
    threshold in the first place, i.e. the trace never oscillated and
    "collapse" is meaningless.
    """
    env = upper_envelope(trace, window)
    v, t = env.values, env.times
    if v[0] <= COLLAPSE_THRESHOLD:
        raise ValueError(
            f"initial envelope {v[0]:.4f} does not exceed the collapse threshold "
            f"{COLLAPSE_THRESHOLD:.4f}; the trace never oscillated"
        )
    below = np.nonzero(v <= COLLAPSE_THRESHOLD)[0]
    if below.size == 0:
        return None
    k = int(below[0])
    # linear interpolation between the bracketing envelope samples
    frac = (v[k - 1] - COLLAPSE_THRESHOLD) / (v[k - 1] - v[k])
    return float(t[k - 1] + frac * (t[k] - t[k - 1]))


def revival_time(trace: OscillationTrace, t_coll: float,
                 window: float) -> tuple[float, float] | None:
    """Time and FWHM of the first envelope maximum after the collapse.

    The maximum must stand out from the post-collapse plateau by
    REVIVAL_PROMINENCE; its time is the envelope sample time (window center) of
    the peak.  Returns (t_rev, fwhm) or None when no qualifying maximum
    exists (monotone decay, trace too short, ...).
    """
    env = upper_envelope(trace, window)
    sel = env.times > t_coll
    t, v = env.times[sel], env.values[sel]
    if t.size < 3:
        return None
    peaks = _find_peaks(v, REVIVAL_PROMINENCE)
    if not peaks:
        return None
    return float(t[peaks[0].index]), peaks[0].width * window


@dataclass(frozen=True)
class SpectralRevival:
    """Quasi-energy gaps of the three dominant clusters and the beat time."""

    omega_12: float
    omega_23: float
    t_rev: float  # 2*pi / |omega_23 - omega_12|; inf when the gaps are equal


def _nearest_image(eps, anchor, period):
    """Representative of eps (defined modulo period) closest to anchor."""
    return eps - period * np.round((eps - anchor) / period)


def spectral_revival_estimate(spectrum) -> SpectralRevival:
    """Revival time from the beat of the three heaviest quasi-energy clusters.

    Weights are aggregated over numerically degenerate clusters
    (`cluster_weights`), because single coefficients inside a cluster depend
    on the basis chosen there.  The three cluster energies are unwrapped
    across the folding boundary to mutually nearest images, sorted, and the
    difference of neighbouring gaps gives the beat period
    2*pi/|omega_23 - omega_12|.  An equally spaced triplet, to within 1e-12,
    beats forever (infinite estimate).
    """
    energies, weights = cluster_weights(spectrum)
    if np.count_nonzero(weights > 1e-24) < 3:
        raise ValueError("need at least 3 nonzero cluster weights for a spectral estimate")
    top = np.argsort(weights, kind="stable")[-3:]
    eps = energies[top]
    period = spectrum.force
    anchor = eps[np.argmax(weights[top])]
    eps = np.sort(_nearest_image(eps, anchor, period))
    omega_12 = float(eps[1] - eps[0])
    omega_23 = float(eps[2] - eps[1])
    beat = abs(omega_23 - omega_12)
    t_rev = 2.0 * math.pi / beat if beat >= 1e-12 else math.inf
    return SpectralRevival(omega_12=omega_12, omega_23=omega_23, t_rev=t_rev)


def cluster_weights(spectrum):
    """Aggregate |c_n|^2 over numerically degenerate quasi-energy clusters.

    Without interactions the quasi-energies of states with different
    occupation patterns are exactly degenerate, and any orthonormal basis of
    a degenerate cluster is as good as any other; individual coefficients
    are then basis-dependent while the per-cluster weight is physical.
    Returns (energies, weights) sorted by energy, where each energy is the
    weight-averaged quasi-energy of its cluster.  Clusters are groups with
    neighbour spacing <= CLUSTER_TOL, including across the folding boundary.
    """
    eps = np.asarray(spectrum.quasi_energies, dtype=float)
    w = np.abs(np.asarray(spectrum.coefficients)) ** 2
    order = np.argsort(eps, kind="stable")
    eps, w = eps[order], w[order]
    period = spectrum.force

    groups = [[0]]
    for k in range(1, eps.size):
        if eps[k] - eps[k - 1] <= CLUSTER_TOL:
            groups[-1].append(k)
        else:
            groups.append([k])
    # the fold boundary can split one physical cluster in two
    if len(groups) > 1 and (eps[groups[0][0]] + period) - eps[groups[-1][-1]] <= CLUSTER_TOL:
        first = groups.pop(0)
        eps = eps.copy()
        eps[first] += period
        groups[-1].extend(first)

    energies, weights = [], []
    for grp in groups:
        total = float(w[grp].sum())
        e = float((eps[grp] * w[grp]).sum() / total) if total > 0 else float(eps[grp].mean())
        if e >= period / 2:  # refold a merged boundary cluster
            e -= period
        energies.append(e)
        weights.append(total)
    order = np.argsort(energies)
    return np.asarray(energies)[order], np.asarray(weights)[order]


def coefficient_width(spectrum) -> float | None:
    """Width of the coefficient distribution over the quasi-energy ladder.

    The significant coefficients (|c_n|^2 > 1e-4) of a resonant run
    sit on a ladder of spacing ~ Omega_res; each is assigned its nearest
    rung index k and the |c_n|^2-weighted standard deviation of k is
    returned.  The spacing is the gap between the two largest coefficients,
    unwrapped across the folding boundary.  Returns None when no ladder is
    identifiable (those two are degenerate, so the spacing vanishes).
    """
    w = np.abs(np.asarray(spectrum.coefficients)) ** 2
    eps = np.asarray(spectrum.quasi_energies)
    period = spectrum.force
    sig = np.nonzero(w > 1e-4)[0]
    if sig.size == 0:
        return None
    if sig.size == 1:
        return 0.0
    order = sig[np.argsort(w[sig], kind="stable")][::-1]  # by weight, descending
    anchor = eps[order[0]]
    eps_sig = _nearest_image(eps[sig], anchor, period)
    spacing = abs(_nearest_image(eps[order[1]], anchor, period) - anchor)
    if not spacing > 1e-12:
        return None
    rungs = np.round((eps_sig - anchor) / spacing)
    weights = w[sig] / w[sig].sum()
    mean = float(weights @ rungs)
    var = float(weights @ (rungs - mean) ** 2)
    return math.sqrt(max(var, 0.0))


def build_revival_report(trace: OscillationTrace, spectrum, t_rev_universal: float | None) -> dict:
    """Measured and predicted collapse and revival scales of one run, in output order.

    Each time is given in absolute units and, under its `_tb` key, in Bloch
    periods.  The effective model's collapse time t_rev_universal/(pi
    delta_n^2) is None without a universal estimate or when a single
    coefficient participates (delta_n = 0): such a state never dephases.
    """
    window = initial_period(trace)
    t_coll = collapse_time(trace, window)
    t_rev = fwhm = None
    if t_coll is not None:
        rev = revival_time(trace, t_coll, window)
        if rev is not None:
            t_rev, fwhm = rev
    try:
        spectral = spectral_revival_estimate(spectrum)
        t_rev_spectral = spectral.t_rev if math.isfinite(spectral.t_rev) else None
        omega_12, omega_23 = spectral.omega_12, spectral.omega_23
    except ValueError:  # fewer than three participating clusters
        t_rev_spectral = omega_12 = omega_23 = None
    delta_n = coefficient_width(spectrum)
    record = {
        "t_coll_measured": t_coll,
        "t_coll_predicted": (collapse_from_revival(t_rev_universal, delta_n)
                             if t_rev_universal is not None and delta_n else None),
        "t_rev_measured": t_rev,
        "t_rev_universal": t_rev_universal,  # closed form 4*pi/(g Wx J0^2 J0^2)
        "t_rev_spectral": t_rev_spectral,    # three-cluster beat
        "omega_12": omega_12,
        "omega_23": omega_23,
        "delta_n": delta_n,
        "ratio": t_rev / t_coll if (t_rev is not None and t_coll) else None,
        "revival_fwhm": fwhm,
    }
    tb = spectrum.t_bloch
    for key in ("t_coll_measured", "t_rev_measured", "t_rev_universal",
                "t_rev_spectral", "revival_fwhm"):
        record[key + "_tb"] = record[key] / tb if record[key] is not None else None
    record["t_bloch"] = tb
    record["unitarity_defect"] = spectrum.unitarity_defect
    return record
