"""Trace measurements on synthetic signals with analytically known answers."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import starkband as sb
from starkband.analysis import OscillationTrace, _find_peaks, _refine_peak


def _trace(times, values):
    return OscillationTrace(np.asarray(times, float), np.asarray(values, float))


def test_trace_validation():
    with pytest.raises(ValueError):
        _trace([0.0, 1.0, 1.0], [0.1, 0.2, 0.3])   # not strictly increasing
    with pytest.raises(ValueError):
        _trace([0.0, 1.0], [0.5, 1.5])             # occupation above 1
    tr = _trace([0.0, 1.0], [0.0, 1.0])
    assert tr.span == 1.0


def test_envelope_constant_trace():
    t = np.linspace(0.0, 10.0, 1001)
    env = sb.upper_envelope(_trace(t, np.full_like(t, 0.37)), window=1.0)
    assert np.all(env.values == 0.37)
    assert env.times.size == 10


def test_envelope_sine_squared():
    omega = 2 * math.pi
    t = np.linspace(0.0, 20.0, 20001)
    env = sb.upper_envelope(_trace(t, np.sin(0.5 * omega * t) ** 2), window=2 * math.pi / omega)
    assert np.abs(env.values - 1.0).max() < 1e-3


def test_envelope_decaying_beat():
    omega, delta = 40.0, 0.5
    t = np.linspace(0.0, 12.0, 48001)
    values = 0.5 * (1 + np.cos(delta * t)) * np.sin(0.5 * omega * t) ** 2
    env = sb.upper_envelope(_trace(t, values), window=2 * math.pi / omega)
    expected = 0.5 * (1 + np.cos(delta * env.times))
    assert np.abs(env.values - expected).max() < 0.05


def test_envelope_errors():
    t = np.linspace(0.0, 2.0, 21)
    with pytest.raises(ValueError):
        sb.upper_envelope(_trace(t, np.zeros_like(t)), window=1.0)  # < 3 windows
    with pytest.raises(ValueError):
        sb.upper_envelope(_trace(t, np.zeros_like(t)), window=0.0)


def test_envelope_skips_windows_without_samples():
    # irregular samples with gaps wider than a window: each window that holds
    # a sample gives its maximum at its center, one that holds none gives
    # nothing, and the trailing partial window is dropped
    rng = np.random.default_rng(7)
    t = np.sort(rng.uniform(0.0, 40.0, 80))
    t = t[(t < 9.0) | (t > 13.5)]
    trace = _trace(t, rng.uniform(0.0, 1.0, t.size))
    window = 0.7
    env = sb.upper_envelope(trace, window)
    n_windows = int(math.floor(trace.span / window * (1 + 1e-12)))
    centers, maxima = [], []
    for k in range(n_windows):
        inside = (t >= t[0] + window * k) & (t < t[0] + window * (k + 1))
        if inside.any():
            centers.append(t[0] + window * (k + 0.5))
            maxima.append(trace.values[inside].max())
    assert len(centers) < n_windows - 6
    assert np.array_equal(env.times, centers)
    assert np.array_equal(env.values, maxima)


def test_initial_period_sine_squared():
    omega = 3.7
    t = np.linspace(0.0, 40.0, 8001)
    period = sb.initial_period(_trace(t, np.sin(0.5 * omega * t) ** 2))
    assert period == pytest.approx(2 * math.pi / omega, rel=5e-3)


def test_initial_period_is_numpys_median_of_the_first_spacings():
    # the middle of the sorted spacings of the first four crests, or the mean
    # of the two middle ones, has the bits of np.median for 1, 2 and 3 spacings
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 20.0, 4001)
    counts = set()
    for _ in range(60):
        centers = 1.0 + np.cumsum(rng.uniform(0.5, 3.0, rng.integers(2, 6)))
        values = 0.9 * sum(np.exp(-((t - c) / 0.1) ** 2) for c in centers)
        crests = [_refine_peak(t, values, peak.index)
                  for peak in _find_peaks(values, 0.25 * (values.max() - values.min()))]
        spacings = np.diff(crests[:4])
        counts.add(spacings.size)
        assert sb.initial_period(_trace(t, values)) == float(np.median(spacings))
    assert counts == {1, 2, 3}


def test_initial_period_undefined():
    t = np.linspace(0.0, 10.0, 101)
    with pytest.raises(ValueError):
        sb.initial_period(_trace(t, np.full_like(t, 0.2)))       # constant
    with pytest.raises(ValueError):
        sb.initial_period(_trace(t, np.sin(0.2 * t) ** 2))       # single maximum


def _oracle_traces(seed=7, per_kind=1000):
    """Seeded random, integer-valued (plateaus, ties) and rounded-sine traces."""
    rng = np.random.default_rng(seed)
    for _ in range(per_kind):
        yield rng.random(rng.integers(0, 61))
        yield rng.integers(0, 4, rng.integers(0, 61)).astype(float)
        n = rng.integers(0, 61)
        yield np.round(np.sin(rng.uniform(0.2, 2.0) * np.arange(n) + rng.uniform(0, 6)), 1)


def test_find_peaks_matches_scipy():
    from scipy.signal import find_peaks, peak_widths

    plateaus = 0
    for v in _oracle_traces():
        for prominence in (0, 0.05, 0.3, 1):
            want, props = find_peaks(v, prominence=prominence)
            got = np.array(_find_peaks(v, prominence), dtype=float).reshape(-1, 5).T
            assert np.array_equal(got[0], want)
            assert np.array_equal(got[1], props["prominences"])
            assert np.array_equal(got[2], props["left_bases"])
            assert np.array_equal(got[3], props["right_bases"])
            if want.size:
                assert np.array_equal(got[4], peak_widths(v, want, rel_height=0.5)[0])
            assert not np.isin(got[0], [0, v.size - 1]).any()
            plateaus += int(np.sum((v[want - 1] == v[want]) | (v[want + 1] == v[want])))
    assert plateaus > 0  # the integer traces did exercise flat tops


def test_initial_period_ignores_collapse_gap():
    # crest spacing stays 1 early on; the deep collapse erases mid-trace
    # crests, which must not drag the window estimate
    t = np.linspace(0.0, 40.0, 16001)
    amp = np.clip(1.0 - t / 8.0, 0.05, 1.0) + 0.45 * (t > 30)
    values = np.clip(amp, 0, 1) * np.sin(math.pi * t) ** 2
    period = sb.initial_period(_trace(t, values))
    assert period == pytest.approx(1.0, rel=0.02)


def test_collapse_time_synthetic_exponential():
    # envelope 1/2 + exp(-t)/2 crosses the threshold at exactly t = 1
    omega = 60.0
    t = np.linspace(0.0, 8.0, 64001)
    values = (0.5 + 0.5 * np.exp(-t)) * np.sin(0.5 * omega * t) ** 2
    t_coll = sb.collapse_time(_trace(t, values), window=2 * math.pi / omega)
    assert t_coll == pytest.approx(1.0, abs=0.15)


def test_collapse_time_none_without_damping():
    omega = 20.0
    t = np.linspace(0.0, 30.0, 30001)
    trace = _trace(t, np.sin(0.5 * omega * t) ** 2)
    assert sb.collapse_time(trace, sb.initial_period(trace)) is None


def test_collapse_time_never_oscillated():
    omega = 20.0
    t = np.linspace(0.0, 30.0, 30001)
    with pytest.raises(ValueError):
        sb.collapse_time(_trace(t, 0.3 * np.sin(0.5 * omega * t) ** 2),
                         window=2 * math.pi / omega)


def _beat_trace(omega=50.0, delta=0.25, t_end=30.0, n=120001):
    t = np.linspace(0.0, t_end, n)
    return _trace(t, 0.5 - 0.5 * np.cos(omega * t) * np.cos(delta * t))


def test_beat_collapse_and_revival():
    # envelope = 1/2 + |cos(delta t)|/2: collapse at arccos(1/e)/delta,
    # revival (envelope maximum) at pi/delta
    delta = 0.25
    trace = _beat_trace(delta=delta)
    window = 2 * math.pi / 50.0
    t_coll = sb.collapse_time(trace, window)
    assert t_coll == pytest.approx(math.acos(1 / math.e) / delta, abs=0.1)
    rev = sb.revival_time(trace, t_coll, window)
    assert rev is not None
    t_rev, fwhm = rev
    assert t_rev == pytest.approx(math.pi / delta, abs=0.2)
    assert fwhm > 0


def test_revival_none_for_monotone_decay():
    omega = 60.0
    t = np.linspace(0.0, 8.0, 64001)
    values = (0.5 + 0.5 * np.exp(-t)) * np.sin(0.5 * omega * t) ** 2
    window = 2 * math.pi / omega
    t_coll = sb.collapse_time(_trace(t, values), window)
    assert sb.revival_time(_trace(t, values), t_coll, window) is None


def test_time_shift_and_rescale_equivariance():
    delta = 0.25
    window = 2 * math.pi / 50.0
    base = _beat_trace(delta=delta)
    t_coll = sb.collapse_time(base, window)
    t_rev, _ = sb.revival_time(base, t_coll, window)

    shift = 3.0
    shifted = _trace(base.times + shift, base.values)
    t_coll_s = sb.collapse_time(shifted, window)
    t_rev_s, _ = sb.revival_time(shifted, t_coll_s, window)
    assert t_coll_s - t_coll == pytest.approx(shift, abs=2 * window)
    assert t_rev_s - t_rev == pytest.approx(shift, abs=2 * window)

    scale = 2.0
    scaled = _trace(base.times * scale, base.values)
    t_coll_r = sb.collapse_time(scaled, window * scale)
    t_rev_r, _ = sb.revival_time(scaled, t_coll_r, window * scale)
    assert t_coll_r == pytest.approx(scale * t_coll, abs=2 * scale * window)
    assert t_rev_r == pytest.approx(scale * t_rev, abs=2 * scale * window)


def _spectrum(eps, amps, force=10.0):
    eps = np.asarray(eps, float)
    amps = np.asarray(amps, complex)
    dim = eps.size
    return sb.FloquetSpectrum(
        quasi_energies=eps,
        eigen_vectors=np.eye(dim, dtype=complex),
        coefficients=amps,
        unitarity_defect=0.0,
        t_bloch=2 * math.pi / force,
    )


def test_spectral_estimate_direct():
    spec = _spectrum([0.0, 1.0, 2.1], [0.8, 0.5, 0.3])
    out = sb.spectral_revival_estimate(spec)
    assert (out.omega_12, out.omega_23) == (1.0, pytest.approx(1.1))
    assert out.t_rev == pytest.approx(2 * math.pi / 0.1, rel=1e-9)


def test_spectral_estimate_equal_spacing_diverges():
    out = sb.spectral_revival_estimate(_spectrum([0.0, 1.0, 2.0], [0.8, 0.5, 0.3]))
    assert math.isinf(out.t_rev)


def test_spectral_estimate_unwraps_fold_boundary():
    # true ladder 0.45, 0.55, 0.66 folded into [-0.5, 0.5) for F = 1
    spec = _spectrum([-0.45, -0.34, 0.45], [0.5, 0.3, 0.8], force=1.0)
    out = sb.spectral_revival_estimate(spec)
    assert out.omega_12 == pytest.approx(0.10, abs=1e-12)
    assert out.omega_23 == pytest.approx(0.11, abs=1e-12)
    assert out.t_rev == pytest.approx(2 * math.pi / 0.01, rel=1e-9)


def test_spectral_estimate_needs_three():
    with pytest.raises(ValueError):
        sb.spectral_revival_estimate(_spectrum([0.0, 1.0, 2.0], [0.8, 0.6, 0.0]))


def test_spectral_estimate_ignores_small_background():
    spec = _spectrum([0.0, 1.0, 2.1, 4.7], [0.8, 0.5, 0.3, 1e-7])
    out = sb.spectral_revival_estimate(spec)
    assert out.t_rev == pytest.approx(2 * math.pi / 0.1, rel=1e-9)


def test_spectral_estimate_uses_cluster_weights():
    # one cluster's weight split over two degenerate members, each now
    # smaller than the 0.3 coefficient of a third cluster
    whole = _spectrum([0.0, 1.0, 2.1, 3.5], [0.8, 0.5, 0.3, 0.25])
    split = _spectrum([0.0, 1.0, 1.0, 2.1, 3.5],
                      [0.8, 0.5 * math.sqrt(0.5), 0.5j * math.sqrt(0.5), 0.3, 0.25])
    want = sb.spectral_revival_estimate(whole)
    out = sb.spectral_revival_estimate(split)
    assert want.t_rev == pytest.approx(2 * math.pi / 0.1, rel=1e-9)
    assert out.t_rev == pytest.approx(want.t_rev, rel=1e-12)


def test_coefficient_width_two_equal_rungs():
    spec = _spectrum([0.0, 0.01], [math.sqrt(0.5), math.sqrt(0.5)])
    assert sb.coefficient_width(spec) == pytest.approx(0.5, rel=1e-12)


def test_coefficient_width_single_coefficient():
    spec = _spectrum([0.0, 1.0], [1.0, 1e-4])
    assert sb.coefficient_width(spec) == 0.0


def test_coefficient_width_explicit_spacing():
    # weights 0.5, 0.3, 0.2 on rungs 0, 1, 2 of the spacing 0.0102 between
    # the two heaviest, which the third sits off by 0.0005
    spec = _spectrum([0.0, 0.0102, 0.0199],
                     [math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2)])
    dn = sb.coefficient_width(spec)
    mean = 0.3 + 0.4
    var = 0.5 * mean**2 + 0.3 * (1 - mean) ** 2 + 0.2 * (2 - mean) ** 2
    assert dn == pytest.approx(math.sqrt(var), rel=1e-12)


def test_coefficient_width_undefined_for_degenerate_ladder():
    spec = _spectrum([0.0, 0.0], [math.sqrt(0.5), math.sqrt(0.5)])
    assert sb.coefficient_width(spec) is None


def test_cluster_weights_groups_degenerate_levels():
    spec = _spectrum([0.0, 1e-12, 0.5, 0.5 + 5e-13], [0.5, 0.5, 0.5, 0.5])
    energies, weights = sb.cluster_weights(spec)
    assert energies.size == 2
    assert np.allclose(weights, [0.5, 0.5])


def test_cluster_weights_merges_across_fold_boundary():
    # one physical cluster split by the fold at +-F/2 = +-5
    spec = _spectrum([-5.0 + 2e-13, 1.0, 5.0 - 2e-13], [0.6, 0.5, 0.6], force=10.0)
    energies, weights = sb.cluster_weights(spec)
    assert energies.size == 2
    assert weights.max() == pytest.approx(0.72, rel=1e-12)


def test_build_revival_report_on_beat():
    delta, omega = 0.25, 50.0
    trace = _beat_trace(delta=delta, omega=omega)
    # spectral side: dominant triplet with gaps omega +- delta reproduces the
    # cos(omega t) cos(delta t) beat
    spec = _spectrum([0.0, omega - delta, 2 * omega],
                     [math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2)], force=500.0)
    report = sb.build_revival_report(trace, spec, t_rev_universal=math.pi / delta)
    assert report["t_coll_measured"] == pytest.approx(math.acos(1 / math.e) / delta, abs=0.1)
    assert report["t_rev_measured"] == pytest.approx(math.pi / delta, abs=0.2)
    assert report["t_rev_measured"] > report["t_coll_measured"]
    assert report["ratio"] == pytest.approx(
        report["t_rev_measured"] / report["t_coll_measured"], rel=1e-12)
    assert report["t_rev_spectral"] == pytest.approx(2 * math.pi / (2 * delta), rel=1e-9)
    assert report["t_bloch"] == spec.t_bloch
    for key in ("t_coll_measured", "t_rev_measured", "t_rev_universal",
                "t_rev_spectral", "revival_fwhm"):
        assert report[key + "_tb"] == report[key] / spec.t_bloch
    # the record is the revival-report output, in its order, less the run's fingerprint
    golden = json.loads((Path(__file__).parent / "golden" / "revival_report.json").read_text())
    assert list(report) == [key for key in golden if key != "fingerprint"]


def test_build_revival_report_single_coefficient():
    # one participating coefficient never dephases: no width, no predicted collapse,
    # and too few clusters for a spectral beat
    trace = _beat_trace()
    spec = _spectrum([0.0, 1.0, 2.0], [1.0, 0.0, 0.0])
    report = sb.build_revival_report(trace, spec, t_rev_universal=4 * math.pi)
    assert report["delta_n"] == 0.0
    assert report["t_coll_predicted"] is None
    assert report["t_rev_spectral"] is None and report["omega_12"] is None
    assert report["t_rev_universal_tb"] == 4 * math.pi / spec.t_bloch
