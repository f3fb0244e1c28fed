"""Parameter records, derived scales, and the closed-form predictions."""

import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

import starkband as sb


def test_preset_v0_4_values():
    p = sb.preset_v0_4()
    assert (p.delta, p.c0) == (4.39, -0.15)
    assert (p.t_a, p.t_b) == (0.062, 0.62)
    assert (p.w_a, p.w_b, p.w_x) == (0.030, 0.018, 0.012)
    assert (p.n_particles, p.n_sites) == (5, 5)
    assert p.force == 2.2207
    assert p.g == 0.0
    assert sb.preset_v0_4(0.1).g == 0.1


def test_preset_derived_scales():
    p = sb.preset_v0_4()
    assert p.t_bloch == pytest.approx(2 * math.pi / 2.2207, rel=1e-14)      # ~2.8293
    assert (p.x_a, p.x_b) == (0.062 / 2.2207, 0.62 / 2.2207)
    assert p.delta_x == pytest.approx(0.682 / 2.2207, rel=1e-14)            # ~0.30711
    assert p.delta_tilde == pytest.approx(4.440263028706745, rel=1e-12)
    assert p.delta_tilde >= p.delta


@pytest.mark.parametrize("bad", [
    dict(delta=0.0), dict(delta=-1.0), dict(force=0.0), dict(t_a=0.0), dict(t_b=-0.1),
    dict(w_a=-0.01), dict(w_x=-1.0), dict(g=-0.1), dict(n_particles=0), dict(n_sites=0),
    # wrong types: non-numbers, bools, non-finite values, non-integer counts
    dict(force="2.2"), dict(delta=None), dict(g=True), dict(c0=float("nan")),
    dict(force=math.inf), dict(n_particles=3.0), dict(n_sites=True), dict(n_sites="5"),
])
def test_params_validation(bad):
    base = dict(delta=4.39, c0=-0.15, t_a=0.062, t_b=0.62, w_a=0.030, w_b=0.018,
                w_x=0.012, g=0.0, force=2.2207, n_particles=5, n_sites=5)
    with pytest.raises(ValueError):
        sb.ModelParams(**{**base, **bad})


def test_params_accept_numpy_scalars():
    p = replace(sb.preset_v0_4(), force=np.float64(2.2207), n_sites=np.int64(5))
    assert p == sb.preset_v0_4()


def test_resonant_force():
    # closed form F = delta / sqrt(r^2 - 4 c0^2)
    assert sb.resonant_force(4.39, -0.15, 2) == pytest.approx(2.220118427292122, rel=1e-12)
    assert sb.resonant_force(1.0, 0.0, 1) == 1.0
    assert sb.resonant_force(4.39, -0.15, 1) == pytest.approx(4.601970433209221, rel=1e-12)
    with pytest.raises(ValueError):
        sb.resonant_force(4.39, -0.6, 1)  # r <= 2|c0|
    with pytest.raises(ValueError):
        sb.resonant_force(4.39, -0.15, 0)


def test_resonant_force_matches_dressed_gap():
    # after solving, delta_tilde / F = r to machine precision
    for r in (1, 2, 3):
        f = sb.resonant_force(4.39, -0.15, r)
        p = sb.preset_v0_4().with_force(f)
        assert p.delta_tilde / f == pytest.approx(r, rel=1e-14)


def test_rabi_occupation():
    p = sb.preset_v0_4()
    assert sb.rabi_occupation(0.0, p) == 0.0
    # amplitude at the half period: 4 c0^2 F^2 / delta_tilde^2, the exact 2x2 value
    amp = sb.rabi_occupation(math.pi / p.delta_tilde, p)
    assert amp == pytest.approx(0.0225115241503355, rel=1e-12)
    assert sb.rabi_occupation(2 * math.pi / p.delta_tilde, p) == pytest.approx(0.0, abs=1e-12)


def _upper_occupation(h, start, upper, times):
    """Population on the `upper` indices of exp(-iht) e_start, by diagonalizing h."""
    energies, vectors = np.linalg.eigh(h)
    psi = (np.exp(-1j * np.outer(times, energies)) * vectors[start]) @ vectors.T
    return (np.abs(psi[:, upper]) ** 2).sum(axis=1)


def test_rabi_matches_exact_two_by_two():
    # oracle: the bare on-site pair [[-delta/2, c0 F], [c0 F, +delta/2]]
    p = sb.preset_v0_4()
    cf = p.c0 * p.force
    h = np.array([[-0.5 * p.delta, cf], [cf, 0.5 * p.delta]])
    t = np.linspace(0.0, 4 * p.t_bloch, 401)
    exact = _upper_occupation(h, 0, [1], t)
    assert np.abs(sb.rabi_occupation(t, p) - exact).max() < 1e-12
    assert exact.max() == pytest.approx(0.0225115241503355, rel=1e-6)


def test_rabi_matches_dressed_site_model_without_hopping():
    # oracle: the program's own dressed-site ladder with the hopping switched off
    p = replace(sb.preset_v0_4(), t_a=1e-14, t_b=1e-14)
    m = 4
    h = sb.build_single_particle_transformed(p, m)
    n = 2 * m + 1
    t = np.linspace(0.0, 4 * p.t_bloch, 401)
    ladder = _upper_occupation(h, m, list(range(n, 2 * n)), t)
    assert np.abs(sb.rabi_occupation(t, p) - ladder).max() < 1e-9


def test_rabi_periodicity_and_bound():
    p = sb.preset_v0_4()
    t = np.linspace(0.0, 3.0, 301)
    vals = sb.rabi_occupation(t, p)
    shifted = sb.rabi_occupation(t + 2 * math.pi / p.delta_tilde, p)
    assert np.abs(vals - shifted).max() < 1e-9
    amp = 4 * p.c0**2 * p.force**2 / p.delta_tilde**2
    assert vals.max() <= amp + 1e-12


def test_rabi_degenerate_coupling():
    p = sb.ModelParams(delta=4.39, c0=0.0, t_a=0.062, t_b=0.62, w_a=0.03, w_b=0.018,
                       w_x=0.012, g=0.0, force=2.2207, n_particles=5, n_sites=5)
    assert sb.rabi_occupation(1.23, p) == 0.0
    assert np.all(sb.rabi_occupation(np.linspace(0, 5, 11), p) == 0.0)


def test_resonant_two_level_period():
    # on resonance the two-level period is pi/|c0 F J_2(delta_x)|
    p = sb.preset_v0_4()
    coupling = sb.build_resonant_two_level(p, 2).coupling
    t_res = sb.TwoLevelModel(0.0, coupling).period
    assert t_res == pytest.approx(806.2812168902968, rel=1e-10)
    assert t_res / p.t_bloch == pytest.approx(284.97, abs=0.01)
    # no coupling at zero detuning: nothing is transferred, the period is infinite
    assert sb.TwoLevelModel(0.0, 0.0).period == math.inf


def test_revival_estimate_universal():
    p = sb.preset_v0_4(0.1)
    t_rev = sb.revival_estimate_universal(p)
    assert t_rev == pytest.approx(10894.49761011025, rel=1e-10)   # ~1.090e4, ~3850 T_B
    assert t_rev / p.t_bloch == pytest.approx(3850.5, abs=0.1)
    # exact 1/g law
    assert sb.revival_estimate_universal(p.with_g(0.2)) == pytest.approx(t_rev / 2, rel=1e-12)
    for g in (0.05, 0.1, 0.4):
        assert sb.revival_estimate_universal(p.with_g(g)) * g == pytest.approx(
            t_rev * 0.1, rel=1e-12)
    with pytest.raises(ValueError):
        sb.revival_estimate_universal(p.with_g(0.0))
    p_nox = sb.ModelParams(**{**p.__dict__, "w_x": 0.0})
    with pytest.raises(ValueError):
        sb.revival_estimate_universal(p_nox)


def test_revival_estimate_small_hopping_limit():
    # x_a = x_b -> 0 makes J_0 = 1; with g = 1, w_x = 4 pi the estimate is 1
    p = sb.ModelParams(delta=1.0, c0=-0.1, t_a=1e-12, t_b=1e-12, w_a=0.0, w_b=0.0,
                       w_x=4 * math.pi, g=1.0, force=1.0, n_particles=1, n_sites=2)
    assert sb.revival_estimate_universal(p) == pytest.approx(1.0, rel=1e-12)


def test_collapse_from_revival():
    assert sb.collapse_from_revival(math.pi, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert sb.collapse_from_revival(1e4, 2.0) == pytest.approx(795.7747154594767, rel=1e-12)
    # inverting the relation against a target ratio: t_rev/t_coll = pi dn^2
    dn = math.sqrt(5.7 / math.pi)
    assert sb.collapse_from_revival(5.7, dn) == pytest.approx(1.0, rel=1e-12)
    assert dn == pytest.approx(1.35, abs=0.01)
    with pytest.raises(ValueError):
        sb.collapse_from_revival(1.0, 0.0)


def _write_params(tmp_path, data):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(data))
    return path


_FULL = dict(delta=4.39, c0=-0.15, t_a=0.062, t_b=0.62, w_a=0.030, w_b=0.018,
             w_x=0.012, g=0.1, force=2.2207, n_particles=5, n_sites=5)


def test_load_params_explicit_force(tmp_path):
    params, order = sb.load_params(_write_params(tmp_path, _FULL))
    assert params == sb.preset_v0_4(0.1)
    assert order is None


def test_load_params_resonance_order(tmp_path):
    data = {k: v for k, v in _FULL.items() if k != "force"}
    data["resonance_order"] = 2
    params, order = sb.load_params(_write_params(tmp_path, data))
    assert order == 2
    assert params.force == pytest.approx(sb.resonant_force(4.39, -0.15, 2), rel=1e-14)


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(bogus=1.0),                                   # unknown key
    lambda d: d.update(resonance_order=2),                           # both force and order
    lambda d: d.pop("force"),                                        # neither
    lambda d: (d.pop("force"), d.update(resonance_order=2.5)),       # non-integer order
    lambda d: d.pop("w_x"),                                          # missing key
    lambda d: d.update(force="2.2"),                                 # string, not a number
    lambda d: d.update(n_particles=3.0),                             # non-integer count
    lambda d: d.update(w_x=None),                                    # null
    lambda d: (d.pop("force"), d.update(resonance_order=True)),      # bool order
])
def test_load_params_rejects(tmp_path, mutate):
    data = dict(_FULL)
    mutate(data)
    with pytest.raises(ValueError):
        sb.load_params(_write_params(tmp_path, data))


def test_param_keys_cover_model_fields():
    # the parameter-file schema and the run fingerprint both follow the
    # ModelParams fields, in this printed order
    assert [f.name for f in fields(sb.ModelParams)] == list(_FULL)
