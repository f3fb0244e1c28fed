"""End-to-end CLI checks on systems small enough to run in seconds."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import starkband as sb
from starkband.cli import main

SMALL_PARAMS = dict(delta=4.39, c0=-0.15, t_a=0.062, t_b=0.62, w_a=0.030, w_b=0.018,
                    w_x=0.012, g=0.0, n_particles=1, n_sites=2, resonance_order=2)


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(SMALL_PARAMS))
    return str(path)


def test_dims_record(capsys):
    assert main(["dims", "--n", "5", "--l", "5"]) == 0
    assert capsys.readouterr().out == "5,5,2002,402\n"


def test_dims_file_has_header(tmp_path):
    out = tmp_path / "dims.csv"
    assert main(["dims", "--n", "4", "--l", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "4,4,330,86"


def test_evolve_csv_and_determinism(params_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["evolve", "--params", params_file, "--initial", "1,0;0,0",
            "--t-final-tb", "4", "--sample-per-tb", "8"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "t,t_over_TB,Nb"
    assert len(lines) == 2 + 4 * 8 + 1
    t, t_tb, nb = (float(x) for x in lines[2].split(","))
    assert (t, t_tb, nb) == (0.0, 0.0, 0.0)
    # resolved force from the resonance order is embedded in the header
    force = sb.resonant_force(4.39, -0.15, 2)
    assert f"force={force:.9}"[:18] in lines[0] or f"force={force!r}" in lines[0] or \
        format(force, "") in lines[0]


def test_evolve_stroboscopic_mode(params_file, capsys):
    assert main(["evolve", "--params", params_file, "--initial", "1,0;0,0",
                 "--t-final-tb", "3", "--mode", "stroboscopic"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "t,t_over_TB,Nb"
    t_tb = [float(line.split(",")[1]) for line in lines[2:]]
    assert t_tb == [0.0, 1.0, 2.0, 3.0]


def test_evolve_requires_model_source():
    assert main(["evolve", "--t-final-tb", "3"]) == 2


def test_evolve_rejects_unknown_term(params_file):
    assert main(["evolve", "--params", params_file, "--initial", "1,0;0,0",
                 "--t-final-tb", "2", "--terms", "hop_q"]) == 2


def test_bad_params_file_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**SMALL_PARAMS, "bogus": 1}))
    assert main(["evolve", "--params", str(path), "--t-final-tb", "2"]) == 2
    path.write_text(json.dumps({**SMALL_PARAMS, "force": 2.22}))  # force AND order
    assert main(["evolve", "--params", str(path), "--t-final-tb", "2"]) == 2
    # wrong types exit 2 too, not with a TypeError traceback
    for bad in ({"n_particles": 3.0}, {"resonance_order": True}, {"c0": "-0.15"}):
        path.write_text(json.dumps({**SMALL_PARAMS, **bad}))
        assert main(["evolve", "--params", str(path), "--t-final-tb", "2"]) == 2


@pytest.mark.parametrize("argv", [
    ["evolve", "--t-final-tb", "2", "--sample-per-tb", "0"],
    ["evolve", "--t-final-tb", "0"],
    ["evolve", "--t-final-tb", "-3", "--mode", "stroboscopic"],
    ["single-particle", "--t-final-tb", "2", "--sample-per-tb", "0"],
    ["single-particle", "--t-final-tb", "-1"],
    ["revival-report", "--t-final-tb", "-5"],
], ids=["evolve-samples", "evolve-zero-span", "stroboscopic-negative-span",
        "single-samples", "single-negative-span", "revival-negative-span"])
def test_nonpositive_sampling_exits_2(capsys, argv):
    assert main(argv + ["--preset", "v0_4", "--n", "1", "--l", "2"]) == 2
    assert "must be positive" in capsys.readouterr().err


def test_floquet_spectrum_output(params_file, capsys):
    assert main(["floquet-spectrum", "--params", params_file, "--initial", "1,0;0,0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "eps_n,abs_cn"
    rows = [tuple(map(float, line.split(","))) for line in lines[2:]]
    eps = [r[0] for r in rows]
    assert eps == sorted(eps)
    assert sum(c * c for _, c in rows) == pytest.approx(1.0, abs=1e-8)


def test_dump_matrix(params_file, tmp_path):
    dump = tmp_path / "h.txt"
    assert main(["evolve", "--params", params_file, "--initial", "1,0;0,0",
                 "--t-final-tb", "2", "--dump-matrix", str(dump),
                 "--out", str(tmp_path / "t.csv")]) == 0
    rows = [line.split(",") for line in dump.read_text().splitlines()]
    coords = [(int(r[0]), int(r[1])) for r in rows]
    assert coords == sorted(coords)
    h = np.zeros((2, 2), dtype=complex)
    for r in rows:
        h[int(r[0]), int(r[1])] = float(r[2]) + 1j * float(r[3])
    # H(0) of the 2-state sector: band gap diagonal + c0 F coupling + hop diag
    p, _ = sb.load_params(params_file)
    sector = sb.build_k0_sector(1, 2)
    parts = sb.build_interaction_picture(p, sector)
    assert np.abs(h - parts.dense_at(0.0)).max() < 1e-12


def test_revival_report_small_system(params_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["revival-report", "--params", params_file, "--initial", "1,0;0,0",
                 "--g", "0.1", "--t-final-tb", "1200", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    # N=1: interactions never act, the resonant oscillation never collapses
    assert record["t_coll_measured"] is None
    assert record["t_rev_measured"] is None
    assert "fingerprint" in record and "g=0.1" in record["fingerprint"]
    assert record["t_rev_universal"] > 0
    assert 0 <= record["unitarity_defect"] < 1e-8


@pytest.mark.parametrize("flag", ["--rtol", "--atol"])
@pytest.mark.parametrize("value", ["0", "-1e-9"])
def test_nonpositive_tolerance_exits_2(params_file, capsys, flag, value):
    assert main(["evolve", "--params", params_file, "--initial", "1,0;0,0",
                 "--t-final-tb", "2", f"{flag}={value}"]) == 2
    assert f"{flag} must be positive" in capsys.readouterr().err


def test_sweep_g_rows_in_order(params_file, capsys):
    assert main(["sweep-g", "--params", params_file, "--initial", "1,0;0,0",
                 "--g-grid", "0.1,0.2", "--t-final-tb", "900"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "g,inv_g,t_coll,t_rev,t_rev_eq9,t_rev_eq10"
    first = lines[2].split(",")
    second = lines[3].split(",")
    assert float(first[0]) == 0.1 and float(second[0]) == 0.2
    assert float(first[1]) == pytest.approx(10.0)
    # no collapse for N=1, so the measured columns are nan
    assert first[2] == "nan" and first[3] == "nan"
    # universal estimate halves when g doubles
    assert float(first[4]) == pytest.approx(2 * float(second[4]), rel=1e-9)


def test_single_particle_prediction_column(capsys):
    assert main(["single-particle", "--preset", "v0_4", "--window", "10",
                 "--t-final-tb", "2", "--sample-per-tb", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "t,t_over_TB,Nb,Nb_predicted"
    p = sb.preset_v0_4()
    for line in lines[2:6]:
        t, _, _, predicted = (float(x) for x in line.split(","))
        assert predicted == pytest.approx(float(sb.rabi_occupation(t, p)), abs=1e-9)


def test_single_particle_resonant_prediction(capsys):
    assert main(["single-particle", "--preset", "v0_4", "--order", "2", "--window", "10",
                 "--t-final-tb", "2", "--sample-per-tb", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    model = sb.build_resonant_two_level(sb.preset_v0_4(), 2)
    for line in lines[2:6]:
        t, _, _, predicted = (float(x) for x in line.split(","))
        assert predicted == pytest.approx(float(model.occupation(t)), abs=1e-9)


def test_console_script_installed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "starkband", "dims", "--n", "2", "--l", "2"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    # Burnside: 10 states, the half-turn fixes (1,1;0,0) and (0,0;1,1),
    # so (10 + 2) / 2 = 6 orbits, each with a kappa = 0 vector
    assert proc.stdout.strip() == "2,2,10,6"


def test_preset_unknown_exits_2():
    assert main(["evolve", "--preset", "nope", "--t-final-tb", "2"]) == 2
