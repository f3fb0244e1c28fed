"""End-to-end CLI checks on systems small enough to run in seconds."""

import argparse
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import starkband as sb
from starkband import cli, fock, propagation
from starkband.cli import _fmt, build_parser, main

from oracles import dense_hamiltonian

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


def test_dims_beyond_the_dimension_cap_exits_2(capsys, monkeypatch):
    # C(119, 40) states at N = L = 40: refused before any is listed
    def forbidden(*args):
        raise AssertionError("the basis was enumerated")

    monkeypatch.setattr(fock, "_compositions", forbidden)
    assert main(["dims", "--n", "40", "--l", "40"]) == 2
    assert "exceeds the cap" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [
    ["evolve", "--t-final-tb", "2.9", "--mode", "stroboscopic"],
    ["revival-report", "--t-final-tb", "0.5"],
    ["sweep-g", "--g-grid", "0.1", "--t-final-tb", "1.5"],
], ids=["evolve", "revival-report", "sweep-g"])
def test_fractional_stroboscopic_span_exits_2(tmp_path, capsys, argv):
    # a stroboscopic trace samples whole Bloch periods; 2.9 used to be cut to 2
    dump = tmp_path / "h.csv"
    extra = ["--dump-matrix", str(dump)] if argv[0] == "evolve" else []
    assert main(argv + extra + ["--preset", "v0_4", "--n", "2", "--l", "2"]) == 2
    assert "whole number of Bloch periods" in capsys.readouterr().err
    assert not dump.exists()


def test_continuous_evolve_accepts_fractional_span(params_file, capsys):
    assert main(["evolve", "--params", params_file, "--initial", "1,0;0,0",
                 "--t-final-tb", "0.5", "--sample-per-tb", "4"]) == 0
    t_tb = [float(line.split(",")[1]) for line in capsys.readouterr().out.splitlines()[2:]]
    assert t_tb == [0.0, 0.25, 0.5]


@pytest.mark.parametrize("mode", ["continuous", "stroboscopic"])
def test_infinite_span_exits_2(capsys, mode):
    assert main(["evolve", "--preset", "v0_4", "--n", "1", "--l", "2",
                 "--t-final-tb", "inf", "--mode", mode]) == 2
    assert "must be positive and finite" in capsys.readouterr().err


def test_evolve_requires_model_source():
    assert main(["evolve", "--t-final-tb", "3"]) == 2


@pytest.mark.parametrize("term", ["hop_q", "tilt"])
def test_evolve_rejects_unknown_term(params_file, term):
    assert main(["evolve", "--params", params_file, "--initial", "1,0;0,0",
                 "--t-final-tb", "2", "--terms", term]) == 2


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
    size = [] if argv[0] == "single-particle" else ["--n", "1", "--l", "2"]
    assert main(argv + ["--preset", "v0_4", *size]) == 2
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["revival-report", "--prominence", "nan"], "--prominence must be non-negative and finite"),
    (["revival-report", "--prominence", "-0.1"], "--prominence must be non-negative and finite"),
    (["sweep-g", "--prominence", "inf"], "--prominence must be non-negative and finite"),
    (["single-particle", "--t-final-tb", "2", "--order", "0"], "--order must be positive"),
    (["single-particle", "--t-final-tb", "2", "--order", "-2"], "--order must be positive"),
    (["evolve", "--t-final-tb", "2", "--initial", "bogus"], "is neither a known descriptor"),
    (["sweep-g", "--g-grid", ","], "empty --g-grid"),
    (["revival-report", "--g", "0"], "priors give no revival estimate"),
    (["sweep-g", "--g-grid", "1e-320"], "priors give no revival estimate"),
], ids=["prominence-nan", "prominence-negative", "sweep-prominence-inf", "order-zero",
        "order-negative", "initial-bogus", "g-grid-empty", "revival-without-estimate",
        "sweep-estimate-overflows"])
def test_meaningless_flag_values_exit_2(capsys, argv, message):
    # the first five used to print a result that means nothing, and exit 0;
    # the last, whose default span is infinite, used to die with OverflowError
    size = [] if argv[0] == "single-particle" else ["--n", "1", "--l", "2"]
    assert main(argv + ["--preset", "v0_4", *size]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["evolve"],
    ["evolve", "--mode", "stroboscopic"],
    ["revival-report"],
    ["sweep-g", "--g-grid", "0.2"],
    ["single-particle"],
], ids=["evolve", "stroboscopic", "revival-report", "sweep-g", "single-particle"])
def test_span_too_long_to_hold_exits_2(capsys, argv):
    # 1e15 periods need petabytes: rejected before anything of that size is
    # allocated, where numpy used to fail with a MemoryError traceback
    size = [] if argv[0] == "single-particle" else ["--n", "2", "--l", "2"]
    assert main(argv + ["--preset", "v0_4", *size, "--t-final-tb", "1e15"]) == 2
    assert "physical memory" in capsys.readouterr().err


def test_single_particle_model_too_large_to_diagonalise_exits_2(capsys, monkeypatch):
    # a window of 1e5 sites a side: a dense model of 400,002 states, whose
    # eigh needs terabytes, is rejected before it is built, however short the trace
    def forbidden(*args):
        raise AssertionError("the model was built")

    monkeypatch.setattr(cli, "build_single_particle_transformed", forbidden)
    argv = ["single-particle", "--preset", "v0_4", "--window", "100000", "--t-final-tb", "1"]
    assert main(argv) == 2
    assert "physical memory" in capsys.readouterr().err


def test_evolve_over_a_short_span_of_a_fine_grid_exits_0(capsys):
    # 1e12 samples per period over 1e-9 of one: the samples are held, not
    # the offsets of a whole period (7.3 TiB)
    argv = ["evolve", "--preset", "v0_4", "--n", "2", "--l", "2", "--t-final-tb", "1e-9",
            "--sample-per-tb", "1000000000000"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 1001
    assert rows[0].startswith("0,0,")


def test_continuous_evolve_needs_room_for_its_trace_not_its_states(capsys, monkeypatch):
    # N_b is streamed, so each of the 130 samples at N = L = 3 (dim 20) costs
    # its trace arrays and CSV line, not its 320-byte state: a machine with
    # room for the trace and half the states runs it (as vectors, since S
    # does not fit either), and one without room for the trace refuses it
    argv = ["evolve", "--preset", "v0_4", "--n", "3", "--l", "3", "--t-final-tb", "4"]
    assert main(argv) == 0
    roomy = capsys.readouterr().out
    samples = 4 * 32 + 2
    trace = samples * (propagation.TRACE_BYTES_PER_SAMPLE + 3 * cli.CSV_BYTES_PER_VALUE)
    monkeypatch.setattr(propagation, "_physical_memory", lambda: trace + samples * 16 * 20 // 2)
    assert main(argv) == 0
    tight = capsys.readouterr().out

    def occupations(text):
        return np.array([float(line.split(",")[2]) for line in text.splitlines()[2:]])

    assert occupations(tight).size == samples - 1
    assert np.abs(occupations(tight) - occupations(roomy)).max() < 1e-8
    monkeypatch.setattr(propagation, "_physical_memory", lambda: trace - 1)
    assert main(argv) == 2
    assert "physical memory" in capsys.readouterr().err


_MANY_BODY_FLAGS = {"--preset", "--params", "--force", "--g", "--n", "--l", "--terms",
                    "--rtol", "--atol", "--initial", "--out"}
_FLAGS = {
    "dims": {"--n", "--l", "--out"},
    "evolve": _MANY_BODY_FLAGS | {"--t-final-tb", "--sample-per-tb", "--mode", "--dump-matrix"},
    "floquet-spectrum": _MANY_BODY_FLAGS | {"--dump-matrix"},
    "revival-report": _MANY_BODY_FLAGS | {"--t-final-tb", "--prominence"},
    "sweep-g": _MANY_BODY_FLAGS - {"--g"} | {"--g-grid", "--t-final-tb", "--prominence"},
    "single-particle": {"--preset", "--params", "--force", "--order", "--out", "--window",
                        "--t-final-tb", "--sample-per-tb"},
}


@pytest.mark.parametrize("command", list(_FLAGS))
def test_each_subcommand_takes_only_the_flags_it_reads(command):
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    actions = subparsers.choices[command]._actions
    assert {s for a in actions for s in a.option_strings} - {"-h", "--help"} == _FLAGS[command]


@pytest.mark.parametrize("argv", [
    ["evolve", "--preset", "v0_4", "--t-final-tb", "1", "--order", "3"],
    ["single-particle", "--preset", "v0_4", "--t-final-tb", "1", "--g", "0.2"],
    ["sweep-g", "--preset", "v0_4", "--n", "3", "--l", "3", "--g", "0.3"],
    ["sweep-g", "--preset", "v0_4", "--n", "3", "--l", "3", "--g-gr", "0.2"],
], ids=["evolve-order", "single-particle-g", "sweep-g-g", "sweep-g-abbreviated"])
def test_flag_a_subcommand_does_not_read_exits_2(argv):
    # sweep-g sets g row by row, and no flag may be abbreviated (`--g` once
    # read as `--g-grid`)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


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
    assert np.abs(h - dense_hamiltonian(parts, 0.0)).max() < 1e-12


@pytest.mark.parametrize("n,l,g,terms", [
    (3, 3, 0.2, None), (5, 5, 0.2, None), (4, 4, 0.0, None), (3, 3, 0.2, "hop_b,int_x_pair"),
    (2, 4, 0.2, None), (1, 2, 0.2, None),
    (4, 2, 0.2, None),  # hop and hop^dag share positions
    (3, 1, 0.2, None),
])
def test_dump_matrix_is_scipys_sum(n, l, g, terms, tmp_path):
    # Oracle: scipy's h_static + h_hop + h_hop^dag, byte for byte.  Where a
    # block has no entry scipy adds +0, so no line may print -0
    dump = tmp_path / "h.csv"
    argv = ["floquet-spectrum", "--preset", "v0_4", "--n", str(n), "--l", str(l), "--g", str(g),
            "--initial", "lower-band-ground", "--dump-matrix", str(dump),
            "--out", str(tmp_path / "s.csv")]
    assert main(argv + (["--terms", terms] if terms else [])) == 0
    params = replace(sb.preset_v0_4(g), n_particles=n, n_sites=l)
    mask = sb.TermMask.from_names(terms) if terms else sb.TermMask()
    parts = sb.build_interaction_picture(params, sb.build_k0_sector(n, l), mask)
    h = (parts.h_static + parts.h_hop + parts.h_hop.getH()).tocoo()
    expected = "".join(f"{r},{c},{_fmt(v.real)},{_fmt(v.imag)}\n"
                       for r, c, v in zip(h.row.tolist(), h.col.tolist(), h.data.tolist()))
    assert dump.read_text() == expected


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
    # the effective model's collapse time sits beside the measured one
    assert list(record)[:2] == ["t_coll_measured", "t_coll_predicted"]
    assert record["t_coll_predicted"] == sb.collapse_from_revival(record["t_rev_universal"],
                                                                  record["delta_n"])
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


def test_sweep_g_at_zero_g_prints_nan_inverse(capsys):
    assert main(["sweep-g", "--preset", "v0_4", "--n", "3", "--l", "3",
                 "--g-grid", "0,0.2", "--t-final-tb", "3000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    zero, other = lines[2].split(","), lines[3].split(",")
    # without interactions nothing collapses, and 1/g is undefined
    assert zero == ["0", "nan", "nan", "nan", "nan", "nan"]
    assert float(other[1]) == pytest.approx(5.0)


def test_single_particle_prediction_column(capsys):
    assert main(["single-particle", "--preset", "v0_4", "--window", "10",
                 "--t-final-tb", "2", "--sample-per-tb", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "t,t_over_TB,Nb,Nb_predicted"
    p = sb.preset_v0_4()
    for line in lines[2:6]:
        t, _, _, predicted = (float(x) for x in line.split(","))
        assert predicted == pytest.approx(float(sb.rabi_occupation(t, p)), abs=1e-9)


def test_single_particle_rejects_a_partial_last_sample(capsys):
    # 0.3 T_B at 8 samples per T_B would end at 0.25 T_B under a 0.3 header
    assert main(["single-particle", "--preset", "v0_4", "--window", "10",
                 "--t-final-tb", "0.3", "--sample-per-tb", "8"]) == 2
    assert "whole number of samples" in capsys.readouterr().err


def test_single_particle_span_is_whole_up_to_round_off(capsys):
    # 0.29 * 100 is 28.999999999999996 in floating point: 29 samples, ending at 0.29 T_B
    assert main(["single-particle", "--preset", "v0_4", "--window", "10",
                 "--t-final-tb", "0.29", "--sample-per-tb", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 30
    assert float(lines[-1].split(",")[1]) == pytest.approx(0.29, abs=1e-12)


def test_single_particle_resonant_prediction(capsys):
    assert main(["single-particle", "--preset", "v0_4", "--order", "2", "--window", "10",
                 "--t-final-tb", "2", "--sample-per-tb", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    model = sb.build_resonant_two_level(sb.preset_v0_4(), 2)
    for line in lines[2:6]:
        t, _, _, predicted = (float(x) for x in line.split(","))
        assert predicted == pytest.approx(float(model.occupation(t)), abs=1e-9)


def _run_python(*args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_console_script_installed():
    proc = _run_python("-m", "starkband", "dims", "--n", "2", "--l", "2")
    assert proc.returncode == 0
    # Burnside: 10 states, the half-turn fixes (1,1;0,0) and (0,0;1,1),
    # so (10 + 2) / 2 = 6 orbits, each with a kappa = 0 vector
    assert proc.stdout.strip() == "2,2,10,6"


def test_preset_unknown_exits_2():
    assert main(["evolve", "--preset", "nope", "--t-final-tb", "2"]) == 2


SLOW_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.linalg",
              "scipy.signal", "scipy.stats", "scipy.sparse")


def test_cli_runs_import_no_slow_scipy_subpackage(tmp_path):
    # scipy.integrate loads scipy.optimize (~0.3 s per process), scipy.signal
    # loads scipy.stats (~0.5 s) and scipy.sparse numpy.f2py and numpy.testing
    # (~0.25 s); a revival report, with its crest and revival peaks, a
    # continuous evolve, a Floquet spectrum with its matrix dump, a sweep over
    # g and a single-particle trace need none of them
    out = tmp_path / "report.json"
    small = "'--preset', 'v0_4', '--n', '3', '--l', '3'"
    code = ("import sys; from starkband.cli import main; "
            f"status = [main(['revival-report', {small}, '--g', '0.2', '--out', {str(out)!r}]), "
            f"main(['evolve', {small}, '--g', '0.2', '--mode', 'continuous', '--t-final-tb', '2', "
            f"'--out', {str(tmp_path / 'evolve.csv')!r}]), "
            f"main(['floquet-spectrum', {small}, '--dump-matrix', {str(tmp_path / 'h.txt')!r}, "
            f"'--out', {str(tmp_path / 'spectrum.csv')!r}]), "
            f"main(['sweep-g', {small}, '--g-grid', '0.2', "
            f"'--out', {str(tmp_path / 'sweep.csv')!r}]), "
            "main(['single-particle', '--preset', 'v0_4', '--window', '3', "
            f"'--t-final-tb', '1', '--out', {str(tmp_path / 'single.csv')!r}])]; "
            f"print(status, [m for m in {SLOW_SCIPY!r} if m in sys.modules])")
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0] []"
    assert json.loads(out.read_text())["t_rev_measured"] is not None
