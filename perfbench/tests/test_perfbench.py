"""Self-tests of the benchmark harness on a tiny system (N = L = 3).

Each test starts real child processes, exactly as a benchmark run does, so
the harness's output format, metric names, units and output checks are
tested end to end.  Run with `python -m pytest perfbench/tests`.
"""

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _load_harness():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


run = _load_harness()

N3 = ("--preset", "v0_4", "--g", "0.2", "--n", "3", "--l", "3")
TINY = {
    wl.name: wl
    for wl in (
        run.Workload("revival-n3", n=3, g=0.2, initial="unit-filling-lower",
                     cli=("revival-report",) + N3,
                     expected={"t_coll_measured": 6050.098, "t_rev_measured": 6999.752}),
        run.Workload("evolve-n3", n=3, g=0.2, initial="unit-filling-lower",
                     cli=("evolve",) + N3 + ("--mode", "continuous", "--sample-per-tb", "32",
                                             "--t-final-tb", "4"),
                     reference=Path(__file__).with_name("evolve-n3.txt")),
        run.Workload("build-n3", n=3, g=0.2, initial="lower-band-ground", nnz=106),
    )
}


@pytest.fixture
def in_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _main(capsys, workloads, name, trace):
    status = run.main(["--workload", name, "--seed", "7", "--seconds", "0",
                       "--trace", str(trace)], workloads=workloads)
    lines = capsys.readouterr().out.splitlines()
    return status, lines, json.loads(lines[-1])


@pytest.mark.parametrize("n_sites, dim", [(2, 6), (3, 20), (4, 86), (5, 402), (7, 11076)])
def test_burnside_sector_dim(n_sites, dim):
    assert run.burnside_sector_dim(n_sites, n_sites) == dim


def test_benchmark_json_matches_harness():
    spec = _bench_spec()
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _assert_every_metric_printed(status, lines, result, trace):
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _bench_spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.startswith(metric["name"] + " ") and line.endswith(" " + metric["unit"])
                   for line in lines)


@pytest.mark.parametrize("name, trace", [("revival-n3", 0), ("evolve-n3", 1), ("build-n3", 1)])
def test_every_metric_printed_with_its_unit(in_root, capsys, name, trace):
    _assert_every_metric_printed(*_main(capsys, TINY, name, trace), trace)


def test_traced_revival_prints_every_metric_and_counts_the_propagator(in_root, capsys):
    status, lines, result = _main(capsys, TINY, "revival-n3", 1)
    _assert_every_metric_printed(status, lines, result, 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["fock.sector_dim"] == 20 and m["hamiltonian.nnz"] == 106
    assert m["propagation.floquet_rhs_evals"] == m["hamiltonian.apply_calls"] > 0
    assert 0 <= m["propagation.floquet_solver_s"] < m["propagation.floquet_s"]
    assert m["propagation.unitarity_defect"] <= 1e-8
    assert m["propagation.reversal_defect"] <= 1e-8


def _corrupt(wl, tmp_path):
    if wl.kind == "revival":
        return dataclasses.replace(wl, expected={"t_coll_measured": 6050.098 * 1.01})
    if wl.kind == "build":
        return dataclasses.replace(wl, nnz=wl.nnz + 1)
    values = wl.reference.read_text().splitlines()
    values[5] = repr(float(values[5]) + 1e-6)
    bad = tmp_path / "evolve-n3.txt"
    bad.write_text("\n".join(values) + "\n")
    return dataclasses.replace(wl, reference=bad)


@pytest.mark.parametrize("name", list(TINY))
def test_corrupted_reference_fails_the_run(in_root, capsys, tmp_path, name):
    bad = _corrupt(TINY[name], tmp_path)
    status, lines, result = _main(capsys, {name: bad}, name, 0)
    assert status == 0
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 2  # setup child + workload child
    assert any("FAILED" in line for line in lines)


def test_no_program_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "build-n7",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_setup_children_are_topped_up_after_the_rounds(in_root, capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 3)
    status, lines, result = _main(capsys, TINY, "build-n3", 0)
    labels = [line[2:].split(":")[0] for line in lines if ": calib " in line]
    assert labels == ["probe", "setup0", "build-n3.0", "setup1", "setup2"]
    assert status == 0 and result["correct"] and result["attempted"] == 4
