"""Benchmark of the starkband simulator, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports the package from ./src and
fails (exit 2, no result) where ./src/starkband is missing.  Every
measurement runs in a fresh child process with one BLAS thread and without
the STARKBAND_THREADS pool.

--trace 0 measures the end-to-end metrics with tracing off.  It runs rounds
of one set-up-only child (setup_s) and one workload child (wall_s, cpu_s,
peak_rss_mb), and another round for as long as one taking as long as the
last would still end within S seconds of the first.  Then it tops the
set-up children up to SETUP_REPEATS.  Each metric is the median over its
children.

--trace 1 runs the workload once untraced and once traced (see child.py),
requires the two to write identical output, and reports the per-layer
metrics of the traced run plus its wall time minus the untraced one.

Every child's output is checked; a failed check, a non-zero exit or a
timeout counts that child as a failed operation.  The last line of standard
output is the result as JSON.  A log with the environment, the load average
around each child, a speed reading of the machine taken just before each
child (calib_s) and every sample goes to .perfbench_work/.

The inputs are fixed by the workload; --seed only sets PYTHONHASHSEED of the
children and is recorded.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from math import comb, gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 9  # fewest set-up children in an end-to-end run
CALIBRATION_STEPS = 1_000_000
DEADLINE_S = 170.0  # the whole run, children included

REVIVAL_RTOL = 1e-3
EVOLVE_ATOL = 1e-8
PROPAGATOR_DEFECT_MAX = 1e-8
HERMITICITY_RTOL = 1e-12

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s",
    "fock.sector_s": "s",
    "fock.initial_state_s": "s",
    "fock.sector_dim": "count",
    "fock.full_dim": "count",
    "hamiltonian.assemble_s": "s",
    "hamiltonian.nnz": "count",
    "hamiltonian.apply_calls": "count",
    "hamiltonian.apply_s": "s",
    "hamiltonian.apply_flop_computed": "flop",
    "hamiltonian.apply_bytes_computed": "B",
    "propagation.floquet_s": "s",
    "propagation.floquet_rhs_evals": "count",
    "propagation.floquet_solver_s": "s",
    "propagation.floquet_peak_rss_mb": "MB",
    "propagation.schur_s": "s",
    "propagation.trace_s": "s",
    "propagation.trace_periods": "count",
    "propagation.evolve_s": "s",
    "propagation.evolve_rhs_evals": "count",
    "propagation.evolve_solver_s": "s",
    "propagation.occupation_s": "s",
    "propagation.unitarity_defect": "1",
    "propagation.reversal_defect": "1",
    "propagation.norm_drift": "1",
    "analysis.report_s": "s",
    "trace.overhead_s": "s",
}

SETUP_SPANS = ("cli.import", "fock.sector", "hamiltonian.assemble", "fock.initial_state")
KIND_SPANS = {
    "revival": SETUP_SPANS + ("propagation.floquet", "propagation.schur",
                              "propagation.trace", "analysis.report"),
    "evolve": SETUP_SPANS + ("propagation.evolve", "propagation.occupation"),
    "build": SETUP_SPANS,
}


@dataclass(frozen=True)
class Workload:
    """One benchmark input: preset v0_4 at N = L = n and interaction g.

    `cli` holds the starkband command line (without --out) for a simulation
    workload and is empty for a set-up-only one.  The pinned expectations
    are `expected` (revival report values), `reference` (N_b samples) or
    `nnz` (set-up), by kind.
    """

    name: str
    n: int
    g: float
    initial: str
    cli: tuple = ()
    expected: dict = field(default_factory=dict)
    reference: Path | None = None
    nnz: int | None = None

    @property
    def kind(self) -> str:
        if not self.cli:
            return "build"
        return "revival" if self.cli[0] == "revival-report" else "evolve"


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "revival-v0_4", n=5, g=0.2, initial="unit-filling-lower",
            cli=("revival-report", "--preset", "v0_4", "--g", "0.2"),
            expected={"t_coll_measured": 952.787, "t_rev_measured": 4506.761},
        ),
        Workload(
            "evolve-v0_4", n=5, g=0.2, initial="unit-filling-lower",
            cli=("evolve", "--preset", "v0_4", "--g", "0.2", "--mode", "continuous",
                 "--sample-per-tb", "32", "--t-final-tb", "50"),
            reference=HERE / "reference" / "evolve-v0_4.txt",
        ),
        Workload("build-n7", n=7, g=0.2, initial="lower-band-ground", nnz=136638),
    )
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program, wrong import)."""


def burnside_sector_dim(n_particles: int, n_sites: int) -> int:
    """Translation orbits of N bosons on L sites x 2 bands (Burnside's lemma).

    A shift by s sites fixes exactly the states that repeat every
    c = gcd(s, L) sites: L/c copies of a block of 2c modes holding N c / L
    particles each.
    """
    fixed = 0
    for s in range(n_sites):
        c = gcd(s, n_sites)
        copies = n_sites // c
        if n_particles % copies == 0:
            fixed += comb(n_particles // copies + 2 * c - 1, 2 * c - 1)
    return fixed // n_sites


def check_revival(wl: Workload, text: str) -> list:
    record = json.loads(text)
    problems = []
    for key, pinned in wl.expected.items():
        value = record.get(key)
        if value is None or abs(value - pinned) > REVIVAL_RTOL * abs(pinned):
            problems.append(f"{key}={value} is not within {REVIVAL_RTOL:g} of {pinned}")
    return problems


def check_evolve(wl: Workload, text: str) -> list:
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    values = [float(row.split(",")[2]) for row in rows[1:]]
    reference = [float(line) for line in wl.reference.read_text().splitlines()
                 if line and not line.startswith("#")]
    if len(values) != len(reference):
        return [f"{len(values)} N_b samples, reference has {len(reference)}"]
    problems = []
    worst = max(abs(v - r) for v, r in zip(values, reference))
    if not worst <= EVOLVE_ATOL:
        problems.append(f"N_b differs from the reference by {worst:.3e} > {EVOLVE_ATOL:g}")
    if not all(0.0 <= v <= 1.0 for v in values):
        problems.append("N_b outside [0, 1]")
    return problems


def check_build(wl: Workload, text: str) -> list:
    r = json.loads(text)
    problems = []
    expected = {
        "sector_dim": burnside_sector_dim(wl.n, wl.n),
        "full_dim": comb(wl.n + 2 * wl.n - 1, 2 * wl.n - 1),
        "nnz": wl.nnz,
    }
    for key, want in expected.items():
        if r.get(key) != want:
            problems.append(f"{key}={r.get(key)}, expected {want}")
    if not r["h_t_hermiticity_defect"] <= HERMITICITY_RTOL * r["h_t_scale"]:
        problems.append(f"H(t) is not Hermitian: defect {r['h_t_hermiticity_defect']}")
    return problems


CHECKS = {"revival": check_revival, "evolve": check_evolve, "build": check_build}


def check_output(wl: Workload, path: Path) -> list:
    """Problems found in a workload child's output file (empty when correct)."""
    try:
        return CHECKS[wl.kind](wl, path.read_text())
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output {path.name}: {exc!r}"]


def check_trace(wl: Workload, record: dict) -> list:
    names = {s["name"] for s in record["spans"]}
    problems = [f"traced run has no {name} span" for name in KIND_SPANS[wl.kind]
                if name not in names]
    if wl.kind == "revival":
        r = record["readings"]
        for key in ("unitarity_defect", "reversal_defect"):
            value = r.get(key)
            if value is None or not value <= PROPAGATOR_DEFECT_MAX:
                problems.append(f"{key}={value} exceeds {PROPAGATOR_DEFECT_MAX:g}")
    return problems


@dataclass
class ChildRun:
    """One finished child process, measured from the outside."""

    label: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    status: int
    calib_s: float
    load_before: tuple
    load_after: tuple
    problems: list

    @property
    def failed(self) -> bool:
        return self.status != 0 or bool(self.problems)


class Runner:
    """Starts children one at a time under one deadline and keeps every run."""

    def __init__(self, root: Path, seed: int, deadline: float):
        self.root = root
        self.work = root / WORK_DIR
        self.work.mkdir(exist_ok=True)
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("STARKBAND_THREADS", None)
        self.env.update(
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED=str(seed % 2**32),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.runs = []

    def path(self, name: str) -> Path:
        return self.work / name

    def run(self, label: str, cmd: list) -> ChildRun:
        calib = calibrate()
        remaining = self.deadline - time.perf_counter()
        load_before = os.getloadavg()
        with open(self.path(f"{label}.stdout"), "wb") as out, open(self.path(f"{label}.stderr"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(remaining, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        problems = [] if proc.returncode == 0 else [
            f"exit status {proc.returncode}; see {WORK_DIR}/{label}.stderr"]
        run = ChildRun(
            label=label,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            status=proc.returncode,
            calib_s=calib,
            load_before=load_before,
            load_after=os.getloadavg(),
            problems=problems,
        )
        self.runs.append(run)
        return run


def calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python loop.

    A reading of how fast the machine runs just now: on a shared host the
    same code can run up to twice as slowly for minutes at a time.
    """
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_STEPS):
        x += i
    return time.perf_counter() - start


def workload_cmd(wl: Workload, out: Path, trace: Path | None = None) -> list:
    head = [sys.executable, str(CHILD)] + (["--trace", str(trace)] if trace else [])
    if wl.kind == "build":
        return head + ["setup", "--n", str(wl.n), "--g", repr(wl.g),
                       "--initial", wl.initial, "--out", str(out)]
    argv = list(wl.cli) + ["--out", str(out)]
    if trace:
        return head + ["cli", "--"] + argv
    return [sys.executable, "-m", "starkband"] + argv


def setup_cmd(wl: Workload) -> list:
    return [sys.executable, str(CHILD), "setup", "--n", str(wl.n), "--g", repr(wl.g),
            "--initial", wl.initial]


def probe_environment(runner: Runner) -> dict:
    """Warm the interpreter's caches and record the environment of the run."""
    run = runner.run("probe", [sys.executable, str(CHILD), "probe"])
    text = runner.path("probe.stdout").read_text()
    if run.status != 0 or not text.strip():
        raise SetupError(f"cannot import starkband from {runner.root / 'src'}")
    env = json.loads(text.splitlines()[-1])
    package = Path(env["starkband_file"]).resolve()
    if runner.root / "src" not in package.parents:
        raise SetupError(f"starkband was imported from {package}, not from ./src")
    commit = None
    if (runner.root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=runner.root,
                             capture_output=True, text=True, check=False)
        commit = git.stdout.strip() or None
    env.update(nproc=len(os.sched_getaffinity(0)), git_commit=commit)
    return env


def run_workload_child(runner: Runner, wl: Workload, label: str) -> ChildRun:
    out = runner.path(f"{label}.out")
    run = runner.run(label, workload_cmd(wl, out))
    if run.status == 0:
        run.problems += check_output(wl, out)
    return run


def measure_end_to_end(runner: Runner, wl: Workload, seconds: float) -> dict:
    """Set-up children interleaved with workload children, so both sample
    the same stretches of the machine's speed."""
    setups, runs = [], []

    def run_setup():
        setups.append(runner.run(f"setup{len(setups)}", setup_cmd(wl)))

    loop_start = time.perf_counter()
    last_round = 0.0
    while not runs or (time.perf_counter() - loop_start + last_round <= seconds
                       and runner.deadline - time.perf_counter() > 2 * last_round):
        round_start = time.perf_counter()
        run_setup()
        runs.append(run_workload_child(runner, wl, f"{wl.name}.{len(runs)}"))
        last_round = time.perf_counter() - round_start
    while len(setups) < SETUP_REPEATS:
        run_setup()
    return {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "setup_s": statistics.median(r.wall_s for r in setups),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }


def layer_metrics(record: dict, overhead_s: float) -> dict:
    """Per-layer metrics from a traced run; 0 for a stage the workload skips."""
    seconds = defaultdict(float)
    for span in record["spans"]:
        seconds[span["name"]] += span["end"] - span["start"]
    apply = defaultdict(lambda: {"calls": 0, "seconds": 0.0, "flop": 0, "bytes": 0})
    for stat in record["apply"]:
        apply[stat["span"]] = stat
    floquet, evolve = apply["propagation.floquet"], apply["propagation.evolve"]
    r = defaultdict(float, record["readings"])

    def total(key):
        return sum(stat[key] for stat in record["apply"])

    return {
        "cli.import_s": seconds["cli.import"],
        "fock.sector_s": seconds["fock.sector"],
        "fock.initial_state_s": seconds["fock.initial_state"],
        "fock.sector_dim": r["sector_dim"],
        "fock.full_dim": r["full_dim"],
        "hamiltonian.assemble_s": seconds["hamiltonian.assemble"],
        "hamiltonian.nnz": r["nnz"],
        "hamiltonian.apply_calls": total("calls"),
        "hamiltonian.apply_s": total("seconds"),
        "hamiltonian.apply_flop_computed": total("flop"),
        "hamiltonian.apply_bytes_computed": total("bytes"),
        "propagation.floquet_s": seconds["propagation.floquet"],
        "propagation.floquet_rhs_evals": floquet["calls"],
        "propagation.floquet_solver_s": seconds["propagation.floquet"] - floquet["seconds"],
        "propagation.floquet_peak_rss_mb": r["floquet_peak_rss_mb"],
        "propagation.schur_s": seconds["propagation.schur"],
        "propagation.trace_s": seconds["propagation.trace"],
        "propagation.trace_periods": r["trace_periods"],
        "propagation.evolve_s": seconds["propagation.evolve"],
        "propagation.evolve_rhs_evals": evolve["calls"],
        "propagation.evolve_solver_s": seconds["propagation.evolve"] - evolve["seconds"],
        "propagation.occupation_s": seconds["propagation.occupation"],
        "propagation.unitarity_defect": r["unitarity_defect"],
        "propagation.reversal_defect": r["reversal_defect"],
        "propagation.norm_drift": r["norm_drift"],
        "analysis.report_s": seconds["analysis.report"],
        "trace.overhead_s": overhead_s,
    }


def measure_traced(runner: Runner, wl: Workload) -> dict:
    plain = run_workload_child(runner, wl, wl.name)
    out = runner.path(f"{wl.name}.traced.out")
    record_path = runner.path(f"{wl.name}.spans.json")
    traced = runner.run(f"{wl.name}.traced", workload_cmd(wl, out, trace=record_path))
    if traced.status != 0:
        return layer_metrics({"spans": [], "apply": [], "readings": {}}, 0.0)
    try:
        same = out.read_bytes() == runner.path(f"{wl.name}.out").read_bytes()
    except OSError:
        same = False
    if not same:
        traced.problems.append("traced output differs from the untraced output")
    record = json.loads(record_path.read_text())
    traced.problems += check_trace(wl, record)
    return layer_metrics(record, traced.wall_s - plain.wall_s)


def run_benchmark(root: Path, wl: Workload, seed: int, seconds: float,
                  trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns the result object and the log, and writes the log."""
    if not (root / "src" / "starkband" / "__init__.py").is_file():
        raise SetupError(f"no starkband package under {root / 'src'}")
    runner = Runner(root, seed, time.perf_counter() + DEADLINE_S)
    env = probe_environment(runner)
    units = PER_LAYER if trace else END_TO_END
    values = measure_traced(runner, wl) if trace else measure_end_to_end(runner, wl, seconds)
    ops = [r for r in runner.runs if r.label != "probe"]
    failed = [r for r in ops if r.failed]
    log = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "children": [vars(r) for r in runner.runs],
    }
    log_path = runner.path(f"{wl.name}.trace{int(trace)}.log.json")
    log_path.write_text(json.dumps(log, indent=1) + "\n")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, log


def main(argv=None, workloads=None) -> int:
    workloads = workloads or WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, log = run_benchmark(Path.cwd().resolve(), workloads[args.workload],
                                    args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = log["environment"]
    print("# " + " ".join(f"{k}={env[k]}" for k in sorted(env)))
    calib = statistics.median(child["calib_s"] for child in log["children"])
    print(f"# calib_s median {calib:.4f} s: a {CALIBRATION_STEPS}-step Python loop "
          "timed before each child; a time metric that moves with it between runs "
          "points to the machine")
    for child in log["children"]:
        print(f"# {child['label']}: calib {child['calib_s']:.4f} s, "
              f"wall {child['wall_s']:.3f} s, cpu {child['cpu_s']:.3f} s, "
              f"rss {child['peak_rss_mb']:.1f} MB, load {child['load_before'][0]:.2f} -> "
              f"{child['load_after'][0]:.2f}, exit {child['status']}"
              + "".join(f"; FAILED {p}" for p in child["problems"]))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
