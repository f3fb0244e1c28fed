"""Child processes of the starkband benchmark.

Each mode runs in a fresh interpreter started by `run.py`:

    child.py probe
        Import starkband and print the environment as one JSON line.
    child.py setup --n N --g G --initial I [--out FILE]
        Set-up only: sector, interaction-picture Hamiltonian, initial state.
        With --out, also write the sector dimensions, nnz and the Hermiticity
        reading of H(t) that `run.py` checks.
    child.py --trace RECORD setup ...
    child.py --trace RECORD cli -- ARGV...
        The same work with tracing on.  `cli` runs `starkband.cli.main(ARGV)`.
        Spans are kept in memory and written to RECORD when the run ends.

Tracing wraps, from this file only, the layer functions under the names
`starkband.cli` calls them by, `analysis.build_revival_report`, and
`HamiltonianParts.apply` at class level.  Nothing in the package changes.
Only the standard library is imported at module level, so that the traced
`cli.import` span holds the whole import of starkband, numpy and scipy.
"""

import argparse
import contextlib
import functools
import json
import os
import platform
import resource
import sys
import time

COMPLEX_BYTES = 16  # complex128 operand and result entries


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def apply_cost(parts, y) -> tuple[int, int]:
    """Computed flops and bytes of one `HamiltonianParts.apply(t, y)` call.

    apply forms h_static @ y + p (h_hop @ y) + conj(p) (h_hop_dag @ y) for an
    operand of k columns.  Flops: 8 per stored entry and column for the three
    complex sparse products, 12 per element for the two phase scalings and 4
    for the two sums.  Bytes: each CSR matrix (data, indices, indptr) read
    once, and 16 dense element accesses per operand element: each product
    reads y and writes its result (3 x 2), each scaling reads and writes
    (2 x 2), each sum reads two terms and writes one (2 x 3).  This is
    compulsory traffic; cache misses are not counted.
    """
    dim = parts.basis_dim
    k = 1 if y.ndim == 1 else y.shape[1]
    mats = (parts.h_static, parts.h_hop, parts.h_hop_dag)
    nnz = sum(m.nnz for m in mats)
    flop = 8 * nnz * k + 16 * dim * k
    matrix_bytes = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in mats)
    return flop, matrix_bytes + 16 * COMPLEX_BYTES * dim * k


class Tracer:
    """In-memory spans {name, start, end, parent} plus per-span apply counters."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self.open = []
        self.apply = {}
        self.readings = {}

    @contextlib.contextmanager
    def span(self, name):
        parent = self.open[-1] if self.open else None
        start = time.perf_counter() - self.origin
        self.open.append(name)
        try:
            yield
        finally:
            self.open.pop()
            end = time.perf_counter() - self.origin
            self.spans.append({"name": name, "start": start, "end": end, "parent": parent})

    def wrap(self, owner, attr, name, on_result=None):
        """Replace owner.attr by a wrapper that records a span around each call."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)

    def count_apply(self, cls):
        """Count and time `cls.apply` calls, charged to the innermost open span."""
        inner = cls.apply
        costs = {}

        def apply(parts, t, y):
            start = time.perf_counter()
            out = inner(parts, t, y)
            seconds = time.perf_counter() - start
            key = (id(parts), y.shape)
            if key not in costs:
                costs[key] = apply_cost(parts, y)
            flop, nbytes = costs[key]
            stat = self.apply.setdefault(
                self.open[-1] if self.open else None,
                {"calls": 0, "seconds": 0.0, "flop": 0, "bytes": 0},
            )
            stat["calls"] += 1
            stat["seconds"] += seconds
            stat["flop"] += flop
            stat["bytes"] += nbytes
            return out

        cls.apply = apply

    def instrument(self, cli, analysis, hamiltonian_parts):
        """Wrap every layer call that `cli` makes, from outside the package."""
        import numpy as np

        r = self.readings

        def on_sector(sector):
            r["sector_dim"] = sector.dim
            r["full_dim"] = sector.full_dim

        def on_parts(parts):
            r["nnz"] = parts.h_static.nnz + parts.h_hop.nnz

        def on_floquet(u):
            r["floquet_peak_rss_mb"] = _peak_rss_mb()
            r["reversal_defect"] = float(np.abs(u - u.T).max())

        def on_spectrum(spectrum):
            r["unitarity_defect"] = spectrum.unitarity_defect

        def on_trace(trace):
            r["trace_periods"] = len(trace.values) - 1

        def on_evolve(result):
            r["norm_drift"] = result.norm_drift

        for attr, name, hook in (
            ("build_k0_sector", "fock.sector", on_sector),
            ("build_interaction_picture", "hamiltonian.assemble", on_parts),
            ("project_initial_state", "fock.initial_state", None),
            ("floquet_operator", "propagation.floquet", on_floquet),
            ("diagonalize_floquet", "propagation.schur", on_spectrum),
            ("stroboscopic_occupations", "propagation.trace", on_trace),
            ("evolve", "propagation.evolve", on_evolve),
            ("occupation_series", "propagation.occupation", None),
        ):
            self.wrap(cli, attr, name, hook)
        self.wrap(analysis, "build_revival_report", "analysis.report")
        self.count_apply(hamiltonian_parts)

    def record(self) -> dict:
        apply = [dict(stat, span=name) for name, stat in self.apply.items()]
        return {"spans": self.spans, "apply": apply, "readings": self.readings}


def set_up(cli, n: int, g: float, initial: str, out: str | None):
    """Sector, Hamiltonian and initial state of preset v0_4 at N = L = n.

    The layer functions are looked up on `cli`, so a traced run wraps the
    very names the CLI calls.
    """
    from dataclasses import replace

    from starkband.model import preset_v0_4

    params = replace(preset_v0_4(g), n_particles=n, n_sites=n)
    sector = cli.build_k0_sector(n, n)
    parts = cli.build_interaction_picture(params, sector)
    cli.project_initial_state(initial, sector)
    if out is not None:
        import numpy as np

        from starkband import hermiticity_defect

        # H(t) as `apply` forms it, at a generic phase: Hermitian only if
        # h_static is and h_hop_dag is h_hop^H.  build_interaction_picture
        # checks h_static alone.
        phase = np.exp(0.6j * np.pi)
        h_t = parts.h_static + phase * parts.h_hop + np.conj(phase) * parts.h_hop_dag
        readings = {
            "sector_dim": sector.dim,
            "full_dim": sector.full_dim,
            "nnz": parts.h_static.nnz + parts.h_hop.nnz,
            "h_t_hermiticity_defect": hermiticity_defect(h_t),
            "h_t_scale": float(np.abs(h_t.data).max()),
        }
        with open(out, "w") as f:
            json.dump(readings, f, sort_keys=True)
            f.write("\n")


def probe() -> dict:
    import numpy as np
    import scipy

    import starkband

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "starkband_file": starkband.__file__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", metavar="RECORD", help="trace and write spans to RECORD")
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("probe")
    sp = sub.add_parser("setup")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--g", type=float, required=True)
    sp.add_argument("--initial", required=True)
    sp.add_argument("--out")
    sp = sub.add_parser("cli")
    sp.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.mode == "probe":
        print(json.dumps(probe(), sort_keys=True))
        return 0

    if args.mode == "cli" and not args.trace:
        parser.error("the cli mode is for traced runs; run `python -m starkband` untraced")
    tracer = Tracer() if args.trace else None
    with tracer.span("cli.import") if tracer else contextlib.nullcontext():
        from starkband import analysis, cli
        from starkband.hamiltonian import HamiltonianParts
    if tracer:
        tracer.instrument(cli, analysis, HamiltonianParts)

    with tracer.span("cli.main") if tracer else contextlib.nullcontext():
        if args.mode == "setup":
            set_up(cli, args.n, args.g, args.initial, args.out)
            status = 0
        else:
            cli_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
            status = cli.main(cli_argv)
    if tracer:
        with open(args.trace, "w") as f:
            json.dump(tracer.record(), f)
    return status


if __name__ == "__main__":
    sys.exit(main())
