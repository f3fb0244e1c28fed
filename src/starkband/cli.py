"""Command-line entry point: ties parameter files and presets to simulations
and emits machine-readable CSV traces and JSON reports.

Subcommands: dims, evolve, floquet-spectrum, revival-report, sweep-g,
single-particle.  Identical configurations produce byte-identical output
files at a fixed BLAS thread count (threaded products round differently),
and every output file starts with a `#` comment line holding the fully
resolved parameter set.  Exit codes: 0 success, 2 validation error,
3 numerical failure.
"""

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import analysis, propagation
from .fock import Csr, FockState, build_k0_sector, full_dimension, project_initial_state
from .hamiltonian import TermMask, build_interaction_picture, build_single_particle_transformed
from .model import (
    PRESETS,
    ModelParams,
    build_resonant_two_level,
    load_params,
    rabi_occupation,
    revival_estimate_universal,
)
from .propagation import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    NumericalError,
    check_trace_memory,
    diagonalize_floquet,
    evolve,
    floquet_operator,
    occupation_series,
    stroboscopic_occupations,
)

DEFAULT_SAMPLE_PER_TB = 32
DEFAULT_G_GRID = "0.05,0.1,0.15,0.2"
# Bytes per value of a CSV line, beside the trace (propagation.check_trace_memory):
# its text, joined and encoded, by tracemalloc (186 per 3-value line of a
# stroboscopic evolve).
CSV_BYTES_PER_VALUE = 50
# Dense float64 copies of the single-particle model that diagonalising it holds
# at once: the model, eigh's input copy and eigenvectors, and LAPACK's
# divide-and-conquer workspace of 2 dim^2 doubles.
SINGLE_PARTICLE_COPIES = 5


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description shared by the simulation subcommands."""

    params: ModelParams
    order: int | None
    initial_state: object  # descriptor accepted by project_initial_state
    mask: TermMask
    rtol: float
    atol: float

    def fingerprint(self, **extra) -> str:
        items = [(f.name, getattr(self.params, f.name)) for f in fields(ModelParams)]
        items += [
            ("order", self.order), ("initial", self.initial_state),
            ("terms", "+".join(self.mask.names())),
            ("rtol", self.rtol), ("atol", self.atol),
        ]
        items += sorted(extra.items())
        return " ".join(f"{k}={v}" for k, v in items)


def _emit(text: str, out: str | None):
    """Write atomically (no partial files on failure) or print to stdout."""
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return format(float(x), ".12g")


def _parse_initial(text: str):
    if text in ("unit-filling-lower", "lower-band-ground"):
        return text
    if ";" not in text:
        raise ValueError(
            f"initial state {text!r} is neither a known descriptor nor an explicit "
            "occupation list 'n1,..,nL;m1,..,mL'"
        )
    lo, up = text.split(";", 1)
    lower = tuple(int(n) for n in lo.split(","))
    upper = tuple(int(n) for n in up.split(","))
    return FockState(lower, upper)


def _resolve_config(args) -> RunConfig:
    order = getattr(args, "order", None)
    if order is not None and order < 1:
        raise ValueError(f"--order must be positive, got {order}")
    if getattr(args, "preset", None):
        if args.preset not in PRESETS:
            raise ValueError(f"unknown preset {args.preset!r}; available: {', '.join(PRESETS)}")
        params = PRESETS[args.preset]()
    elif getattr(args, "params", None):
        params, file_order = load_params(args.params)
        if order is None:
            order = file_order
    else:
        raise ValueError("give either --preset or --params <file>")
    if getattr(args, "g", None) is not None:
        params = replace(params, g=args.g)
    if getattr(args, "force", None) is not None:
        params = replace(params, force=args.force)
    if getattr(args, "n", None) is not None:
        params = replace(params, n_particles=args.n)
    if getattr(args, "l", None) is not None:
        params = replace(params, n_sites=args.l)
    mask = TermMask.from_names(args.terms) if getattr(args, "terms", None) else TermMask()
    rtol = getattr(args, "rtol", DEFAULT_RTOL)
    atol = getattr(args, "atol", DEFAULT_ATOL)
    for name in ("rtol", "atol", "t_final_tb", "sample_per_tb"):
        value = getattr(args, name, None)
        if value is not None and not (value > 0 and math.isfinite(value)):
            raise ValueError(f"--{name.replace('_', '-')} must be positive and finite, got {value}")
    prominence = getattr(args, "prominence", None)
    if prominence is not None and not (prominence >= 0 and math.isfinite(prominence)):
        raise ValueError(f"--prominence must be non-negative and finite, got {prominence}")
    return RunConfig(
        params=params,
        order=order,
        initial_state=_parse_initial(getattr(args, "initial", "unit-filling-lower")),
        mask=mask,
        rtol=rtol,
        atol=atol,
    )


def _whole_periods(t_final_tb: float | None) -> int | None:
    """--t-final-tb of a stroboscopic trace, which samples whole Bloch periods."""
    if t_final_tb is not None and not float(t_final_tb).is_integer():
        raise ValueError(f"--t-final-tb must be a whole number of Bloch periods for a "
                         f"stroboscopic trace, got {t_final_tb}")
    return None if t_final_tb is None else int(t_final_tb)


def _check_trace_memory(samples: int, state_bytes: int = 0, columns: int = 0):
    """Reject, before it is allocated, a trace of `samples` samples, each with
    `state_bytes` of states and a CSV line of `columns` values, beyond physical memory."""
    check_trace_memory(samples, state_bytes + CSV_BYTES_PER_VALUE * columns)


def _dump_matrix(parts, path):
    """Coordinate-format dump of H(0) = h_static + h_hop + h_hop^dag, one
    `row,col,re,im` line per entry in row-major order.  The entries of the
    three blocks are summed in that order, and entries that come out 0
    dropped, as scipy's sum of sparse matrices does; `+ 0.0` is scipy's
    a + 0 where a block has no entry, so that no sum prints -0."""
    static, hop = parts.static_csr, parts.hop_csr
    hop_rows = hop.rows()
    h = Csr.from_entries(np.concatenate((static.rows(), hop_rows, hop.indices)),
                         np.concatenate((static.indices, hop.indices, hop_rows)),
                         np.concatenate((static.data, hop.data, hop.data.conj())), static.dim)
    rows, kept = h.rows(), h.data != 0
    lines = [f"{r},{c},{_fmt(v.real)},{_fmt(v.imag)}" for r, c, v in
             zip(rows[kept].tolist(), h.indices[kept].tolist(), (h.data[kept] + 0.0).tolist())]
    _emit("\n".join(lines) + "\n", path)


def _csv(comment: str, columns: str, rows) -> str:
    """A `# comment` line, the column names and one line of `_fmt`-ed values
    per row."""
    lines = [f"# {comment}", columns, *(",".join(map(_fmt, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def _build_sector_and_parts(cfg: RunConfig):
    sector = build_k0_sector(cfg.params.n_particles, cfg.params.n_sites)
    parts = build_interaction_picture(cfg.params, sector, cfg.mask)
    psi0 = project_initial_state(cfg.initial_state, sector)
    return sector, parts, psi0


def _spectrum(cfg, parts, psi0):
    s = floquet_operator(parts, rtol=cfg.rtol, atol=cfg.atol)
    return diagonalize_floquet(s, parts.boost_order, parts.t_bloch, psi0)


def _stroboscopic_trace(cfg, sector, parts, psi0, n_periods):
    spectrum = _spectrum(cfg, parts, psi0)
    return spectrum, stroboscopic_occupations(spectrum, sector, n_periods)


def cmd_dims(args) -> int:
    dim_full = full_dimension(args.n, args.l)
    sector = build_k0_sector(args.n, args.l)
    record = f"{args.n},{args.l},{dim_full},{sector.dim}\n"
    if args.out:
        _emit(f"# n_particles={args.n} n_sites={args.l} kappa=0\n" + record, args.out)
    else:
        _emit(record, None)
    return 0


def cmd_evolve(args) -> int:
    cfg = _resolve_config(args)
    n_periods = _whole_periods(args.t_final_tb) if args.mode == "stroboscopic" else None
    sector, parts, psi0 = _build_sector_and_parts(cfg)
    tb = parts.t_bloch
    # continuous: the grid and, maybe, t_final; N_b is streamed, so no state is kept
    samples = (n_periods + 1 if n_periods is not None
               else math.floor(args.t_final_tb * args.sample_per_tb) + 2)
    _check_trace_memory(samples, columns=3)
    if args.dump_matrix:
        _dump_matrix(parts, args.dump_matrix)
    if args.mode == "stroboscopic":
        _, trace = _stroboscopic_trace(cfg, sector, parts, psi0, n_periods)
    else:
        result = evolve(psi0, parts, args.t_final_tb * tb, samples_per_period=args.sample_per_tb,
                        rtol=cfg.rtol, atol=cfg.atol, weights=sector.upper_fractions)
        trace = occupation_series(result, sector)
    header = cfg.fingerprint(mode=args.mode, t_final_tb=args.t_final_tb,
                             sample_per_tb=args.sample_per_tb)
    _emit(_csv(header, "t,t_over_TB,Nb", zip(trace.times, trace.times / tb, trace.values)),
          args.out)
    return 0


def cmd_floquet_spectrum(args) -> int:
    cfg = _resolve_config(args)
    sector, parts, psi0 = _build_sector_and_parts(cfg)
    if args.dump_matrix:
        _dump_matrix(parts, args.dump_matrix)
    spectrum = _spectrum(cfg, parts, psi0)
    _emit(_csv(cfg.fingerprint(unitarity_defect=spectrum.unitarity_defect), "eps_n,abs_cn",
               zip(spectrum.quasi_energies, np.abs(spectrum.coefficients))), args.out)
    return 0


def _revival_record(cfg: RunConfig, n_periods: int | None, prominence: float) -> dict:
    try:
        eq9 = revival_estimate_universal(cfg.params)
    except ValueError:
        eq9 = None
    if n_periods is None:
        if eq9 is None:
            raise ValueError("priors give no revival estimate; set --t-final-tb explicitly")
        n_periods = int(math.ceil(1.6 * eq9 / cfg.params.t_bloch))
    _check_trace_memory(n_periods + 1)
    sector, parts, psi0 = _build_sector_and_parts(cfg)
    spectrum, trace = _stroboscopic_trace(cfg, sector, parts, psi0, n_periods)
    record = analysis.build_revival_report(trace, spectrum, eq9, revival_prominence=prominence)
    record["fingerprint"] = cfg.fingerprint(t_final_tb=n_periods)
    return record


def cmd_revival_report(args) -> int:
    cfg = _resolve_config(args)
    record = _revival_record(cfg, _whole_periods(args.t_final_tb), args.prominence)
    _emit(json.dumps(record, indent=2) + "\n", args.out)
    return 0


def cmd_sweep_g(args) -> int:
    cfg = _resolve_config(args)
    g_values = [float(s) for s in args.g_grid.split(",") if s.strip()]
    if not g_values:
        raise ValueError("empty --g-grid")
    n = _whole_periods(args.t_final_tb)
    rows = []
    for g in g_values:
        rec = _revival_record(replace(cfg, params=replace(cfg.params, g=g)), n, args.prominence)
        rows.append((g, 1.0 / g if g else None, rec["t_coll_measured"], rec["t_rev_measured"],
                     rec["t_rev_universal"], rec["t_rev_spectral"]))
    _emit(_csv(cfg.fingerprint(g_grid=args.g_grid), "g,inv_g,t_coll,t_rev,t_rev_eq9,t_rev_eq10",
               rows), args.out)
    return 0


def cmd_single_particle(args) -> int:
    cfg = _resolve_config(args)
    n_samples = args.t_final_tb * args.sample_per_tb
    if abs(n_samples - round(n_samples)) > 1e-9 * n_samples:
        raise ValueError(f"--t-final-tb {args.t_final_tb} is not a whole number of samples "
                         f"at --sample-per-tb {args.sample_per_tb}")
    params = cfg.params
    n_sites = 2 * args.window + 1
    # the phases, their product with the amplitudes and psi(t): 2 n_sites each
    _check_trace_memory(round(n_samples) + 1, 3 * 16 * 2 * n_sites, columns=4)
    need = SINGLE_PARTICLE_COPIES * 8 * (2 * n_sites) ** 2
    have = propagation._physical_memory()
    if need > have:
        raise ValueError(f"diagonalising the single-particle model of {2 * n_sites:,} states "
                         f"needs about {need / 2**20:,.1f} MiB, more than the "
                         f"{have / 2**20:,.1f} MiB of physical memory")
    h = build_single_particle_transformed(params, args.window)
    energies, vectors = np.linalg.eigh(h)
    psi0 = np.zeros(2 * n_sites)
    psi0[args.window] = 1.0  # central lower-band site
    amp0 = vectors.T @ psi0

    tb = params.t_bloch
    times = (tb / args.sample_per_tb) * np.arange(round(n_samples) + 1)
    phases = np.exp(-1j * np.outer(times, energies))
    psi_t = (phases * amp0) @ vectors.T
    nb = (np.abs(psi_t[:, n_sites:]) ** 2).sum(axis=1)

    if cfg.order is not None:
        predicted = build_resonant_two_level(params, cfg.order).occupation(times)
        kind = "two-level"
    else:
        predicted = rabi_occupation(times, params)
        kind = "rabi"
    header = cfg.fingerprint(window=args.window, prediction=kind,
                             t_final_tb=args.t_final_tb, sample_per_tb=args.sample_per_tb)
    _emit(_csv(header, "t,t_over_TB,Nb,Nb_predicted", zip(times, times / tb, nb, predicted)),
          args.out)
    return 0


def _add_model_flags(sp, many_body=True, g=True):
    sp.add_argument("--preset", help="named parameter set (e.g. v0_4)")
    sp.add_argument("--params", help="JSON parameter file")
    sp.add_argument("--force", type=float, help="override the Stark force F")
    if many_body:
        if g:
            sp.add_argument("--g", type=float, help="override the interaction scale g")
        sp.add_argument("--n", type=int, help="override the particle number N")
        sp.add_argument("--l", type=int, help="override the site count L")
        sp.add_argument("--terms", help="comma list of Hamiltonian terms "
                                        "(hop_a,hop_b,c0,int_a,int_b,int_x_density,int_x_pair)")
        sp.add_argument("--rtol", type=float, default=DEFAULT_RTOL)
        sp.add_argument("--atol", type=float, default=DEFAULT_ATOL)
        sp.add_argument("--initial", default="unit-filling-lower",
                        help="initial state: unit-filling-lower, lower-band-ground, "
                             "or 'n1,..,nL;m1,..,mL'")
    else:
        sp.add_argument("--order", type=int,
                        help="resonance order r of the two-level prediction (default: Rabi)")
    sp.add_argument("--out", help="output file (stdout when omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starkband",
        description="Inter-band dynamics of a tilted two-band Bose-Hubbard ring",
    )
    # no abbreviated flags: `sweep-g --g` must not read as `--g-grid`
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    sp = add_parser("dims", help="full and kappa=0 basis dimensions")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_dims)

    sp = add_parser("evolve", help="occupation trace N_b(t)")
    _add_model_flags(sp)
    sp.add_argument("--t-final-tb", type=float, required=True, dest="t_final_tb")
    sp.add_argument("--sample-per-tb", type=int, default=DEFAULT_SAMPLE_PER_TB,
                    dest="sample_per_tb", help="samples per Bloch period (continuous mode)")
    sp.add_argument("--mode", choices=("continuous", "stroboscopic"), default="continuous")
    sp.add_argument("--dump-matrix", dest="dump_matrix",
                    help="write H(0) as 'row,col,re,im' lines to this path")
    sp.set_defaults(func=cmd_evolve)

    sp = add_parser("floquet-spectrum", help="quasi-energies and overlaps |c_n|")
    _add_model_flags(sp)
    sp.add_argument("--dump-matrix", dest="dump_matrix")
    sp.set_defaults(func=cmd_floquet_spectrum)

    sp = add_parser("revival-report", help="collapse/revival time scales (JSON)")
    _add_model_flags(sp)
    sp.add_argument("--t-final-tb", type=float, dest="t_final_tb",
                    help="trace length in Bloch periods (default: 1.6x the universal estimate)")
    sp.add_argument("--prominence", type=float, default=analysis.REVIVAL_PROMINENCE,
                    help="envelope prominence a revival must exceed")
    sp.set_defaults(func=cmd_revival_report)

    sp = add_parser("sweep-g", help="collapse/revival times over a g grid (CSV)")
    _add_model_flags(sp, g=False)  # every row sets g
    sp.add_argument("--g-grid", default=DEFAULT_G_GRID, dest="g_grid",
                    help="comma list of g values")
    sp.add_argument("--t-final-tb", type=float, dest="t_final_tb")
    sp.add_argument("--prominence", type=float, default=analysis.REVIVAL_PROMINENCE)
    sp.set_defaults(func=cmd_sweep_g)

    sp = add_parser("single-particle", help="dressed-site model trace vs closed-form prediction")
    _add_model_flags(sp, many_body=False)
    sp.add_argument("--window", type=int, default=25, help="site half-width M")
    sp.add_argument("--t-final-tb", type=float, required=True, dest="t_final_tb")
    sp.add_argument("--sample-per-tb", type=int, default=DEFAULT_SAMPLE_PER_TB,
                    dest="sample_per_tb")
    sp.set_defaults(func=cmd_single_particle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
