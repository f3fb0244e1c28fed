"""Command-line entry point: ties parameter files and presets to simulations
and emits machine-readable CSV traces and JSON reports.

Subcommands: dims, evolve, floquet-spectrum, revival-report, sweep-g,
single-particle.  Identical configurations produce byte-identical output
files, and every output file starts with a `#` comment line holding the
fully resolved parameter set.  Exit codes: 0 success, 2 validation error,
3 numerical failure.
"""

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import analysis
from .fock import FockState, build_k0_sector, full_dimension, project_initial_state
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
    diagonalize_floquet,
    evolve,
    floquet_operator,
    occupation_series,
    stroboscopic_occupations,
)

DEFAULT_SAMPLE_PER_TB = 32
DEFAULT_G_GRID = "0.05,0.1,0.15,0.2"


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
        params = params.with_g(args.g)
    if getattr(args, "force", None) is not None:
        params = params.with_force(args.force)
    if getattr(args, "n", None) is not None:
        params = replace(params, n_particles=args.n)
    if getattr(args, "l", None) is not None:
        params = replace(params, n_sites=args.l)
    mask = TermMask.from_names(args.terms) if getattr(args, "terms", None) else TermMask()
    rtol = getattr(args, "rtol", DEFAULT_RTOL)
    atol = getattr(args, "atol", DEFAULT_ATOL)
    for name in ("rtol", "atol", "t_final_tb", "sample_per_tb"):
        value = getattr(args, name, None)
        if value is not None and not value > 0:
            raise ValueError(f"--{name.replace('_', '-')} must be positive, got {value}")
    return RunConfig(
        params=params,
        order=order,
        initial_state=_parse_initial(getattr(args, "initial", "unit-filling-lower")),
        mask=mask,
        rtol=rtol,
        atol=atol,
    )


def _dump_matrix(parts, path):
    """Coordinate-format dump of H(0), one `row,col,re,im` line per entry."""
    h = (parts.h_static + parts.h_hop + parts.h_hop_dag).tocoo()
    entries = sorted(zip(h.row.tolist(), h.col.tolist(), h.data.tolist()))
    lines = [f"{r},{c},{_fmt(v.real)},{_fmt(v.imag)}" for r, c, v in entries]
    _emit("\n".join(lines) + "\n", path)


def _trace_csv(trace, t_bloch, header_comment) -> str:
    lines = [f"# {header_comment}", "t,t_over_TB,Nb"]
    for t, v in zip(trace.times, trace.values):
        lines.append(f"{_fmt(t)},{_fmt(t / t_bloch)},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def _build_sector_and_parts(cfg: RunConfig):
    sector = build_k0_sector(cfg.params.n_particles, cfg.params.n_sites)
    parts = build_interaction_picture(cfg.params, sector, cfg.mask)
    psi0 = project_initial_state(cfg.initial_state, sector)
    return sector, parts, psi0


def _stroboscopic_trace(cfg, sector, parts, psi0, n_periods, meta):
    u = floquet_operator(parts, rtol=cfg.rtol, atol=cfg.atol)
    spectrum = diagonalize_floquet(u, parts.t_bloch, psi0)
    trace = stroboscopic_occupations(spectrum, sector, n_periods, meta=meta)
    return spectrum, trace


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
    sector, parts, psi0 = _build_sector_and_parts(cfg)
    tb = parts.t_bloch
    meta = {"mode": args.mode}
    if args.dump_matrix:
        _dump_matrix(parts, args.dump_matrix)
    if args.mode == "stroboscopic":
        _, trace = _stroboscopic_trace(cfg, sector, parts, psi0, int(args.t_final_tb), meta)
    else:
        result = evolve(
            psi0, parts, args.t_final_tb * tb,
            sample_every=tb / args.sample_per_tb, rtol=cfg.rtol, atol=cfg.atol,
        )
        trace = occupation_series(result, sector, meta)
    header = cfg.fingerprint(mode=args.mode, t_final_tb=args.t_final_tb,
                             sample_per_tb=args.sample_per_tb)
    _emit(_trace_csv(trace, tb, header), args.out)
    return 0


def cmd_floquet_spectrum(args) -> int:
    cfg = _resolve_config(args)
    sector, parts, psi0 = _build_sector_and_parts(cfg)
    if args.dump_matrix:
        _dump_matrix(parts, args.dump_matrix)
    u = floquet_operator(parts, rtol=cfg.rtol, atol=cfg.atol)
    spectrum = diagonalize_floquet(u, parts.t_bloch, psi0)
    lines = [f"# {cfg.fingerprint(unitarity_defect=spectrum.unitarity_defect)}", "eps_n,abs_cn"]
    for eps, c in zip(spectrum.quasi_energies, np.abs(spectrum.coefficients)):
        lines.append(f"{_fmt(eps)},{_fmt(c)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _revival_record(cfg: RunConfig, n_periods: int | None, prominence: float) -> dict:
    sector, parts, psi0 = _build_sector_and_parts(cfg)
    tb = parts.t_bloch
    try:
        eq9 = revival_estimate_universal(cfg.params)
    except ValueError:
        eq9 = None
    if n_periods is None:
        if eq9 is None:
            raise ValueError("priors give no revival estimate; set --t-final-tb explicitly")
        n_periods = int(math.ceil(1.6 * eq9 / tb))
    spectrum, trace = _stroboscopic_trace(cfg, sector, parts, psi0, n_periods, {})
    report = analysis.build_revival_report(trace, spectrum, eq9, revival_prominence=prominence)
    record = report.as_dict()
    # times in Bloch periods alongside absolute units
    for key in ("t_coll_measured", "t_rev_measured", "t_rev_universal",
                "t_rev_spectral", "revival_fwhm"):
        record[key + "_tb"] = record[key] / tb if record[key] is not None else None
    record["t_bloch"] = tb
    record["unitarity_defect"] = spectrum.unitarity_defect
    record["fingerprint"] = cfg.fingerprint(t_final_tb=n_periods)
    return record


def cmd_revival_report(args) -> int:
    cfg = _resolve_config(args)
    n = int(args.t_final_tb) if args.t_final_tb else None
    record = _revival_record(cfg, n, args.prominence)
    _emit(json.dumps(record, indent=2) + "\n", args.out)
    return 0


def _sweep_point(payload):
    cfg, g, n_periods, prominence = payload
    record = _revival_record(replace(cfg, params=cfg.params.with_g(g)), n_periods, prominence)
    return g, record


def cmd_sweep_g(args) -> int:
    cfg = _resolve_config(args)
    g_values = [float(s) for s in args.g_grid.split(",") if s.strip()]
    if not g_values:
        raise ValueError("empty --g-grid")
    n = int(args.t_final_tb) if args.t_final_tb else None
    payloads = [(cfg, g, n, args.prominence) for g in g_values]

    workers = int(os.environ.get("STARKBAND_THREADS", "1"))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, payloads))
    else:
        results = [_sweep_point(p) for p in payloads]

    lines = [f"# {cfg.fingerprint(g_grid=args.g_grid)}",
             "g,inv_g,t_coll,t_rev,t_rev_eq9,t_rev_eq10"]
    for g, rec in results:  # results arrive in input order
        lines.append(",".join([
            _fmt(g), _fmt(1.0 / g),
            _fmt(rec["t_coll_measured"]), _fmt(rec["t_rev_measured"]),
            _fmt(rec["t_rev_universal"]), _fmt(rec["t_rev_spectral"]),
        ]))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_single_particle(args) -> int:
    cfg = _resolve_config(args)
    params = cfg.params
    h = build_single_particle_transformed(params, args.window)
    n_sites = 2 * args.window + 1
    energies, vectors = np.linalg.eigh(h)
    psi0 = np.zeros(2 * n_sites)
    psi0[args.window] = 1.0  # central lower-band site
    amp0 = vectors.T @ psi0

    tb = params.t_bloch
    times = (tb / args.sample_per_tb) * np.arange(int(args.t_final_tb * args.sample_per_tb) + 1)
    phases = np.exp(-1j * np.outer(times, energies))
    psi_t = (phases * amp0) @ vectors.T
    nb = (np.abs(psi_t[:, n_sites:]) ** 2).sum(axis=1)

    if cfg.order is not None:
        predicted = build_resonant_two_level(params, cfg.order).occupation(times)
        kind = "two-level"
    else:
        predicted = rabi_occupation(times, params)
        kind = "rabi"
    lines = [f"# {cfg.fingerprint(window=args.window, prediction=kind)}",
             "t,t_over_TB,Nb,Nb_predicted"]
    for t, v, pv in zip(times, nb, predicted):
        lines.append(f"{_fmt(t)},{_fmt(t / tb)},{_fmt(v)},{_fmt(pv)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _add_model_flags(sp, with_initial=True):
    sp.add_argument("--preset", help="named parameter set (e.g. v0_4)")
    sp.add_argument("--params", help="JSON parameter file")
    sp.add_argument("--g", type=float, help="override the interaction scale g")
    sp.add_argument("--order", type=int, help="resonance order r for analysis")
    sp.add_argument("--force", type=float, help="override the Stark force F")
    sp.add_argument("--n", type=int, help="override the particle number N")
    sp.add_argument("--l", type=int, help="override the site count L")
    sp.add_argument("--terms", help="comma list of Hamiltonian terms "
                                    "(hop_a,hop_b,c0,int_a,int_b,int_x_density,int_x_pair)")
    sp.add_argument("--rtol", type=float, default=DEFAULT_RTOL)
    sp.add_argument("--atol", type=float, default=DEFAULT_ATOL)
    if with_initial:
        sp.add_argument("--initial", default="unit-filling-lower",
                        help="initial state: unit-filling-lower, lower-band-ground, "
                             "or 'n1,..,nL;m1,..,mL'")
    sp.add_argument("--out", help="output file (stdout when omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starkband",
        description="Inter-band dynamics of a tilted two-band Bose-Hubbard ring",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("dims", help="full and kappa=0 basis dimensions")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_dims)

    sp = sub.add_parser("evolve", help="occupation trace N_b(t)")
    _add_model_flags(sp)
    sp.add_argument("--t-final-tb", type=float, required=True, dest="t_final_tb")
    sp.add_argument("--sample-per-tb", type=int, default=DEFAULT_SAMPLE_PER_TB,
                    dest="sample_per_tb", help="samples per Bloch period (continuous mode)")
    sp.add_argument("--mode", choices=("continuous", "stroboscopic"), default="continuous")
    sp.add_argument("--dump-matrix", dest="dump_matrix",
                    help="write H(0) as 'row,col,re,im' lines to this path")
    sp.set_defaults(func=cmd_evolve)

    sp = sub.add_parser("floquet-spectrum", help="quasi-energies and overlaps |c_n|")
    _add_model_flags(sp)
    sp.add_argument("--dump-matrix", dest="dump_matrix")
    sp.set_defaults(func=cmd_floquet_spectrum)

    sp = sub.add_parser("revival-report", help="collapse/revival time scales (JSON)")
    _add_model_flags(sp)
    sp.add_argument("--t-final-tb", type=float, dest="t_final_tb",
                    help="trace length in Bloch periods (default: 1.6x the universal estimate)")
    sp.add_argument("--prominence", type=float, default=0.05,
                    help="envelope prominence a revival must exceed")
    sp.set_defaults(func=cmd_revival_report)

    sp = sub.add_parser("sweep-g", help="collapse/revival times over a g grid (CSV)")
    _add_model_flags(sp)
    sp.add_argument("--g-grid", default=DEFAULT_G_GRID, dest="g_grid",
                    help="comma list of g values")
    sp.add_argument("--t-final-tb", type=float, dest="t_final_tb")
    sp.add_argument("--prominence", type=float, default=0.05)
    sp.set_defaults(func=cmd_sweep_g)

    sp = sub.add_parser("single-particle",
                        help="dressed-site model trace vs closed-form prediction")
    _add_model_flags(sp, with_initial=False)
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
