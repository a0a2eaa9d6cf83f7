"""Command-line entry point.

Subcommands: stats, pagerank, analyze, predict, simulate, generate.
Exit codes: 0 success, 2 usage/validation error, 3 data error,
4 non-convergence.  Option precedence is flags > --config JSON > defaults.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import math
import sys
import zlib
from pathlib import Path

from . import report as report_mod
from . import simulate as sim
from . import theory
from .formats import (EdgeListParseError, as_number, hist_to_json, parse_hist, read_json,
                      write_edge_list, write_json)
from .graph import DegreeProfile, degree_profile, load_edge_list
from .pagerank import PageRankParams, _series, export_scores, series_params
from .simulate import ModelSpec, SimulationConvergenceError
from .synth import SynthSpec, generate
from .tails import ccdf, write_ccdf_csv

def _generations(value):
    """simulate's generation count: "converged", or a positive integer.  Text
    (a flag's, or a --config string) is read as int() reads it, and a
    --config number as `formats.as_number` reads an int, so true and 2.5 are
    refused and 2.0 reads 2."""
    if value == "converged":
        return value
    try:
        count = as_number(int(value) if isinstance(value, str) else value, int)
    except (TypeError, ValueError):
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"expected 'converged' or a positive integer, got {value!r}")
    return count


# option -> (default, the argparse keywords of its --flag, which also give a
# --config value's JSON type).  _add_options leaves each flag at None, so that
# _resolve_options can tell a flag set from one left out
_OPTIONS = {
    "damping": ([PageRankParams.c],
                dict(type=float, action="append", help="damping factor; repeat for several runs")),
    "tol": (PageRankParams.tol, dict(type=float)),
    "max_iters": (PageRankParams.max_iters, dict(type=int)),
    "snapshots": ([], dict(type=int, nargs="*",
                           help="iteration indices whose score vectors are retained")),
    "xmin": (None, dict(type=float, help="tail threshold override")),
    "alpha": (None, dict(type=float, help="cumulative tail exponent; overrides analyze's fit")),
    # unset: simulate keeps the spec's seed, generate uses 0
    "seed": (None, dict(type=int)),
    "output_dir": (".", dict(type=str)),
    "iters": ("converged", dict(type=_generations, help="generation count, or 'converged' for "
                                "the count that brings the pool within 1e-3 of the fixed "
                                "point in W1")),
    "k_max": (None, dict(type=int)),
    "drop_self_loops": (False, dict(action="store_true")),
}


def _convert(value, flag):
    """A --config value in its flag's JSON type: a list for a repeated or
    multi-valued flag, a bool for a switch, else the flag's type.  Numbers
    must arrive as JSON numbers (`formats.as_number`); anything goes through
    str, and an option with a parser of its own takes the value as it is."""
    kind = flag.get("type", bool)  # a store_true switch has no type
    if "nargs" in flag or flag.get("action") == "append":
        if isinstance(value, list):
            return [_convert(v, {"type": kind}) for v in value]
        kind = list
    elif kind is bool:
        if isinstance(value, bool):
            return value
    elif kind in (int, float):
        return as_number(value, kind)
    else:
        return kind(value)
    raise TypeError(f"expected {kind.__name__}, got {value!r}")


def _add_options(parser, *names) -> None:
    """Declare the --<name> flag of each named _OPTIONS entry, then --config."""
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), default=None, **_OPTIONS[name][1])
    parser.add_argument("--config", type=str, help="JSON file with option defaults")


def _resolve_options(args) -> None:
    """Set every _OPTIONS key the subcommand defines and no flag set: the
    --config value, type-checked, else the built-in default."""
    config = read_json(args.config) if args.config else {}
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    for key, (default, flag) in _OPTIONS.items():
        if not hasattr(args, key) or getattr(args, key) is not None:
            continue
        value = config.get(key)
        try:
            setattr(args, key, default if value is None else _convert(value, flag))
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None


def _load_graph(args):
    return load_edge_list(args.graph, drop_self_loops=args.drop_self_loops)


def _print_warnings(lines) -> None:
    for line in lines:
        print(f"warning: {line}", file=sys.stderr)


def cmd_stats(args) -> int:
    write_json(degree_profile(_load_graph(args)).to_dict(), args.output or sys.stdout)
    return 0


def cmd_pagerank(args) -> int:
    # the PageRank options are checked before the graph is read
    params = series_params(args.damping, args.tol, args.max_iters, args.snapshots)
    g = _load_graph(args)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    keys = [repr(float(c)) for c in args.damping]
    stops = [None] * len(params)  # per damping: (its warnings, converged)
    # each vector is written when the series takes it, then dropped
    for d, k, taken in _series(g, params):
        if k is None:
            stops[d] = (report_mod.damping_warnings(keys[d], taken, args.snapshots),
                        taken.converged)
            taken = taken.scores
        export_scores(g, taken, outdir / f"scores_{report_mod.vector_suffix(keys[d], k)}.csv")
        del taken  # not held while the series makes the next vector
    for lines, _ in stops:
        _print_warnings(lines)
    return 0 if all(converged for _, converged in stops) else 4


def cmd_analyze(args) -> int:
    options = report_mod.AnalysisOptions(
        dampings=list(args.damping), tol=args.tol, max_iters=args.max_iters,
        snapshot_iters=list(args.snapshots), xmin=args.xmin, alpha=args.alpha)
    g = _load_graph(args)
    rep, dists = report_mod.analyze_graph(g, options)
    path = report_mod.write_analysis(rep, dists, args.output_dir)
    print(f"report written to {path}")
    _print_warnings(rep["warnings"])
    return 0 if all(entry["converged"] for entry in rep["pagerank"].values()) else 4


def cmd_predict(args) -> int:
    alpha = args.alpha
    if alpha is None:
        raise ValueError("--alpha is required for predict")
    theory.validate_cumulative_alpha(alpha)
    # one table per damping: each must lie in (0, 1) and be distinct
    series_params(args.damping, PageRankParams.tol, PageRankParams.max_iters, ())
    given = [f"--{key}" for key in ("d", "p0", "b") if getattr(args, key) is not None]
    if args.profile and given:
        raise ValueError("predict takes --profile or --d, --p0 and --b, not both: "
                         f"got --profile with {', '.join(given)}")
    tables = {}
    lines = []
    profile = DegreeProfile.from_dict(read_json(args.profile)) if args.profile else None
    for c in args.damping:
        if profile is not None:
            params = theory.TheoryParams.from_profile(profile, c=c, alpha=alpha)
        else:
            if args.d is None or args.b is None:
                raise ValueError("predict needs --profile, or --d, --p0 and --b")
            p0 = 0.0 if args.p0 is None else args.p0
            params = theory.TheoryParams(c=c, alpha=alpha, d=args.d, p0=p0, b=args.b)
        table = tables[repr(float(c))] = theory.coefficient_table(params, k_max=args.k_max)
        if args.indegree_intercept is not None:
            for k, ck in [("limit", table["C_limit"]), *enumerate(table["C_k"], 1)]:
                slope, intercept = theory.predict_line(alpha, args.indegree_intercept, ck)
                lines.append({"c": c, "k": k, "slope": slope, "intercept": intercept})
    out = {"coefficients": tables}
    if lines:
        out["predicted_lines"] = lines
    write_json(out, args.output or sys.stdout)
    return 0


def cmd_simulate(args) -> int:
    obj = read_json(args.spec)
    if args.seed is not None and isinstance(obj, dict):  # from_dict rejects the rest
        obj["seed"] = args.seed
    spec = ModelSpec.from_dict(obj)
    pool = sim.simulate_R(spec, args.iters)

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_ccdf_csv(ccdf(pool.values), outdir / "pool_ccdf.csv")

    mean = float(pool.values.mean())
    pool_min, pool_max = float(pool.values.min()), float(pool.values.max())
    lower = spec.baseline
    # the 5/sqrt(M) CLT band on the mean needs a finite variance: alpha > 2
    mean_in_band = (abs(mean - 1.0) <= 5.0 / math.sqrt(spec.pool_size)
                    if spec.alpha > 2.0 else None)
    summary = {
        "schema_version": report_mod.SCHEMA_VERSION,
        "spec": spec.to_dict(),
        "generations": pool.generation,
        "pool_mean": mean,
        "pool_min": pool_min,
        "pool_max": pool_max,
        "degenerate": pool_min == pool_max,
        "invariants": {
            "values_at_least_baseline": pool_min >= lower - 1e-12,
            "mean_within_5_over_sqrt_M": mean_in_band,
        },
    }
    if spec.c > 0:
        tparams = theory.TheoryParams.from_histogram(spec.c, spec.alpha,
                                                     spec.outdeg_hist, d=spec.d)
        c_value = theory.coefficient_Ck(tparams, pool.generation)
        rows = sim.tail_ratio_table(pool, spec, c_value)
        checked = [r for r in rows if r["in_window"]]
        summary["tail_ratios"] = {
            "coefficient": c_value,
            "rows": rows,
            "within_band": (bool(all(0.8 <= r["ratio"] <= 1.25 for r in checked))
                            if checked else None),
        }
    write_json(summary, outdir / "summary.json")
    if summary["degenerate"]:
        _print_warnings([f"degenerate pool: every sample is {pool_min}; "
                         "pool_ccdf.csv holds no point"])
    write_json(summary["invariants"], sys.stdout)
    return 0


def cmd_generate(args) -> int:
    text = args.outdeg_hist
    hist = parse_hist(read_json(text[1:] if text.startswith("@") else io.StringIO(text)))
    spec = SynthSpec(n=args.nodes, alpha=args.alpha_gen, d=args.mean_degree,
                     outdeg_hist=hist, seed=args.seed if args.seed is not None else 0)
    g = generate(spec)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    edges_path = outdir / ("edges.txt.gz" if args.gzip else "edges.txt")
    write_edge_list(g, edges_path)
    profile = degree_profile(g)
    sidecar = {
        "spec": {"n": spec.n, "alpha": spec.alpha, "d": spec.d,
                 "outdeg_hist": hist_to_json(spec.outdeg_hist),
                 "seed": spec.seed},
        "realized_profile": profile.to_dict(),
    }
    write_json(sidecar, outdir / "synth.json")
    print(f"wrote {edges_path} (n={g.n}, m={g.m})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranktail",
        description="PageRank computation, heavy-tail fitting, tail-coefficient "
                    "prediction, and Monte Carlo validation for directed graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    # analyze takes every option of pagerank
    pagerank_options = ("drop_self_loops", "damping", "tol", "max_iters", "snapshots", "output_dir")

    p = sub.add_parser("stats", help="degree statistics of an edge-list graph")
    p.add_argument("graph", help="edge-list file ('src dst' lines, optionally .gz)")
    p.add_argument("--output", type=str)
    _add_options(p, "drop_self_loops")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("pagerank", help="power-iteration scores to CSV")
    p.add_argument("graph", help="edge-list file ('src dst' lines, optionally .gz)")
    _add_options(p, *pagerank_options)
    p.set_defaults(func=cmd_pagerank)

    p = sub.add_parser("analyze", help="full pipeline: stats, fits, coefficients, residuals")
    p.add_argument("graph", help="edge-list file ('src dst' lines, optionally .gz)")
    _add_options(p, *pagerank_options, "xmin", "alpha")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("predict", help="coefficient table and predicted log-log lines")
    p.add_argument("--profile", type=str, help="degree-profile JSON from 'stats'")
    p.add_argument("--d", type=float, help="mean degree (when no profile)")
    p.add_argument("--p0", type=float, help="dangling fraction (when no profile; default 0)")
    p.add_argument("--b", type=float, help="out-degree tail factor (when no profile)")
    p.add_argument("--indegree-intercept", type=float,
                   help="in-degree log-log intercept; enables predicted lines")
    p.add_argument("--output", type=str)
    _add_options(p, "damping", "alpha", "k_max")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="population-dynamics run from a model-spec JSON")
    p.add_argument("spec", help="ModelSpec JSON file")
    _add_options(p, "iters", "seed", "output_dir")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("generate", help="synthesize a heavy-tailed random graph")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True, dest="alpha_gen")
    p.add_argument("--mean-degree", type=float, required=True)
    p.add_argument("--outdeg-hist", type=str, required=True,
                   help="JSON histogram {degree: fraction} or @file")
    p.add_argument("--gzip", action="store_true")
    _add_options(p, "seed", "output_dir")
    p.set_defaults(func=cmd_generate)

    return parser


def _release_free_heap() -> None:
    """Hand the heap's free pages back to the system (glibc's malloc_trim).

    glibc keeps freed heap resident: 110-190 MB with no live array after a
    1M-node generate and analyze.  Where the next command's arrays land in
    that space depends on the timing of the pool threads, so a process that
    ran such commands one after another peaked 30-100 MB higher, by a
    different amount each run.  Without glibc this does nothing."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim(0)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _resolve_options(args)
        return args.func(args)
    # a truncated .gz file raises EOFError, a corrupt one zlib.error
    except (EdgeListParseError, json.JSONDecodeError, UnicodeDecodeError, OSError,
            EOFError, zlib.error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SimulationConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _release_free_heap()


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
