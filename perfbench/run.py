"""ranktail benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pipeline_1m --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the repository root; ranktail is imported from ./src.  The run
prepares the workload's inputs from the seed (set-up, repeated SETUP_REPS
times), starts a worker process that loads them and runs the timed part back
to back for --seconds, then checks every op's outputs here, outside the
timed part.  It prints each metric by name and unit, a ``context`` line
(seed, sizes, versions, caches, informational fields) and, last, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  ``--workload all``
runs every workload with both settings and prints every metric.

Exit codes: 0 when a result was printed (``correct`` tells whether every op
passed its checks), 2 when no result could be produced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One thread per process: no BLAS or OpenMP pools in this process or the worker.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3
RUN_LIMIT_S = 165.0  # a run must end within 180 s, checks included

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("graph.load_edge_list.s", "s"), ("graph.load_edge_list.MB_per_s", "MB/s"),
    ("graph.write_edge_list.s", "s"), ("graph.write_edge_list.MB_per_s", "MB/s"),
    ("graph.degree_profile.s", "s"),
    ("synth.generate.s", "s"), ("synth.generate.edges_per_s", "edges/s"),
    ("pagerank.pagerank.s", "s"), ("pagerank.iters", "count"),
    ("pagerank.ms_per_iter", "ms"), ("pagerank.edges_per_s", "edges/s"),
    ("pagerank.bytes_per_iter_computed", "B"), ("pagerank.GBps_computed", "GB/s"),
    ("pagerank.export_scores.s", "s"), ("pagerank.export_scores.MB_per_s", "MB/s"),
    ("tails.ccdf.s", "s"), ("tails.ccdf.calls", "count"), ("tails.choose_xmin.s", "s"),
    ("tails.fit_exponent_mle.s", "s"), ("tails.decimate_ccdf.s", "s"),
    ("tails.write_ccdf_csv.s", "s"),
    ("theory.s", "s"), ("theory.calls", "count"),
    ("report.analyze_graph.s", "s"), ("report.analyze_graph.self_s", "s"),
    ("report.write_analysis.s", "s"),
    ("simulate.iterate_pool.s_per_gen", "s"),
    ("simulate.iterate_pool.samples_per_s", "samples/s"),
    ("simulate.generations", "count"), ("simulate.tail_ratio_table.s", "s"),
    ("simulate.simulate_Y_levels.s", "s"), ("simulate.Y_abort_rate", "frac"),
    ("cli.generate.s", "s"), ("cli.analyze.s", "s"), ("cli.simulate.s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "frac"), ("trace.layer_self_frac", "frac"),
    ("trace.wall_s", "s"),
]


class BenchError(Exception):
    """No result can be produced."""


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(op_spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced op; a layer that did not run reads 0."""
    summary = spans.summarize(op_spans)
    names, layers = summary["names"], summary["layers"]

    def s(name):
        return names.get(name, {}).get("s", 0.0)

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def count(name, key):
        return names.get(name, {}).get("counters", {}).get(key, 0)

    root = next(sp for sp in op_spans if sp["name"] == "bench.op")
    wall = root["end"] - root["start"]
    pr_s, iters = s("pagerank.pagerank"), count("pagerank.pagerank", "iters")
    gens = calls("simulate.iterate_pool")
    y_samples = count("simulate.simulate_Y_levels", "samples")
    return {
        "graph.load_edge_list.s": s("graph.load_edge_list"),
        "graph.load_edge_list.MB_per_s": _ratio(count("graph.load_edge_list", "bytes") / 1e6,
                                                s("graph.load_edge_list")),
        "graph.write_edge_list.s": s("graph.write_edge_list"),
        "graph.write_edge_list.MB_per_s": _ratio(count("graph.write_edge_list", "bytes") / 1e6,
                                                 s("graph.write_edge_list")),
        "graph.degree_profile.s": s("graph.degree_profile"),
        "synth.generate.s": s("synth.generate"),
        "synth.generate.edges_per_s": _ratio(count("synth.generate", "edges"),
                                             s("synth.generate")),
        "pagerank.pagerank.s": pr_s,
        "pagerank.iters": iters,
        "pagerank.ms_per_iter": _ratio(1e3 * pr_s, iters),
        "pagerank.edges_per_s": _ratio(count("pagerank.pagerank", "edges"), pr_s),
        "pagerank.bytes_per_iter_computed": _ratio(count("pagerank.pagerank", "bytes"), iters),
        "pagerank.GBps_computed": _ratio(count("pagerank.pagerank", "bytes") / 1e9, pr_s),
        "pagerank.export_scores.s": s("pagerank.export_scores"),
        "pagerank.export_scores.MB_per_s": _ratio(count("pagerank.export_scores", "bytes") / 1e6,
                                                  s("pagerank.export_scores")),
        "tails.ccdf.s": s("tails.ccdf"),
        "tails.ccdf.calls": calls("tails.ccdf"),
        "tails.choose_xmin.s": s("tails.choose_xmin"),
        "tails.fit_exponent_mle.s": s("tails.fit_exponent_mle"),
        "tails.decimate_ccdf.s": s("tails.decimate_ccdf"),
        "tails.write_ccdf_csv.s": s("tails.write_ccdf_csv"),
        "theory.s": layers.get("theory", {}).get("s", 0.0),
        "theory.calls": layers.get("theory", {}).get("calls", 0),
        "report.analyze_graph.s": s("report.analyze_graph"),
        "report.analyze_graph.self_s": names.get("report.analyze_graph", {}).get("self_s", 0.0),
        "report.write_analysis.s": s("report.write_analysis"),
        "simulate.iterate_pool.s_per_gen": _ratio(s("simulate.iterate_pool"), gens),
        "simulate.iterate_pool.samples_per_s": _ratio(count("simulate.iterate_pool", "samples"),
                                                      s("simulate.iterate_pool")),
        "simulate.generations": gens,
        "simulate.tail_ratio_table.s": s("simulate.tail_ratio_table"),
        "simulate.simulate_Y_levels.s": s("simulate.simulate_Y_levels"),
        "simulate.Y_abort_rate": _ratio(count("simulate.simulate_Y_levels", "aborted"), y_samples),
        "cli.generate.s": s("cli.generate"),
        "cli.analyze.s": s("cli.analyze"),
        "cli.simulate.s": s("cli.simulate"),
        "cli.self_s": layers.get("cli", {}).get("self_s", 0.0),
        "trace.layer_self_frac": _ratio(sum(v["self_s"] for k, v in layers.items()
                                            if k != "bench"), wall),
        "trace.wall_s": wall,
    }


def lscpu_caches() -> dict:
    caches = {"L2": None, "L3": None}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return caches
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()[:2]] = value.strip()
    return caches


def spawn_worker(argv: list[str], deadline: float) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=sys.stderr, stderr=sys.stderr, env=env, cwd=ROOT)
    # A blocking wait returns as soon as the worker exits; wait(timeout=...)
    # polls in 50 ms steps, which would quantize the set-up time.
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    if time.monotonic() >= deadline:
        raise BenchError("worker did not finish within the run's time limit")
    if code != 0:
        raise BenchError(f"worker exited with code {code}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple:
    """One run; returns (result object, human-readable lines)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = workloads.WORKLOADS[name]
    indir = work / "inputs"
    common = ["--workload", name, "--workdir", str(work)]

    setup_times = []
    for _ in range(1 if trace else SETUP_REPS):
        shutil.rmtree(indir, ignore_errors=True)
        indir.mkdir(parents=True)
        t0 = time.perf_counter()
        ctx = workload.prepare(seed, indir)
        spawn_worker(common + ["--ready-only"], deadline)
        setup_times.append(time.perf_counter() - t0)

    spawn_worker(common + ["--seconds", str(seconds), "--trace", str(int(trace))], deadline)
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    if not Path(result["ranktail"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"ranktail imported from {result['ranktail']}, not {SRC}")

    failures, info, failed = [], {}, 0
    for op in result["ops"]:
        if op["error"]:
            problems = [op["error"].strip().splitlines()[-1]]
        else:
            problems, info = workload.check(ctx, work / op["dir"])
        failed += bool(problems)
        failures += [f"{op['dir']}: {p}" for p in problems]
        shutil.rmtree(work / op["dir"], ignore_errors=True)

    plain = [op["wall_s"] for op in result["ops"] if not op["traced"]]
    if trace:
        traced = [op for op in result["ops"] if op["traced"]]
        per_op = [layer_metrics(op["spans"]) for op in traced]
        values = {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
        values["trace.overhead_frac"] = (statistics.median(op["wall_s"] for op in traced)
                                         / statistics.median(plain) - 1.0)
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER}
    else:
        values = {"wall_s": statistics.median(plain),
                  "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": result["peak_rss_kb"] / 1024.0}
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}

    attempted = len(result["ops"])
    context = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        **workload.context(ctx, info),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "lscpu_cache": lscpu_caches(),
        "bandwidth": "not measured; pagerank bytes are computed from array sizes "
                     "(spans.pagerank_bytes_per_iter)",
        "op_wall_s": [op["wall_s"] for op in result["ops"]],
        "setup_s_reps": setup_times,
        "failures": failures,
        "informational": {k: v for k, v in info.items() if k not in ("n", "m")},
    }
    lines = [f"{name} seed={seed} trace={int(trace)}: {attempted} ops, {failed} failed"]
    lines += [f"  {key:<40} {m['value']:.6g} {m['unit']}" for key, m in metrics.items()]
    lines.append(f"  {'failed_frac':<40} {failed / attempted:.6g} frac")
    lines += [f"  FAILED {f}" for f in failures]
    lines.append("context " + json.dumps(context))
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": metrics}
    return out, lines


def main(argv=None) -> int:
    names = list(workloads.WORKLOADS)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ranktail" / "__init__.py").is_file():
        print(f"error: ranktail sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    runs = ([(w, t) for w in names for t in (False, True)] if args.workload == "all"
            else [(args.workload, bool(args.trace))])
    base = ROOT / ".perfbench_work"
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, trace in runs:
        work = base / f"{name}-{os.getpid()}"
        try:
            out, lines = run_workload(name, args.seed, args.seconds, trace, work)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        finally:
            shutil.rmtree(work, ignore_errors=True)
            if base.is_dir() and not any(base.iterdir()):
                base.rmdir()
        print("\n".join(lines), flush=True)
        totals["correct"] &= out["correct"]
        totals["attempted"] += out["attempted"]
        totals["failed"] += out["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        totals["metrics"].update({prefix + k: v for k, v in out["metrics"].items()})
    print(json.dumps(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
