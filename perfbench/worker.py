"""Worker process of the benchmark: loads one workload's prepared inputs and
runs its timed part back to back, closed loop.

    python3 perfbench/worker.py --workload NAME --workdir DIR --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --workdir DIR --ready-only

With ``--trace 0`` it runs timed ops until S seconds have passed (at
least one).  With ``--trace 1`` it runs pairs of one untraced and one
traced op (order alternating) until S seconds have passed (at least one
pair).  ``--ready-only`` imports ranktail, loads the inputs and exits; run.py
times it as part of set-up.  Results, spans included, go to
DIR/result.json once, at the end.  The process does nothing but load and
run, so its peak RSS is the timed part's high-water mark.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402


def peak_rss_kb() -> int:
    """High-water RSS of this process image.

    VmHWM belongs to the address space made at exec.  ru_maxrss does not
    do: Linux folds the forking parent's RSS into it, so a large run.py
    would inflate the worker's figure.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_op(workload, inputs, opdir: Path, recorder: spans.Recorder | None) -> dict:
    opdir.mkdir(parents=True)
    undo = spans.install(recorder) if recorder is not None else []
    root = recorder.begin("bench.op") if recorder is not None else None
    error = None
    out = None
    t0 = time.perf_counter()
    try:
        out = workload.op(inputs, opdir)
    except Exception:  # noqa: BLE001 -- a failed op is counted, the loop goes on
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    if recorder is not None:
        recorder.end(root)
        spans.uninstall(undo)
    if out is not None:
        workload.persist(out, opdir)
    if error:
        print(error, file=sys.stderr)
    return {"dir": opdir.name, "wall_s": wall, "traced": recorder is not None,
            "error": error, "spans": recorder.spans if recorder is not None else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ready-only", action="store_true")
    args = ap.parse_args(argv)

    import ranktail
    workdir = Path(args.workdir)
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.load(workdir / "inputs")
    if args.ready_only:
        return 0

    ops = []
    start = time.perf_counter()
    pair = 0
    while not ops or time.perf_counter() - start < args.seconds:
        if args.trace:
            order = [False, True] if pair % 2 == 0 else [True, False]
        else:
            order = [False]
        for traced in order:
            recorder = spans.Recorder() if traced else None
            ops.append(run_op(workload, inputs, workdir / f"op{len(ops)}", recorder))
        pair += 1
    result = {"ranktail": ranktail.__file__, "ops": ops, "peak_rss_kb": peak_rss_kb()}
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
