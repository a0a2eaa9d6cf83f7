"""The three benchmark workloads and the checks on their outputs.

Each workload has five steps:

- ``prepare(seed, indir)`` builds the inputs from the seed (set-up, run by
  run.py) and returns what ``check`` needs;
- ``load(indir)`` reads the prepared inputs in the worker process;
- ``op(inputs, opdir)`` is the timed part;
- ``persist(out, opdir)`` writes what ``check`` needs, after the timer stops;
- ``check(ctx, opdir)`` returns (failures, informational fields).

Functions are called through their ranktail module attributes at call time,
so the traced run's wrappers (spans.py) see every call.
"""

from __future__ import annotations

import importlib
import json
import os
import warnings
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output file is missing, truncated or malformed."""


def _mod(name: str):
    # ``import ranktail.pagerank`` would bind the function that ranktail's
    # __init__ re-exports under the same name; take the module itself.
    return importlib.import_module(f"ranktail.{name}")


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None


def read_table(path: Path, header: str | None, dtype=float) -> np.ndarray:
    """Rows of a two-column numeric text table (comma-separated when
    ``header`` is given, whitespace-separated otherwise).

    Raises CheckFailed when the file is missing or empty, the header differs,
    the file does not end in a newline (truncated), there are no rows, or a
    row is not two numbers.
    """
    try:
        with path.open("rb") as fh:
            first = fh.readline().decode("utf-8", "replace").rstrip("\r\n")
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
    except OSError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None
    if last != b"\n":
        raise CheckFailed(f"{path.name}: truncated (no final newline)")
    if header is not None and first != header:
        raise CheckFailed(f"{path.name}: header {first!r}, expected {header!r}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns, not raises, on no rows
            table = np.loadtxt(path, dtype=dtype, ndmin=2, skiprows=int(header is not None),
                               delimiter="," if header is not None else None)
    except (ValueError, UserWarning) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None
    if table.shape[1] != 2:
        raise CheckFailed(f"{path.name}: rows have {table.shape[1]} fields, expected 2")
    return table


def check_ccdf_csvs(opdir: Path, expected: list[str]) -> None:
    for stem in expected:
        read_table(opdir / f"{stem}.csv", "x,ccdf")


def check_converged(report: dict, dampings: list[str]) -> None:
    for key in dampings:
        entry = report["pagerank"].get(key)
        if entry is None:
            raise CheckFailed(f"report.json: no PageRank entry for c={key}")
        if not entry["converged"]:
            raise CheckFailed(f"report.json: c={key} not converged "
                              f"({entry['iters_run']} iterations)")


def analysis_csvs(dampings: list[str], snapshots: list[int]) -> list[str]:
    stems = ["ccdf_indegree"]
    for key in dampings:
        stems.append(f"ccdf_pagerank_c{key}")
        stems += [f"ccdf_pagerank_c{key}_iter{k}" for k in snapshots]
    return stems


def _run_checks(steps) -> list[str]:
    """Run check callables in order; the first failure ends the op's checks."""
    for step in steps:
        try:
            step()
        except CheckFailed as exc:
            return [str(exc)]
        except (OSError, KeyError, TypeError, ValueError) as exc:
            return [f"missing or malformed output: {exc!r}"]
    return []


DAMPINGS = ["0.2", "0.5", "0.85"]
SNAPSHOTS = [1, 2]
TOL = 1e-9


# -- pipeline_1m -----------------------------------------------------------------

class Pipeline:
    """generate -> edges.txt -> analyze, through ranktail.cli.main."""

    name = "pipeline_1m"
    nodes = 1_000_000
    hist = '{"0": 0.1, "4": 0.68, "24": 0.22}'

    def prepare(self, seed: int, indir: Path) -> dict:
        (indir / "inputs.json").write_text(json.dumps({"seed": seed}), encoding="utf-8")
        return {"seed": seed}

    def load(self, indir: Path) -> dict:
        return json.loads((indir / "inputs.json").read_text(encoding="utf-8"))

    def op(self, inputs: dict, opdir: Path) -> dict:
        cli = _mod("cli")
        codes = [cli.main(["generate", "--nodes", str(self.nodes), "--alpha", "1.5",
                           "--mean-degree", "8", "--outdeg-hist", self.hist,
                           "--seed", str(inputs["seed"]), "--output-dir", str(opdir)])]
        if codes[0] == 0:
            argv = ["analyze", str(opdir / "edges.txt")]
            for c in DAMPINGS:
                argv += ["--damping", c]
            argv += ["--snapshots", *map(str, SNAPSHOTS), "--tol", repr(TOL),
                     "--output-dir", str(opdir)]
            codes.append(cli.main(argv))
        return {"exit_codes": codes}

    def persist(self, out: dict, opdir: Path) -> None:
        (opdir / "op.json").write_text(json.dumps(out), encoding="utf-8")

    def check(self, ctx: dict, opdir: Path) -> tuple[list[str], dict]:
        facts = {}

        def exit_codes():
            codes = _read_json(opdir / "op.json")["exit_codes"]
            if codes != [0, 0]:
                raise CheckFailed(f"CLI exit codes {codes}, expected [0, 0]")

        def edge_list():
            # n and m of the input, counted independently of ranktail's parser
            edges = read_table(opdir / "edges.txt", None, dtype=np.int64)
            lines = edges.shape[0]
            facts["m"] = lines
            facts["n"] = int(np.count_nonzero(np.bincount(edges.ravel())))  # ids < nodes
            synth_m = _read_json(opdir / "synth.json")["realized_profile"]["m"]
            if synth_m != lines:
                raise CheckFailed(f"edges.txt has {lines} lines, generator made {synth_m}")

        def report():
            rep = _read_json(opdir / "report.json")
            prof = rep["degree_profile"]
            if (prof["n"], prof["m"]) != (facts["n"], facts["m"]):
                raise CheckFailed(f"report.json n/m {prof['n']}/{prof['m']}, input has "
                                  f"{facts['n']}/{facts['m']}")
            check_converged(rep, DAMPINGS)

        failures = _run_checks([exit_codes, edge_list, report,
                                lambda: check_ccdf_csvs(opdir, analysis_csvs(DAMPINGS, SNAPSHOTS))])
        return failures, {"n": facts.get("n"), "m": facts.get("m")}

    def context(self, ctx: dict, info: dict) -> dict:
        n, m = info.get("n"), info.get("m")
        # int64 in_src and in_ptr, as load_edge_list builds them
        adjacency = 8 * (m + n + 1) if n and m else None
        return {"n": n, "m": m, "in_adjacency_bytes": adjacency}


# -- scores_inmem ---------------------------------------------------------------

def scores_edges(seed: int, n: int, m: int, alpha: float, d: float,
                 hist: dict[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """Seeded edge arrays (src, dst) made with numpy alone.

    In-degrees are Poisson with Pareto(alpha) rates of mean d, conditioned
    on the edge total m (so multinomial over the rates): every seed gives
    exactly m edges.  Each node is assigned an out-degree class from
    ``hist``; each edge's source is drawn with probability proportional to
    its assigned class, in two levels: a class by its total capacity, then
    a uniform member of that class.  dst comes out sorted.
    """
    rng = np.random.default_rng(seed)
    t_min = d * (alpha - 1.0) / alpha
    rates = t_min * (1.0 - rng.random(n)) ** (-1.0 / alpha)
    indeg = rng.multinomial(m, rates / rates.sum())

    classes = np.array(sorted(hist), dtype=np.int64)
    fractions = np.array([hist[int(j)] for j in classes])
    assigned = classes[rng.choice(classes.size, size=n, p=fractions)]
    members = [np.flatnonzero(assigned == j) for j in classes]
    capacity = np.array([j * mem.size for j, mem in zip(classes, members)], dtype=float)
    edge_class = rng.choice(classes.size, size=m, p=capacity / capacity.sum())
    src = np.empty(m, dtype=np.int64)
    for k, mem in enumerate(members):
        picked = edge_class == k
        count = int(picked.sum())
        if count:
            src[picked] = mem[rng.integers(0, mem.size, size=count)]
    dst = np.repeat(np.arange(n, dtype=np.int64), indeg)
    return src, dst


def fixed_point_residual(src, dst, n: int, scores: np.ndarray, c: float) -> float:
    """(1/n) sum |T(r) - r| for the scale-free PageRank map T, from edge arrays."""
    out_deg = np.bincount(src, minlength=n)
    dangling = out_deg == 0
    inv_out = np.zeros(n)
    inv_out[~dangling] = 1.0 / out_deg[~dangling]
    w = scores * inv_out
    gathered = np.bincount(dst, weights=w[src], minlength=n)
    mapped = c * (gathered + scores[dangling].sum() / n) + (1.0 - c)
    return float(np.abs(mapped - scores).sum() / n)


class ScoresInmem:
    """analyze_graph -> write_analysis -> pagerank(c=0.85) -> export_scores
    on a prebuilt graph; no text parse."""

    name = "scores_inmem"
    n = 1_000_000
    m = 12_000_000
    alpha = 1.1
    d = 16.0
    hist = {0: 0.1, 8: 0.68, 48: 0.22}
    final_c = 0.85

    def prepare(self, seed: int, indir: Path) -> dict:
        Graph = _mod("graph").Graph
        src, dst = scores_edges(seed, self.n, self.m, self.alpha, self.d, self.hist)
        g = Graph.from_edges(src, dst, self.n)
        np.save(indir / "in_ptr.npy", g.in_ptr)
        np.save(indir / "in_src.npy", g.in_src)
        np.save(indir / "out_deg.npy", g.out_deg)
        return {"src": src, "dst": dst,
                "in_adjacency_bytes": int(g.in_ptr.nbytes + g.in_src.nbytes)}

    def load(self, indir: Path):
        Graph = _mod("graph").Graph
        in_ptr = np.load(indir / "in_ptr.npy")
        return Graph(n=in_ptr.size - 1, m=int(in_ptr[-1]), in_ptr=in_ptr,
                     in_src=np.load(indir / "in_src.npy"),
                     out_deg=np.load(indir / "out_deg.npy"),
                     orig_ids=np.arange(in_ptr.size - 1, dtype=np.int64))

    def op(self, g, opdir: Path) -> dict:
        report, pr = _mod("report"), _mod("pagerank")
        options = report.AnalysisOptions(dampings=[float(c) for c in DAMPINGS], tol=TOL,
                                         snapshot_iters=SNAPSHOTS)
        rep, dists = report.analyze_graph(g, options)
        report.write_analysis(rep, dists, opdir)
        result = pr.pagerank(g, pr.PageRankParams(c=self.final_c, tol=TOL))
        pr.export_scores(g, result.scores, opdir / "scores_c0.85.csv")
        return {"final_converged": bool(result.converged), "final_iters": result.iters_run}

    def persist(self, out: dict, opdir: Path) -> None:
        (opdir / "op.json").write_text(json.dumps(out), encoding="utf-8")

    def check(self, ctx: dict, opdir: Path) -> tuple[list[str], dict]:
        n = self.n
        info = {}

        def report():
            rep = _read_json(opdir / "report.json")
            prof = rep["degree_profile"]
            if (prof["n"], prof["m"]) != (n, self.m):
                raise CheckFailed(f"report.json n/m {prof['n']}/{prof['m']}, input has "
                                  f"{n}/{self.m}")
            check_converged(rep, DAMPINGS)
            if not _read_json(opdir / "op.json")["final_converged"]:
                raise CheckFailed(f"pagerank c={self.final_c} not converged")

        def scores():
            path = opdir / "scores_c0.85.csv"
            table = read_table(path, "node_id,score")
            if table.shape[0] + 1 != n + 1:
                raise CheckFailed(f"{path.name}: {table.shape[0] + 1} lines, "
                                  f"expected n+1 = {n + 1}")
            if not np.array_equal(table[:, 0], np.arange(n)):
                raise CheckFailed(f"{path.name}: node ids are not 0..n-1 in order")
            r = table[:, 1]
            info["mean_minus_1"] = float(r.mean() - 1.0)
            if abs(info["mean_minus_1"]) > 1e-9:
                raise CheckFailed(f"score mean off by {info['mean_minus_1']:.3e} (> 1e-9)")
            resid = fixed_point_residual(ctx["src"], ctx["dst"], n, r, self.final_c)
            info["fixed_point_residual"] = resid
            if not resid <= 1e-8:
                raise CheckFailed(f"fixed-point L1 residual {resid:.3e} > 1e-8")

        failures = _run_checks([report, scores,
                                lambda: check_ccdf_csvs(opdir, analysis_csvs(DAMPINGS, SNAPSHOTS))])
        return failures, info

    def context(self, ctx: dict, info: dict) -> dict:
        return {"n": self.n, "m": self.m, "in_adjacency_bytes": ctx["in_adjacency_bytes"]}


# -- simulate_pool --------------------------------------------------------------

# Acceptance criterion 3's model and seed (tests/test_acceptance.py): alpha
# 1.1 and the three-atom histogram with d = 8.2, p0 = 0.006, b = 0.8558.  The
# seed stays crit3's: at alpha 1.1 one sample can draw millions of children,
# so the children per generation (the work) range from 5.7M to 15.5M across
# seeds, and a seed-varied pool would measure the seed, not the code.
CRIT3 = {"c": 0.85, "alpha": 1.1, "d": 8.2, "pool_size": 1_000_000, "seed": 5,
         "outdeg_hist": {"0": 0.006, "1": 0.2811662331939455,
                         "8": 0.6887450316717325, "100": 0.024088735134321942}}
# Criterion 5's model at alpha = 2.5, for the level totals Y_n; seeded by the
# benchmark seed.
CRIT5 = {"c": 0.5, "alpha": 2.5, "d": 2.5, "pool_size": 10_000,
         "outdeg_hist": {"0": 0.2, "1": 0.3, "2": 0.2, "4": 0.2, "10": 0.1}}

INFORMATIONAL_WHY = {
    "mean_within_5_over_sqrt_M": "a 5/sqrt(M) CLT band; invalid for alpha <= 2 "
                                 "(infinite variance), so false at alpha = 1.1",
    "tail_ratios.within_band": "the known crit3 shortfall at alpha = 1.1: the "
                               "asymptotic tail lies below pool resolution",
}


class SimulatePool:
    """``ranktail simulate`` for 8 generations at M = 1e6, then 10k
    weighted-tree samples of Y_0..Y_4."""

    name = "simulate_pool"
    generations = 8
    levels = 4
    tree_samples = 10_000

    def prepare(self, seed: int, indir: Path) -> dict:
        for stem, spec in (("crit3", CRIT3), ("crit5", {**CRIT5, "seed": seed})):
            (indir / f"{stem}.json").write_text(json.dumps(spec), encoding="utf-8")
        return {}

    def load(self, indir: Path) -> dict:
        spec5 = json.loads((indir / "crit5.json").read_text(encoding="utf-8"))
        return {"crit3": str(indir / "crit3.json"),
                "crit5": _mod("simulate").ModelSpec.from_dict(spec5)}

    def op(self, inputs: dict, opdir: Path) -> dict:
        cli, sim = _mod("cli"), _mod("simulate")
        code = cli.main(["simulate", inputs["crit3"], "--iters", str(self.generations),
                         "--output-dir", str(opdir)])
        y = sim.simulate_Y_levels(inputs["crit5"], self.levels, n_samples=self.tree_samples)
        return {"exit_code": code, "p0": inputs["crit5"].p0, "y": y}

    def persist(self, out: dict, opdir: Path) -> None:
        np.save(opdir / "y_values.npy", out["y"].values)
        np.save(opdir / "y_aborted.npy", out["y"].aborted)
        (opdir / "op.json").write_text(json.dumps({"exit_code": out["exit_code"],
                                                   "p0": out["p0"]}), encoding="utf-8")

    def check(self, ctx: dict, opdir: Path) -> tuple[list[str], dict]:
        info = {}

        def pool():
            op = _read_json(opdir / "op.json")
            if op["exit_code"] != 0:
                raise CheckFailed(f"simulate exit code {op['exit_code']}")
            summary = _read_json(opdir / "summary.json")
            if summary["generations"] != self.generations:
                raise CheckFailed(f"{summary['generations']} generations, "
                                  f"expected {self.generations}")
            inv = summary["invariants"]
            if not inv["values_at_least_baseline"]:
                raise CheckFailed("pool values below the baseline 1 - c(1-p0)")
            info["mean_within_5_over_sqrt_M"] = inv["mean_within_5_over_sqrt_M"]
            info["tail_ratios.within_band"] = summary.get("tail_ratios", {}).get("within_band")
            info["why"] = INFORMATIONAL_WHY
            read_table(opdir / "pool_ccdf.csv", "x,ccdf")

        def levels():
            p0 = _read_json(opdir / "op.json")["p0"]
            values = np.load(opdir / "y_values.npy")
            aborted = np.load(opdir / "y_aborted.npy")
            info["Y_abort_rate"] = float(aborted.mean())
            if aborted.any():
                raise CheckFailed(f"Y-level abort rate {aborted.mean():.4f}, expected 0")
            for level in range(self.levels + 1):
                vals = values[:, level]
                se = vals.std() / np.sqrt(vals.size)
                expected = (1.0 - p0) ** level
                if abs(vals.mean() - expected) > max(4 * se, 1e-12):
                    raise CheckFailed(f"E(Y_{level}) = {vals.mean():.5f}, expected "
                                      f"{expected:.5f} within 4 SE ({se:.5f})")

        return _run_checks([pool, levels]), info

    def context(self, ctx: dict, info: dict) -> dict:
        return {"n": CRIT3["pool_size"], "m": None, "in_adjacency_bytes": None}


WORKLOADS = {w.name: w for w in (Pipeline(), ScoresInmem(), SimulatePool())}
