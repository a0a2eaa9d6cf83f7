"""Scale-free PageRank by power iteration with explicit dangling-mass handling.

Scores are normalized so the population mean is 1.  For a damping c they
solve

    R(i) = c * sum_{j -> i} R(j)/out_deg(j) + c * dm + (1 - c),

where dm = (1/n) * sum over dangling j of R(j).  Let A be the linear map
r -> (in-edge sums of r/out_deg) + dm(r) and x_i = A^i 1.  The Jacobi
iteration from R_0 = 1 is then the series

    R_k(c) = (1 - c) * sum_{i<k} c^i x_i + c^k x_k,

and the x_i do not depend on c, so every damping shares one sequence of
sparse products (Boldi, Santini & Vigna 2005, "PageRank as a function of the
damping factor").  Each step is R_k - R_{k-1} = c^k (x_k - x_{k-1}), so a
damping's residual (1/n) ||R_k - R_{k-1}||_1 is c^k times the shared
(1/n) ||x_k - x_{k-1}||_1.  Each damping stops, keeps its snapshots and
reports on its own; iteration k is a pure function of iteration k-1, which
makes the per-iteration snapshots well defined.

The in-edge sums gather and reduce blocks of about _BLOCK_EDGES edges through
reused buffers, so a block's gathered values are still in cache when they are
reduced and the scratch memory does not grow with the edge count.  The blocks
are split into at most one run of consecutive blocks per CPU the process may
use, the largest run as small as whole blocks allow.  The calling thread does
the first run and a thread pool that lives for one ``pagerank_series`` call
does the others; numpy releases the interpreter lock in the gather and the
reduce.  A row's sum is the same reduceat over the same block whichever run
does it, so scores, snapshots and residuals are bit-identical for every
worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import Graph, _cpu_count, write_csv

_BLOCK_EDGES = 1 << 16


@dataclass(frozen=True)
class PageRankParams:
    c: float = 0.85
    tol: float = 1e-10
    max_iters: int = 200
    snapshot_iters: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"damping factor must be in (0, 1), got {self.c}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        object.__setattr__(self, "snapshot_iters", frozenset(int(k) for k in self.snapshot_iters))
        if not all(1 <= k <= self.max_iters for k in self.snapshot_iters):
            raise ValueError(f"snapshot iterations must lie in [1, max_iters = {self.max_iters}], "
                             f"got {sorted(self.snapshot_iters)}")


@dataclass(frozen=True)
class PageRankResult:
    """Converged (or capped) scores plus per-iteration metadata.

    ``residuals[k-1]`` is the L1 change (1/n) sum |R_k - R_{k-1}| after
    iteration k; ``snapshots`` holds the full score vector at each requested
    iteration index.
    """

    scores: np.ndarray
    iters_run: int
    residuals: np.ndarray
    snapshots: dict[int, np.ndarray]
    converged: bool


def _balanced_cuts(sizes: list[int], parts: int) -> list[int]:
    """Cuts 0 = c_0 < c_1 < ... < c_r = len(sizes), with r <= parts, that split
    ``sizes`` into runs of consecutive items whose largest sum is the least
    possible.  That sum is found by binary search; a greedy packing tells
    whether a cap fits in ``parts`` runs, and gives the runs for the least."""
    def pack(cap):
        cuts, total = [0], 0
        for i, size in enumerate(sizes):
            if total + size > cap:
                cuts.append(i)
                total = 0
            total += size
        return cuts + [len(sizes)] if sizes else cuts

    low, high = max(sizes, default=0), sum(sizes)
    while low < high:
        mid = (low + high) // 2
        if len(pack(mid)) - 1 <= parts:
            high = mid
        else:
            low = mid + 1
    return pack(low)


def _in_edge_kernel(g: Graph, workers: int, pool: ThreadPoolExecutor):
    """A function ``sums(w, out)`` that sets out[i] to the sum of w over the
    in-edges of i.

    The table of non-empty rows and the block cuts are built once, here.  A
    block holds whole rows, so a row longer than _BLOCK_EDGES makes a block of
    its own length.  reduceat mishandles empty segments, so it runs over the
    non-empty rows only and their sums are scattered into ``out``.

    The blocks are split into at most ``workers`` runs of consecutive blocks,
    the largest run as small as whole blocks allow (`_balanced_cuts`).  The
    calling thread does the first run and ``pool`` the others.
    Runs write disjoint rows of ``out``, and each has its own buffers, sized
    to its largest block.
    """
    rows = np.flatnonzero(np.diff(g.in_ptr))
    starts = g.in_ptr[rows]
    cuts = np.append(np.unique(np.searchsorted(starts, np.arange(0, g.m, _BLOCK_EDGES))),
                     rows.size)
    edge_cuts = np.append(starts, g.m)[cuts]
    offsets = starts - np.repeat(edge_cuts[:-1], np.diff(cuts))  # row starts within a block
    blocks = list(zip(edge_cuts[:-1].tolist(), edge_cuts[1:].tolist(),
                      cuts[:-1].tolist(), cuts[1:].tolist()))
    run_cuts = _balanced_cuts(np.diff(edge_cuts).tolist(), workers)
    in_src = g.in_src

    def make_run(blocks):
        gathered = np.empty(max(e1 - e0 for e0, e1, _, _ in blocks))
        reduced = np.empty(max(r1 - r0 for _, _, r0, r1 in blocks))

        def run(w: np.ndarray, out: np.ndarray) -> None:
            for e0, e1, r0, r1 in blocks:
                seg = gathered[:e1 - e0]
                # a Graph's ids lie in [0, n), and "clip" skips the bounds check
                np.take(w, in_src[e0:e1], out=seg, mode="clip")
                red = reduced[:r1 - r0]
                np.add.reduceat(seg, offsets[r0:r1], out=red)
                out[rows[r0:r1]] = red
        return run

    runs = [make_run(blocks[b0:b1]) for b0, b1 in zip(run_cuts[:-1], run_cuts[1:])]

    def sums(w: np.ndarray, out: np.ndarray) -> None:
        out.fill(0.0)
        futures = [pool.submit(run, w, out) for run in runs[1:]]
        if runs:
            runs[0](w, out)
        for future in futures:
            future.result()

    return sums


def series_params(dampings, tol: float, max_iters: int, snapshot_iters) -> list[PageRankParams]:
    """One checked PageRankParams per damping of a series.  The tol, cap and
    snapshot indices are checked also when there is no damping, and the
    dampings must be distinct, since one series serves them all."""
    shared = PageRankParams(tol=tol, max_iters=max_iters, snapshot_iters=snapshot_iters)
    params = [replace(shared, c=c) for c in dampings]
    if len({p.c for p in params}) < len(params):
        raise ValueError(f"dampings must be distinct, got {[p.c for p in params]}")
    return params


def pagerank_series(g: Graph, dampings, tol: float = PageRankParams.tol,
                    max_iters: int = PageRankParams.max_iters,
                    snapshot_iters=()) -> list[PageRankResult]:
    """Power iteration from R = 1 for every damping at once; each damping stops
    at L1 tolerance or max_iters.  Results come in the order of ``dampings``,
    which must be distinct.  The in-edge sums run on one thread per CPU the
    process may use, from a pool that lives for this call."""
    params = series_params(dampings, tol, max_iters, snapshot_iters)
    if g.n < 1:
        raise ValueError("graph must have at least one node")
    if not params:
        return []
    snapshot_iters = params[0].snapshot_iters
    n = g.n
    inv_out = np.zeros(n)
    linked = g.out_deg > 0
    inv_out[linked] = 1.0 / g.out_deg[linked]
    dangling = np.flatnonzero(~linked)

    x, x_next, scratch = np.ones(n), np.empty(n), np.empty(n)
    # per damping: (1 - c) * sum_{i<k} c^i x_i, which becomes R_k when it stops
    accs = [np.zeros(n) for _ in params]
    residuals: list[list[float]] = [[] for _ in params]
    snapshots: list[dict[int, np.ndarray]] = [{} for _ in params]
    results: list[PageRankResult | None] = [None] * len(params)
    live = list(range(len(params)))
    workers = _cpu_count()
    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
        in_edge_sums = _in_edge_kernel(g, workers, pool)
        for k in range(1, max_iters + 1):
            np.multiply(x, inv_out, out=scratch)
            in_edge_sums(scratch, x_next)
            x_next += x[dangling].sum() / n
            np.subtract(x_next, x, out=scratch)
            step = float(np.abs(scratch, out=scratch).sum()) / n
            for d in live:
                c, acc = params[d].c, accs[d]
                np.multiply(x, (1.0 - c) * c ** (k - 1), out=scratch)
                acc += scratch
                resid = c ** k * step
                residuals[d].append(resid)
                done = resid <= tol or k == max_iters
                if not (done or k in snapshot_iters):
                    continue
                np.multiply(x_next, c ** k, out=scratch)
                if k in snapshot_iters:
                    snapshots[d][k] = acc + scratch
                if done:
                    acc += scratch
                    results[d] = PageRankResult(scores=acc, iters_run=k,
                                                residuals=np.asarray(residuals[d]),
                                                snapshots=snapshots[d], converged=resid <= tol)
            live = [d for d in live if results[d] is None]
            if not live:
                break
            x, x_next = x_next, x
    return results


def pagerank(g: Graph, params: PageRankParams | None = None) -> PageRankResult:
    """Power iteration from R = 1 for one damping, stopping at L1 tolerance or
    max_iters."""
    if params is None:
        params = PageRankParams()
    return pagerank_series(g, [params.c], params.tol, params.max_iters,
                           params.snapshot_iters)[0]


def export_scores(g: Graph, scores: np.ndarray, dest) -> None:
    """Write "node_id,score" CSV using original node ids, one row per node."""
    write_csv(dest, "node_id,score", g.orig_ids, np.asarray(scores, dtype=float))
