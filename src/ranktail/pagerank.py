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
(1/n) ||x_k - x_{k-1}||_1.  Each damping stops and reports on its own;
iteration k is a pure function of iteration k-1, which makes the
per-iteration snapshots well defined.

The in-edge sums run on every CPU the process may use (`_in_edge_kernel`),
and the series' other passes on the kernel's runs (`_series`).  A row's sum
is the same reduction of the same edges whichever thread makes it, and
every other value is the same elementwise operation on the same operands as
over whole vectors, so scores, snapshots and residuals are bit-identical
for every CPU count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import blocks as blocks_mod
from . import graph
from .blocks import _map_ordered, _segment_blocks
from .formats import _is_int, write_csv
from .graph import Graph

_BLOCK_EDGES = 1 << 16
_PIECE_NODES = 1 << 15  # pass B's piece: its slices of the series' vectors stay in cache


@dataclass(frozen=True)
class PageRankParams:
    c: float = 0.85
    tol: float = 1e-10
    max_iters: int = 200
    snapshot_iters: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"damping factor must be in (0, 1), got {self.c}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not _is_int(self.max_iters) or self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1 and an integer, got {self.max_iters!r}")
        snapshots = list(self.snapshot_iters)
        if not all(_is_int(k) for k in snapshots):
            raise ValueError(f"snapshot iterations must be integers, got {snapshots!r}")
        object.__setattr__(self, "snapshot_iters", frozenset(int(k) for k in snapshots))
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


def _in_edge_kernel(g: Graph):
    """A function ``sums(w, out, finish=None)`` that sets out[i] to the sum of
    w over the in-edges of i, then, when ``finish`` is given, calls
    finish(lo, hi) for the node range [lo, hi) of each run of blocks.

    The blocks (`blocks._segment_blocks` over every row's in-degree) are cut
    once, here.  A block holds whole rows, a row longer than _BLOCK_EDGES is
    a block of its own, and each block ends at its last non-empty row, so a
    block's gathered values are still in cache when they are reduced and no
    scratch array is larger than the largest block.  A
    block's sums are one reduceat of its gathered values at its rows'
    offsets, read off in_ptr, and assigned to its rows of ``out``; no table
    of rows or offsets is kept.  reduceat gives an empty row the value at
    its offset, so every empty row of a run, inside a block or between two,
    is then zeroed from one sorted list of the empty rows, at the id width.
    Blocks write disjoint rows of ``out``, and each block's gathered values
    and sums live only while it runs.  The blocks are grouped, by the same
    cut, into runs of about m / CPUs edges, one `_map_ordered` item each,
    so that no CPU waits on a window of small items behind a hub's block; a
    block longer than that is a run of its own.  A run sums its blocks one
    at a time, and numpy releases the interpreter lock in the gather and the
    reduce, so the runs proceed in parallel.

    Each run owns the contiguous node range its blocks cover, and the empty
    rows between two runs go to the later run: run 0 starts at node 0 and
    the last run ends at n.  A graph of no edge has one run of no block,
    owning every node.  ``finish`` runs over the ranges in a second pass,
    once every sum is in, since a run's gather reads w over all nodes.
    """
    in_ptr, in_deg = g.in_ptr, g.in_deg
    blocks = _segment_blocks(in_deg, _BLOCK_EDGES)
    # a block ending at edge e1 ends after its last row that starts before
    # e1; searched at in_ptr's width, so that in_ptr is not copied
    stops = np.searchsorted(in_ptr, np.array([e1 for _, e1, _, _ in blocks], in_ptr.dtype))
    blocks = [(e0, e1, r0, r1) for (e0, e1, r0, _), r1 in zip(blocks, stops.tolist())]
    # at the width that holds a run's bound n, so the bounds search copies nothing
    empty = np.flatnonzero(in_deg == 0).astype(graph._id_dtype(g.n + 1))
    sizes = np.array([e1 - e0 for e0, e1, _, _ in blocks], np.int64)
    groups = _segment_blocks(sizes, max(-(-g.m // blocks_mod._cpu_count()), 1))
    # a run ends after the last row of its last block, the last run at n
    ends = [blocks[b1 - 1][3] for _, _, _, b1 in groups[:-1]] + [g.n]
    runs = [(lo, hi, blocks[b0:b1])
            for lo, hi, (_, _, b0, b1) in zip([0, *ends], ends, groups)] or [(0, g.n, [])]

    def sums(w: np.ndarray, out: np.ndarray, finish=None) -> None:
        def run(item):
            lo, hi, cuts = item
            for e0, e1, r0, r1 in cuts:
                # a Graph's ids lie in [0, n), and "clip" skips the bounds check
                seg = np.take(w, g.in_src[e0:e1], mode="clip")
                out[r0:r1] = np.add.reduceat(seg, in_ptr[r0:r1] - e0)
            z0, z1 = np.searchsorted(empty, np.array([lo, hi], empty.dtype)).tolist()
            out[empty[z0:z1]] = 0.0

        for _ in _map_ordered(run, runs):
            pass
        if finish is not None:
            for _ in _map_ordered(lambda item: finish(item[0], item[1]), runs):
                pass

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
    which must be distinct.  The in-edge sums run on every CPU the process
    may use.  Each snapshot the series lends (`_series`) is copied into its
    damping's result, so every vector is held until the last damping
    stops."""
    params = series_params(dampings, tol, max_iters, snapshot_iters)
    results: list[PageRankResult | None] = [None] * len(params)
    snapshots: list[dict[int, np.ndarray]] = [{} for _ in params]
    for d, k, taken in _series(g, params):
        if k is None:
            results[d] = replace(taken, snapshots=snapshots[d])
        else:  # a snapshot is lent until the series resumes
            snapshots[d][k] = taken.copy()
    return results


def _series(g: Graph, params: list[PageRankParams]):
    """Run the series of ``params`` (`series_params`), yielding each vector
    when it is taken.

    Damping params[d]'s snapshot R_k is yielded as (d, k, R_k); when the
    damping stops, (d, None, result) follows, with ``result.snapshots``
    empty.  A snapshot is lent: it is the series' own vector, valid until
    the series resumes, when it is written over; a consumer that keeps it
    copies it.  A result's scores are its damping's accumulator, which the
    series writes to no more and drops before its next product, so a
    consumer that drops each vector when done with it holds at most one.

    The series holds x = x_k, x_next, w = x / out_deg (0 at dangling nodes)
    and one accumulator per damping still running; the kernel's blocks and
    its list of empty rows are built before them.  Each product is the
    kernel's gather into x_next (pass A), then pass B over each run's node
    range, a piece of _PIECE_NODES nodes at a time: x_next gets the
    dangling mass, each accumulator (1 - c) c^(k-1) x, x becomes
    |x_next - x| and w becomes x_next / out_deg, with the reciprocals taken
    from out_deg per piece.
    The L1 step is then one sum of x, after which x is free: a snapshot is
    built in it.  Every value is the one the elementwise passes over whole
    vectors give, on any CPU count.  A piece's slices of the series' vectors
    stay in cache while the piece is finished.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one node")
    if not params:
        return
    tol, max_iters, snapshot_iters = params[0].tol, params[0].max_iters, params[0].snapshot_iters
    n = g.n
    in_edge_sums = _in_edge_kernel(g)
    dangling = np.flatnonzero(g.out_deg == 0).astype(graph._id_dtype(n))

    def divide_out(v, lo, hi):  # w[lo:hi] = v * (1 / out_deg), 0 where out_deg is 0
        deg, out = g.out_deg[lo:hi], w[lo:hi]
        out[:] = deg
        np.maximum(out, 1.0, out=out)  # no division by zero
        np.divide(1.0, out, out=out)
        out *= deg > 0
        out *= v

    x, x_next, w = np.ones(n), np.empty(n), np.empty(n)
    for lo in range(0, n, _PIECE_NODES):
        hi = min(lo + _PIECE_NODES, n)
        divide_out(x[lo:hi], lo, hi)
    # per damping: (1 - c) * sum_{i<k} c^i x_i, which becomes R_k when it
    # stops, and None after that
    accs: list[np.ndarray | None] = [np.zeros(n) for _ in params]
    residuals: list[list[float]] = [[] for _ in params]
    live = list(range(len(params)))
    for k in range(1, max_iters + 1):
        dm = x[dangling].sum() / n
        terms = [(accs[d], (1.0 - params[d].c) * params[d].c ** (k - 1)) for d in live]

        def finish(lo, hi):  # pass B over one run's nodes
            term = np.empty(_PIECE_NODES)
            for a in range(lo, hi, _PIECE_NODES):
                b = min(a + _PIECE_NODES, hi)
                xa, nexta, terma = x[a:b], x_next[a:b], term[:b - a]
                nexta += dm
                for acc, weight in terms:
                    np.multiply(xa, weight, out=terma)
                    acc[a:b] += terma
                np.subtract(nexta, xa, out=xa)
                np.abs(xa, out=xa)
                divide_out(nexta, a, b)

        in_edge_sums(w, x_next, finish)
        step = float(x.sum()) / n
        for d in live:
            c = params[d].c
            resid = c ** k * step
            residuals[d].append(resid)
            done = resid <= tol or k == max_iters
            if k in snapshot_iters:
                np.multiply(x_next, c ** k, out=x)
                x += accs[d]
                yield d, k, x  # lent until the series resumes
            if done:
                np.multiply(x_next, c ** k, out=x)
                accs[d] += x
                yield d, None, PageRankResult(scores=accs[d], iters_run=k,
                                              residuals=np.asarray(residuals[d]),
                                              snapshots={}, converged=resid <= tol)
                accs[d] = None
        live = [d for d in live if accs[d] is not None]
        if not live:
            break
        x, x_next = x_next, x


def pagerank(g: Graph, params: PageRankParams | None = None) -> PageRankResult:
    """Power iteration from R = 1 for one damping, stopping at L1 tolerance or
    max_iters."""
    if params is None:
        params = PageRankParams()
    return pagerank_series(g, [params.c], params.tol, params.max_iters,
                           params.snapshot_iters)[0]


def export_scores(g: Graph, scores: np.ndarray, dest) -> None:
    """Write "node_id,score" CSV using original node ids, one row per node, to
    a path (gzipped when it ends in ".gz") or a binary stream; a text stream
    raises TypeError."""
    write_csv(dest, "node_id,score", g.orig_ids, np.asarray(scores, dtype=float))
