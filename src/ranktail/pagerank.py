"""Scale-free PageRank by power iteration with explicit dangling-mass handling.

Scores are normalized so the population mean is 1.  Each iteration applies

    R_new(i) = c * sum_{j -> i} R(j)/out_deg(j) + c * dm + (1 - c),

where dm = (1/n) * sum over dangling j of R(j).  The update is two-buffer
(Jacobi): iteration k is a pure function of iteration k-1, which makes the
per-iteration snapshots well defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, write_rows


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
    params: PageRankParams


def _in_edge_sums(g: Graph, w: np.ndarray) -> np.ndarray:
    # Per-destination sums of w over in-edges.  reduceat mishandles empty
    # segments, so reduce only over non-empty rows; consecutive non-empty
    # starts still delimit the right segments because empty rows contribute
    # no elements in between.
    sums = np.zeros(g.n)
    gathered = w[g.in_src]
    if gathered.size:
        starts = g.in_ptr[:-1]
        nonempty = g.in_ptr[1:] > starts
        sums[nonempty] = np.add.reduceat(gathered, starts[nonempty])
    return sums


def pagerank(g: Graph, params: PageRankParams | None = None) -> PageRankResult:
    """Power iteration from R = 1, stopping at L1 tolerance or max_iters."""
    if params is None:
        params = PageRankParams()
    if g.n < 1:
        raise ValueError("graph must have at least one node")
    n = g.n
    c = params.c
    inv_out = np.zeros(n)
    linked = g.out_deg > 0
    inv_out[linked] = 1.0 / g.out_deg[linked]
    dangling = ~linked

    r = np.ones(n)
    residuals = []
    snapshots: dict[int, np.ndarray] = {}
    converged = False
    iters = 0
    for k in range(1, params.max_iters + 1):
        dm = r[dangling].sum() / n
        r_new = c * (_in_edge_sums(g, r * inv_out) + dm) + (1.0 - c)
        resid = np.abs(r_new - r).sum() / n
        residuals.append(resid)
        r = r_new
        iters = k
        if k in params.snapshot_iters:
            snapshots[k] = r.copy()
        if resid <= params.tol:
            converged = True
            break
    return PageRankResult(scores=r, iters_run=iters, residuals=np.asarray(residuals),
                          snapshots=snapshots, converged=converged, params=params)


def dangling_mass_fraction(scores: np.ndarray, g: Graph) -> float:
    """(1/n) * sum of scores over dangling nodes."""
    scores = np.asarray(scores)
    if scores.size != g.n:
        raise ValueError("scores length must equal the node count")
    return float(scores[g.dangling].sum() / g.n)


def export_scores(g: Graph, scores: np.ndarray, dest) -> None:
    """Write "node_id,score" CSV using original node ids, one row per node."""
    write_rows(dest, "node_id,score", g.orig_ids, np.asarray(scores, dtype=float), ",", "\r\n")
