"""Random directed graphs with heavy-tailed in-degrees and a prescribed
out-degree histogram.

In-degrees are drawn i.i.d. from the simulator's ``InDegreeLaw``;
each node is independently assigned an out-degree class from the histogram
and gets that many out-stubs, and every in-stub picks a uniform out-stub
(independently, with replacement), so a source is picked with probability
proportional to its assigned class.  This preserves
the size-biased effective out-degree law j*p_j/d that the tail theory
consumes; realized out-degrees scatter (roughly Poisson) around the
assigned classes, so end-to-end checks should always use the realized
degree profile, not the target histogram.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocks import _map_ordered, _segment_counts
from .formats import _is_int
from .graph import Graph, _id_dtype
from .simulate import InDegreeLaw
from .theory import validate_outdegree_hist


@dataclass(frozen=True)
class SynthSpec:
    """Generator parameters.  The histogram includes the dangling fraction at
    key 0 and must have mean d, checked as ``ModelSpec`` checks its own.
    ``indegree``, the `InDegreeLaw` of alpha and d, is built once, with the
    spec, and serves every draw of the in-degrees."""

    n: int
    alpha: float
    d: float
    outdeg_hist: dict[int, float]
    seed: int = 0
    indegree: InDegreeLaw = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 1_000:
            raise ValueError("n must be an integer of at least 1000 (a meaningful degree "
                             f"law), got {self.n!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "indegree", InDegreeLaw(self.alpha, self.d))
        validate_outdegree_hist(self.outdeg_hist, self.d)


_SELF_LOOP_REDRAWS = 100
_DRAW_PIECE = 1 << 18  # uniforms handed out at a time, 2 MB of draws


def generate(spec: SynthSpec) -> Graph:
    """Sample a graph: i.i.d. in-degrees, class assignment, uniform out-stubs.

    Self-loops are redrawn up to 100 times and then accepted.  Raises when
    the assigned classes leave no out-capacity but in-stubs exist.

    The ids are at the width of `graph._id_dtype` (int32 up to 2**31
    nodes), and in_ptr and out_deg at the width of m + 1.  Every draw is
    made on the calling thread, in the same order whatever the CPU count,
    so a graph is byte-identical on one CPU and on many: the sources'
    uniforms in pieces of _DRAW_PIECE, which draw the same numbers as one
    call, then the redraws.  Each piece's stub lookup,
    destinations and self-loop check are mapped over every CPU
    (`blocks._map_ordered`).  No array of one entry per edge is made but the
    out-stub table and in_src: each piece's destinations are found from the
    in-degrees (`_segment_counts`), and only redrawn edges are checked again.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    indeg = spec.indegree.sample(rng, n)

    classes_j = np.array(sorted(spec.outdeg_hist), dtype=np.int64)
    class_p = np.array([spec.outdeg_hist[int(j)] for j in classes_j])
    assigned = classes_j[rng.choice(classes_j.size, size=n, p=class_p / class_p.sum())]

    width = _id_dtype(n)
    stubs = np.repeat(np.arange(n, dtype=width), assigned)  # owner of each out-stub
    capacity = stubs.size
    m = int(indeg.sum())
    in_ptr = np.zeros(n + 1, dtype=_id_dtype(m + 1))
    ends = np.cumsum(indeg, out=in_ptr[1:])
    if m and capacity == 0:
        raise ValueError("no out-capacity assigned but in-stubs exist")

    def owners(picks, out):  # out[:] = owners of the out-stubs at uniforms picks
        picks *= capacity
        np.take(stubs, picks.astype(np.intp), out=out, mode="clip")  # picks < capacity

    src = np.empty(m, dtype=width)

    def pieces():  # (first edge, its piece's uniforms), drawn in edge order
        for start in range(0, m, _DRAW_PIECE):
            yield start, rng.random(min(_DRAW_PIECE, m - start))

    def place(piece):  # sets the piece's sources; gives its self-loops' edges
        start, picks = piece
        chunk = src[start:start + picks.size]
        owners(picks, chunk)
        lo, counts = _segment_counts(ends, start, start + chunk.size)
        dst = np.repeat(np.arange(lo, lo + counts.size, dtype=width), counts)
        return np.flatnonzero(chunk == dst) + start

    loops = np.concatenate([np.empty(0, np.intp), *_map_ordered(place, pieces())])
    for _ in range(_SELF_LOOP_REDRAWS):
        if loops.size == 0:
            break
        redrawn = np.empty(loops.size, dtype=width)
        owners(rng.random(loops.size), redrawn)
        src[loops] = redrawn
        # searched at ends' width, which holds every edge index
        loops = loops[redrawn == np.searchsorted(ends, loops.astype(ends.dtype), side="right")]
    del stubs  # the out-stub table is as large as src; free it before the build
    return Graph(n=n, m=m, in_ptr=in_ptr, in_src=src)
