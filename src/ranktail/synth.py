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

from .graph import Graph, _is_int
from .simulate import InDegreeLaw
from .theory import validate_outdegree_hist


@dataclass(frozen=True)
class SynthSpec:
    """Generator parameters.  The histogram includes the dangling fraction at
    key 0 and must have mean d, checked as ``ModelSpec`` checks its own."""

    n: int
    alpha: float
    d: float
    outdeg_hist: dict[int, float]
    seed: int = 0
    indegree: InDegreeLaw = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 1_000:
            raise ValueError("need at least 1000 nodes for a meaningful degree law")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "indegree", InDegreeLaw(self.alpha, self.d))
        validate_outdegree_hist(self.outdeg_hist, self.d)


_SELF_LOOP_REDRAWS = 100


def generate(spec: SynthSpec) -> Graph:
    """Sample a graph: i.i.d. in-degrees, class assignment, uniform out-stubs.

    Self-loops are redrawn up to 100 times and then accepted.  Raises when
    the assigned classes leave no out-capacity but in-stubs exist.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    indeg = spec.indegree.sample(rng, n)

    classes_j = np.array(sorted(spec.outdeg_hist), dtype=np.int64)
    class_p = np.array([spec.outdeg_hist[int(j)] for j in classes_j])
    assigned = classes_j[rng.choice(classes_j.size, size=n, p=class_p / class_p.sum())]

    stubs = np.repeat(np.arange(n, dtype=np.int64), assigned)  # owner of each out-stub
    capacity = stubs.size
    m = int(indeg.sum())
    if m == 0:
        return Graph.from_edges(np.empty(0, np.int64), np.empty(0, np.int64), n)
    if capacity == 0:
        raise ValueError("no out-capacity assigned but in-stubs exist")

    def sources(size):  # owners of `size` uniform out-stubs
        return stubs[(rng.random(size) * capacity).astype(np.int64)]

    dst = np.repeat(np.arange(n, dtype=np.int64), indeg)
    src = sources(m)
    for _ in range(_SELF_LOOP_REDRAWS):
        loops = np.flatnonzero(src == dst)
        if loops.size == 0:
            break
        src[loops] = sources(loops.size)
    del stubs  # the out-stub table is as large as src; free it before the build
    return Graph.from_edges(src, dst, n)
