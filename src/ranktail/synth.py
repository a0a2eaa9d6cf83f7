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

import warnings
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph
from .simulate import InDegreeLaw
from .theory import validate_outdegree_hist


@dataclass(frozen=True)
class SynthSpec:
    """Generator parameters.  The histogram mean must equal d; if it is off
    by more than 1e-6 relative, the non-dangling fractions are rescaled (the
    dangling fraction absorbs the difference) with a warning."""

    n: int
    alpha: float
    d: float
    outdeg_hist: dict[int, float]
    seed: int = 0
    fixed_indegree: int | None = None
    indegree: InDegreeLaw = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 1_000:
            raise ValueError("need at least 1000 nodes for a meaningful degree law")
        object.__setattr__(self, "indegree", InDegreeLaw(self.alpha, self.d))
        if self.fixed_indegree is not None and self.fixed_indegree < 0:
            raise ValueError("fixed in-degree must be non-negative")
        hist = {int(j): float(p) for j, p in self.outdeg_hist.items()}
        validate_outdegree_hist(hist)
        mean = sum(j * p for j, p in hist.items())
        if abs(mean - self.d) > 1e-6 * max(self.d, 1.0):
            if mean <= 0:
                raise ValueError("histogram has no out-degree mass; cannot rescale to d")
            scale = self.d / mean
            linked = scale * (1.0 - hist.get(0, 0.0))
            if linked > 1.0:
                raise ValueError(f"cannot rescale histogram (mean {mean!r}) to d={self.d!r}")
            hist = {j: scale * p for j, p in hist.items() if j >= 1}
            hist[0] = 1.0 - linked
            warnings.warn(f"out-degree histogram mean {mean!r} != d={self.d!r}; "
                          "rescaled non-dangling fractions to match")
        object.__setattr__(self, "outdeg_hist", hist)


_SELF_LOOP_REDRAWS = 100


def generate(spec: SynthSpec) -> Graph:
    """Sample a graph: i.i.d. in-degrees, class assignment, uniform out-stubs.

    Self-loops are redrawn up to 100 times and then accepted.  Raises when
    the assigned classes leave no out-capacity but in-stubs exist.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    if spec.fixed_indegree is not None:
        indeg = np.full(n, spec.fixed_indegree, dtype=np.int64)
    else:
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
