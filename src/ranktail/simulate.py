"""Monte Carlo engine for the distributional score recursion.

The in-degree N of a random node follows ``InDegreeLaw``, a mixed Poisson
whose mean is d and whose tail has index alpha.  The recursion

    R <- c * sum_{j=1..N} R_j / D_j + [1 - c*(1-p0)]

is iterated by population dynamics: a pool of M samples approximates the
law of R at each generation, and every child value R_j is resampled
uniformly (with replacement) from the previous pool.  D is the effective
(size-biased) out-degree with P(D=j) = j*p_j/d, drawn by inverse CDF from
one uniform each through a guide table (``EffectiveOutdegreeSampler``) that
gives exactly the class a binary search of the cumulative sums gives.

A generation draws all its random numbers on the calling thread, so the
stream does not depend on the CPU count.  The work on those draws runs on
every CPU the process may use (`graph._map_ordered`, as the edge-list loader
and writer and the PageRank kernel), in blocks cut only between samples by
`graph._segment_blocks`: a sample's children are then summed in one block,
in order, and pools are byte-identical on one CPU and on many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import (_is_int, _map_ordered, _segment_blocks, _segment_counts, decode_fields,
                    hist_to_json, parse_hist)
from .theory import validate_outdegree_hist

_CHUNK = 1 << 22
_BLOCK = 1 << 18  # children per block of a chunk's draw-free work
_GUIDE_MAX = 1 << 16  # the most buckets of an out-degree guide table
_W1_TOL = 1e-3
_MAX_GENERATIONS = 200
_CCDF_WINDOW = (1e-5, 1e-3)  # CCDF levels where the tail ratio is checked
_NODE_BUDGET = 10_000_000  # nodes one Y-level tree may grow before it is aborted


class SimulationConvergenceError(RuntimeError):
    """The generation count that reaches R_inf exceeds the cap."""

    def __init__(self, generations: int, rate: float):
        super().__init__(
            f"pool distribution needs {generations} generations to converge "
            f"(contraction factor c*(1-p0) = {rate:.6g}), above the cap of "
            f"{_MAX_GENERATIONS}")
        self.generations = generations


@dataclass(frozen=True)
class InDegreeLaw:
    """The in-degree law N = Poisson(T), with T Pareto of index alpha and
    scale t_min = d*(alpha-1)/alpha, so E(N) = E(T) = d and N inherits the
    power-law tail of T."""

    alpha: float
    d: float

    def __post_init__(self):
        if not 1.0 < self.alpha < math.inf:
            raise ValueError("tail index alpha must exceed 1 (finite mean in-degree) and be "
                             f"finite, got {self.alpha}")
        if not 0 < self.d < math.inf:
            raise ValueError(f"mean degree must be positive and finite, got {self.d}")

    @property
    def t_min(self) -> float:
        """Pareto scale chosen so that E(T) = d."""
        return self.d * (self.alpha - 1.0) / self.alpha

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draws of N; each Pareto rate T comes from one uniform by inverse CDF."""
        u = 1.0 - rng.random(size)  # in (0, 1], keeps T finite
        return rng.poisson(self.t_min * u ** (-1.0 / self.alpha))

    def tail(self, x):
        """P(T > x): (x/t_min)^(-alpha) from t_min up, 1 below it."""
        return (np.maximum(x, self.t_min) / self.t_min) ** -self.alpha


class EffectiveOutdegreeSampler:
    """Inverse-CDF table for the size-biased out-degree law q_j = j*p_j/d of
    a histogram with mean d.  ``values`` and ``probabilities`` hold the
    support j >= 1 and q_j.

    A uniform u stands for class i = #{cuts <= u}, the index that
    ``np.searchsorted(cum, u, side="right")`` gives for the cumulative sums
    ``cum`` of q_j.  ``lookup`` reads it through a guide table (Chen & Asau
    1974; Devroye 1986, *Non-Uniform Random Variate Generation*, III.2.4):
    K buckets, K a power of two so that u*K and b/K are exact, and
    G[b] = #{cuts <= b/K}.  Every u in bucket b = floor(u*K) lies at most P
    cuts past G[b], P being the most cuts strictly inside one bucket, so
    ceil(log2(P + 1)) correction passes, each adding a power of two s where
    u >= cum[i + s - 1], land on i exactly.  K is the smallest power of two
    from the class count up to 2^16 that makes P at most 1, which leaves the
    single pass i += (u >= cum[i]); at 2^16 buckets a wider table pays a few
    passes more.
    """

    def __init__(self, outdeg_hist: dict[int, float], d: float):
        validate_outdegree_hist(outdeg_hist, d)
        items = [(j, p) for j, p in sorted(outdeg_hist.items()) if j >= 1 and p > 0]
        if not items:
            raise ValueError("all out-degree mass at 0; effective out-degree undefined")
        self.values = np.array([j for j, _ in items], dtype=np.int64)
        self.probabilities = np.array([j * p / d for j, p in items])
        self._cum = np.cumsum(self.probabilities)
        self._cum[-1] = 1.0  # absorb rounding so every uniform draw lands in range
        buckets = 1 << (self._cum.size - 1).bit_length()
        while (crowd := _most_cuts_in_a_bucket(self._cum, buckets)) > 1 and buckets < _GUIDE_MAX:
            buckets *= 2
        self._guide = np.searchsorted(self._cum, np.arange(buckets) / buckets, side="right")
        self._steps = [1 << k for k in reversed(range(crowd.bit_length()))]

    def lookup(self, u: np.ndarray) -> np.ndarray:
        """The draws of D that the uniforms u in [0, 1) stand for."""
        idx = np.take(self._guide, (u * self._guide.size).astype(np.intp))
        for step in self._steps:
            # past the last class the clip reads cum[-1] = 1.0 > u
            hit = u >= np.take(self._cum[step - 1:], idx, mode="clip")
            idx += hit * step if step > 1 else hit
        return np.take(self.values, idx)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.lookup(rng.random(size))


def _most_cuts_in_a_bucket(cum: np.ndarray, buckets: int) -> int:
    """The most of the cuts cum[:-1] strictly inside one of ``buckets``
    equal buckets of [0, 1); a cut on a bucket's lower edge is counted by
    that bucket's guide entry, and cum[-1] = 1.0 is the upper edge."""
    scaled = cum[:-1] * buckets
    first = scaled.astype(np.intp)
    inside = first[scaled != first]
    return int(np.bincount(inside).max()) if inside.size else 0


@dataclass(frozen=True)
class ModelSpec:
    """Parameters of the stochastic model and of the sampling run.

    ``outdeg_hist`` includes the dangling fraction at key 0 and must have
    mean d; building its q_j table, ``effective_outdegree``, validates it.
    ``pool_size`` is the accuracy knob of the population-dynamics estimate;
    the seed fully determines the run.  A "converged" run's generation count
    depends on c and p0 only, not on ``pool_size``.  Near alpha = 1 the pool
    does not resolve the tail in CCDF [1e-5, 1e-3] (see ``simulate_R``).
    """

    c: float
    alpha: float
    d: float
    outdeg_hist: dict[int, float]
    pool_size: int = 1_000_000
    seed: int = 0
    indegree: InDegreeLaw = field(init=False, compare=False, repr=False)
    effective_outdegree: EffectiveOutdegreeSampler = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.c < 1.0:
            raise ValueError(f"damping factor must be in [0, 1), got {self.c}")
        object.__setattr__(self, "indegree", InDegreeLaw(self.alpha, self.d))
        if self.pool_size < 10_000:
            raise ValueError("pool_size must be at least 10_000")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "effective_outdegree",
                           EffectiveOutdegreeSampler(self.outdeg_hist, self.d))

    @property
    def p0(self) -> float:
        return self.outdeg_hist.get(0, 0.0)

    @property
    def baseline(self) -> float:
        """Additive constant 1 - c*(1-p0); also the a.s. lower bound of R."""
        return 1.0 - self.c * (1.0 - self.p0)

    def to_dict(self) -> dict:
        return {"c": self.c, "alpha": self.alpha, "d": self.d,
                "outdeg_hist": hist_to_json(self.outdeg_hist),
                "pool_size": self.pool_size, "seed": self.seed}

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelSpec":
        return cls(**decode_fields(obj, "model spec", {
            "c": float, "alpha": float, "d": float, "outdeg_hist": parse_hist,
            "pool_size": int, "seed": int}, {"pool_size": 1_000_000, "seed": 0}))


@dataclass(frozen=True)
class SamplePool:
    """One generation of score samples."""

    values: np.ndarray
    generation: int

    def __post_init__(self):
        self.values.setflags(write=False)


def initial_pool(spec: ModelSpec) -> SamplePool:
    return SamplePool(values=np.ones(spec.pool_size), generation=0)


def iterate_pool(pool: SamplePool, spec: ModelSpec, rng: np.random.Generator) -> SamplePool:
    """Advance the pool one generation.

    Each of the M new samples draws its own in-degree N, then N pairs
    (D_j, R_j) with R_j resampled uniformly from the previous pool, and is
    set to c * sum R_j/D_j + baseline.  Children are numbered owner by owner
    and processed in chunks of at most ``_CHUNK``, so a single huge N cannot
    exhaust memory.

    Every random number is drawn on the calling thread, in the same order
    for every CPU count: the in-degrees, then per chunk the uniforms that
    stand for D and the pool indices of R.  The rest of a chunk (the D
    lookup, the gather of R, the divide, the owners and their sums) draws
    none, and `graph._map_ordered` maps it over every CPU the process may
    use, in blocks of about ``_BLOCK`` children (`graph._segment_blocks` of
    the owners' counts in the chunk, `graph._segment_counts`).  Blocks are
    cut only at owners, so each owner's children in a chunk are summed in
    one block, in order from 0.0, whatever the blocks; the calling thread
    adds the block sums into the pool in order, and an owner split across
    chunks gets its chunks' sums in chunk order.  Pools are therefore
    byte-identical for every CPU count.  A chunk's blocks all finish before
    the next chunk is drawn, so no two chunks' draws are held at once.
    """
    m = spec.pool_size
    if pool.values.size != m:
        raise ValueError("pool size does not match spec.pool_size")
    bounds = np.cumsum(spec.indegree.sample(rng, m))
    total = int(bounds[-1])
    acc = np.zeros(m)
    prev = pool.values
    lookup = spec.effective_outdegree.lookup
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        u = rng.random(stop - start)
        picks = rng.integers(0, prev.size, size=stop - start)
        lo, counts = _segment_counts(bounds, start, stop)
        blocks = _segment_blocks(counts, _BLOCK)

        def block(cut):
            c0, c1, o0, o1 = cut
            r = np.take(prev, picks[c0:c1], mode="clip")
            np.divide(r, lookup(u[c0:c1]), out=r)
            return np.bincount(np.repeat(np.arange(o1 - o0), counts[o0:o1]),
                               weights=r, minlength=o1 - o0)

        for (_, _, o0, o1), sums in zip(blocks, _map_ordered(block, blocks)):
            acc[lo + o0:lo + o1] += sums
        del u, picks  # freed before the next chunk draws
    return SamplePool(values=spec.baseline + spec.c * acc, generation=pool.generation + 1)


def simulate_R(spec: ModelSpec, k) -> SamplePool:
    """Run the recursion k generations from the all-ones pool.

    ``k`` may be a positive integer or "converged", which runs the smallest
    k with 2 * (c*(1-p0))^k <= 1e-3.  Two copies of the recursion fed the
    same N and D move apart in W1 by the factor
    c*E[N]*E[1/D] = c*(1-p0) per generation, and the all-ones start lies
    within E[1] + E[R_inf] = 2 of R_inf, so after k generations the law of
    R_k is within 1e-3 of R_inf in W1.  The tail coefficient closes its gap
    at the rate c^alpha * b <= c*(1-p0), so C_k is then within 5e-4 * C of C.
    A count above 200 raises SimulationConvergenceError before any
    generation is drawn.

    Near alpha = 1 the pool does not resolve the tail in CCDF [1e-5, 1e-3]:
    at alpha = 1.1 and M = 1e6, the 46-generation pools of seeds 5-8 put
    the ratio to C * P(T > x) between 0.13 and 0.22, with pool means from
    0.42 to 0.49 where E[R] = 1.
    """
    if k == "converged":
        rate = 1.0 - spec.baseline
        k = math.ceil(math.log(_W1_TOL / 2) / math.log(rate)) if rate > 0 else 1
        if k > _MAX_GENERATIONS:
            raise SimulationConvergenceError(k, rate)
    elif not _is_int(k) or k < 1:
        raise ValueError(f"k must be a positive integer or 'converged', got {k!r}")
    rng = np.random.default_rng(spec.seed)
    pool = initial_pool(spec)
    for _ in range(k):
        pool = iterate_pool(pool, spec, rng)
    return pool


def tail_ratio_table(pool: SamplePool, spec: ModelSpec, c_value: float) -> list[dict]:
    """Empirical tail versus the predicted c_value * P(T > x).

    Five probes are log-spaced between the pool quantiles at the CCDF levels
    of ``_CCDF_WINDOW``; rows outside the window (after measuring) carry
    in_window=False.
    """
    lo_ccdf, hi_ccdf = _CCDF_WINDOW
    # np.quantile partitions a copy and the probes count, so the pool is sorted
    # only where its CCDF is written
    x_lo, x_hi = np.quantile(pool.values, [1.0 - hi_ccdf, 1.0 - lo_ccdf])
    xs = np.geomspace(x_lo, x_hi, 5)
    emp = np.array([np.count_nonzero(pool.values > x) for x in xs]) / pool.values.size
    theory = c_value * spec.indegree.tail(xs)
    rows = []
    for x, e, t in zip(xs, emp, theory):
        rows.append({"x": float(x), "empirical": float(e), "theory": float(t),
                     "ratio": float(e / t) if t > 0 else math.inf,
                     "in_window": bool(lo_ccdf <= e <= hi_ccdf)})
    return rows


@dataclass(frozen=True)
class YLevelResult:
    """Per-level total weights of sampled weighted trees.

    ``values[s, n]`` is the level-n total of sample s (NaN where the node
    budget aborted the sample); ``aborted`` flags those samples.
    """

    values: np.ndarray
    aborted: np.ndarray


def simulate_Y_levels(spec: ModelSpec, max_level: int,
                      n_samples: int = 10_000) -> YLevelResult:
    """Explicit tree expansion of the level totals Y_0..Y_max_level.

    Each sample grows a tree where every node has an independent in-degree-N
    number of children and every edge carries weight 1/D; Y_n sums the
    products of edge weights over all level-n nodes.  Levels beyond 6 are
    refused (tree size explodes); samples whose node count would exceed
    ``_NODE_BUDGET`` are aborted and flagged (NaN rows), and trees that die
    out read 0 from then on.  The spec's seed drives every draw.

    All samples grow together, one level at a time: every node carries the
    index of its sample, per-sample child counts come from ``bincount`` and
    the children from ``np.repeat``.  A block of samples whose next level
    would hold more than ``_CHUNK`` children is split in halves, down to a
    single sample, so no level holds more than max(_CHUNK, _NODE_BUDGET)
    nodes at once.
    """
    if not 0 <= max_level <= 6:
        raise ValueError("level must be between 0 and 6")
    if n_samples > 10_000:
        raise ValueError("at most 10_000 tree samples")
    rng = np.random.default_rng(spec.seed)
    values = np.full((n_samples, max_level + 1), np.nan)
    values[:, 0] = 1.0
    aborted = np.zeros(n_samples, dtype=bool)
    nodes = np.ones(n_samples, dtype=np.int64)

    def grow(samples, owner, weights, offspring, level):
        # samples: the block's sample ids; owner (sorted), weights and
        # offspring: per node of level - 1, owner indexing into samples
        while True:
            totals = np.bincount(owner, weights=offspring,
                                 minlength=samples.size).astype(np.int64)
            over = nodes[samples] + totals > _NODE_BUDGET
            if samples.size > 1 and totals[~over].sum() > _CHUNK:
                half = samples.size // 2
                cut = np.searchsorted(owner, half)
                grow(samples[:half], owner[:cut], weights[:cut], offspring[:cut], level)
                grow(samples[half:], owner[cut:] - half, weights[cut:], offspring[cut:],
                     level)
                return
            aborted[samples[over]] = True
            values[samples[over]] = np.nan
            dead = ~over & (totals == 0)
            values[samples[dead], level:] = 0.0  # tree died out
            live = ~over & ~dead
            if not live.any():
                return
            samples = samples[live]
            nodes[samples] += totals[live]
            keep = live[owner]
            kids = offspring[keep]
            owner = np.repeat((np.cumsum(live) - 1)[owner[keep]], kids)
            weights = (np.repeat(weights[keep], kids)
                       / spec.effective_outdegree.sample(rng, owner.size))
            values[samples, level] = np.bincount(owner, weights=weights,
                                                 minlength=samples.size)
            if level == max_level:
                return
            level += 1
            offspring = spec.indegree.sample(rng, weights.size)

    if max_level > 0:
        grow(np.arange(n_samples), np.arange(n_samples), np.ones(n_samples),
             spec.indegree.sample(rng, n_samples), 1)
    return YLevelResult(values=values, aborted=aborted)
