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

A generation's random numbers come from streams keyed to the work they
serve, not to the order of the calls: the PCG64 stream that ``spec.seed``
spawns under the key (generation, kind, index) (`_keyed`).  The rates T
of the M owners are stratified: the law of T is cut into M strata of equal
probability, a permutation keyed (generation, 2) deals one to each owner,
and each rate is drawn within its stratum, so the top of T is in every
generation at its share (`InDegreeLaw.sample_strata`).  The in-degrees
are drawn in pieces of ``_PIECE`` owners, keyed (generation, 0, first
owner).  The children are cut into blocks of whole owners by
`blocks._segment_blocks`, an owner of more than ``_BLOCK`` children into
parts of its own, and each block draws its uniforms and pool indices from
(generation, 1, first owner, part), where part is 0 for every block but the
later parts of one owner.  `blocks._map_ordered` maps the pieces and the
blocks over every CPU the process may use (as the edge-list loader and
writer and the PageRank kernel), so each draw is made on the worker that
uses it.  The blocks depend on the in-degrees only, and the calling thread
adds their sums into the pool in block order, so pools are byte-identical
on one CPU and on many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import _map_ordered, _segment_blocks
from .formats import _is_int, decode_fields, hist_to_json, parse_hist
from .theory import validate_outdegree_hist

# children one level of a block of Y-level tree samples may hold before the
# block is split in halves
_CHUNK = 1 << 22
_PIECE = 1 << 16  # owners whose in-degrees one keyed stream draws
_BLOCK = 1 << 18  # the most children whose draws one block of a generation holds
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

    def sample_strata(self, rng: np.random.Generator, strata: np.ndarray,
                      count: int) -> np.ndarray:
        """Draws of N whose rates T come one from each stratum in ``strata``:
        stratum s of ``count`` equal ones holds the uniforms in
        (s/count, (s+1)/count] that stand for T, s = 0 the top of the law.
        Given every stratum once, the ``count`` rates hold the top of T at
        its share rather than at the luck of independent draws."""
        u = (strata + (1.0 - rng.random(strata.size))) / count  # in (0, 1]
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
        if not _is_int(self.pool_size) or self.pool_size < 10_000:
            raise ValueError("pool_size must be an integer of at least 10_000, "
                             f"got {self.pool_size!r}")
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


def _keyed(seed: int, *key: int) -> np.random.Generator:
    """The generator of one unit of a run's work: the PCG64 stream that
    ``seed`` spawns under ``key`` (NumPy's SeedSequence spawn keys)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _pool_blocks(counts: np.ndarray) -> list[tuple[int, int, int, int, tuple[int, int]]]:
    """(e0, e1, o0, o1, key): children e0..e1-1 belong to owners o0..o1-1,
    owner i holding counts[i] children, and draw from the stream keyed
    (generation, 1, *key), key being (o0, part).

    Blocks of whole owners are cut at every ``_BLOCK // 2`` children
    (`blocks._segment_blocks`), so a block of several owners holds fewer
    than ``_BLOCK`` and is part 0.  A block of one owner is cut into parts
    of ``_BLOCK`` children, numbered from 0."""
    return [(start, min(start + _BLOCK, e1), o0, o1, (o0, part))
            for e0, e1, o0, o1 in _segment_blocks(counts, _BLOCK // 2)
            for part, start in enumerate(range(e0, e1, _BLOCK))]


def _pool_indegrees(spec: ModelSpec, gen: int) -> np.ndarray:
    """The in-degrees of pool generation ``gen``: owner i's rate T comes
    from stratum strata[i] of M, strata being the permutation of range(M)
    keyed (gen, 2), so every stratum of T is drawn once; the owners lo..
    draw in pieces of ``_PIECE``, keyed (gen, 0, lo), mapped over the CPUs,
    each writing its slice of the one int64 count array.  The strata are
    range(M) at int32, shuffled: the permutation that permutation(M) gives,
    in half its bytes."""
    m = spec.pool_size
    strata = np.arange(m, dtype=np.int32 if m <= 2**31 else np.int64)
    _keyed(spec.seed, gen, 2).shuffle(strata)
    counts = np.empty(m, np.int64)

    def piece(lo):
        counts[lo:lo + _PIECE] = spec.indegree.sample_strata(
            _keyed(spec.seed, gen, 0, lo), strata[lo:lo + _PIECE], m)

    for _ in _map_ordered(piece, range(0, m, _PIECE)):
        pass
    return counts


def iterate_pool(pool: SamplePool, spec: ModelSpec) -> SamplePool:
    """Advance the pool one generation.

    Each of the M new samples draws its own in-degree N, then N pairs
    (D_j, R_j) with R_j resampled uniformly from the previous pool, and is
    set to c * sum R_j/D_j + baseline.

    Every draw of generation g = pool.generation + 1 comes from a stream of
    ``spec.seed`` keyed to the work it serves (`_keyed`): the permutation
    that deals the strata of the rates, keyed (g, 2), the in-degrees of
    owners lo.. in pieces of ``_PIECE``, keyed (g, 0, lo), and each block
    of `_pool_blocks` its uniforms, which stand for D, then its pool
    indices, keyed (g, 1, first owner, part).  `blocks._map_ordered` maps the
    pieces and then the blocks over every CPU the process may use; a block
    draws, looks up D, gathers R, divides and sums each of its non-empty
    owners with ``np.add.reduceat``, and the calling thread adds the sums
    into the pool in block order, so an owner cut into parts gets their sums
    in order.  The blocks depend on the in-degrees only, so pools are
    byte-identical for every CPU count.  A generation holds the pool, the
    strata while the in-degrees are drawn, the in-degrees, the sums and the
    draws of at most two blocks per CPU, each of at most ``_BLOCK``
    children, whatever N a sample draws.
    """
    m = spec.pool_size
    if pool.values.size != m:
        raise ValueError("pool size does not match spec.pool_size")
    gen = pool.generation + 1

    def block(cut):
        e0, e1, o0, o1, key = cut
        rng = _keyed(spec.seed, gen, 1, *key)
        d = spec.effective_outdegree.lookup(rng.random(e1 - e0))
        r = np.take(pool.values, rng.integers(0, m, size=e1 - e0), mode="clip")
        r /= d
        owned = counts[o0:o1]
        nonempty = owned > 0
        sums = np.zeros(o1 - o0)
        # each non-empty owner's first child in the block; 0 in a part of one owner
        sums[nonempty] = np.add.reduceat(r, (np.cumsum(owned) - owned)[nonempty])
        return sums

    counts = _pool_indegrees(spec, gen)
    blocks = _pool_blocks(counts)
    acc = np.zeros(m)
    for (_, _, o0, o1, _), sums in zip(blocks, _map_ordered(block, blocks)):
        acc[o0:o1] += sums
    acc *= spec.c
    acc += spec.baseline
    return SamplePool(values=acc, generation=gen)


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
    the ratio to C * P(T > x) between 0.15 and 0.34, with pool means from
    0.44 to 0.59 where E[R] = 1.
    """
    if k == "converged":
        rate = 1.0 - spec.baseline
        k = math.ceil(math.log(_W1_TOL / 2) / math.log(rate)) if rate > 0 else 1
        if k > _MAX_GENERATIONS:
            raise SimulationConvergenceError(k, rate)
    elif not _is_int(k) or k < 1:
        raise ValueError(f"k must be a positive integer or 'converged', got {k!r}")
    pool = initial_pool(spec)
    for _ in range(k):
        pool = iterate_pool(pool, spec)
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
    if not _is_int(max_level) or not 0 <= max_level <= 6:
        raise ValueError(f"max_level must be an integer from 0 to 6, got {max_level!r}")
    if not _is_int(n_samples) or not 0 <= n_samples <= 10_000:
        raise ValueError(f"n_samples must be an integer from 0 to 10_000, got {n_samples!r}")
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
                       / spec.effective_outdegree.lookup(rng.random(owner.size)))
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
