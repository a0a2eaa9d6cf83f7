"""Monte Carlo engine for the distributional score recursion.

The in-degree of a random node is modeled as N = Poisson(T) with T Pareto
of index alpha and scale t_min = d*(alpha-1)/alpha, so E(N) = E(T) = d and
N inherits the power-law tail of T.  The recursion

    R <- c * sum_{j=1..N} R_j / D_j + [1 - c*(1-p0)]

is iterated by population dynamics: a pool of M samples approximates the
law of R at each generation, and every child value R_j is resampled
uniformly (with replacement) from the previous pool.  D is the effective
(size-biased) out-degree with P(D=j) = j*p_j/d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import decode_fields, hist_to_json, parse_hist
from .theory import validate_outdegree_hist

_CHUNK = 1 << 22
_W1_TOL = 1e-3
_MAX_GENERATIONS = 200


class SimulationConvergenceError(RuntimeError):
    """The generation count that reaches R_inf exceeds the cap."""

    def __init__(self, generations: int, rate: float):
        super().__init__(
            f"pool distribution needs {generations} generations to converge "
            f"(contraction factor c*(1-p0) = {rate:.6g}), above the cap of "
            f"{_MAX_GENERATIONS}")
        self.generations = generations


class EffectiveOutdegreeSampler:
    """Inverse-CDF table for the size-biased out-degree law q_j = j*p_j/d of
    a histogram with mean d.  ``values`` and ``probabilities`` hold the
    support j >= 1 and q_j."""

    def __init__(self, outdeg_hist: dict[int, float], d: float):
        validate_outdegree_hist(outdeg_hist, d)
        items = [(j, p) for j, p in sorted(outdeg_hist.items()) if j >= 1 and p > 0]
        if not items:
            raise ValueError("all out-degree mass at 0; effective out-degree undefined")
        self.values = np.array([j for j, _ in items], dtype=np.int64)
        self.probabilities = np.array([j * p / d for j, p in items])
        self._cum = np.cumsum(self.probabilities)
        self._cum[-1] = 1.0  # absorb rounding so every uniform draw lands in range

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.values[np.searchsorted(self._cum, rng.random(size), side="right")]


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
    effective_outdegree: EffectiveOutdegreeSampler = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.c < 1.0:
            raise ValueError(f"damping factor must be in [0, 1), got {self.c}")
        if self.alpha <= 1.0:
            raise ValueError("tail index alpha must exceed 1 (finite mean in-degree)")
        if self.d <= 0:
            raise ValueError("mean degree must be positive")
        if self.pool_size < 10_000:
            raise ValueError("pool_size must be at least 10_000")
        object.__setattr__(self, "effective_outdegree",
                           EffectiveOutdegreeSampler(self.outdeg_hist, self.d))

    @property
    def t_min(self) -> float:
        """Pareto scale chosen so that E(N) = d."""
        return self.d * (self.alpha - 1.0) / self.alpha

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

    def ccdf_at(self, xs: np.ndarray) -> np.ndarray:
        """Empirical P(value > x) at the probe positions."""
        ordered = np.sort(self.values)
        idx = np.searchsorted(ordered, xs, side="right")
        return (ordered.size - idx) / ordered.size


def sample_pareto(rng: np.random.Generator, alpha: float, t_min: float, size: int):
    """Inverse-CDF Pareto draws: P(T > x) = (x/t_min)^(-alpha) for x >= t_min."""
    u = 1.0 - rng.random(size)  # in (0, 1], keeps T finite
    return t_min * u ** (-1.0 / alpha)


def sample_indegree(spec: ModelSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Mixed-Poisson in-degree draws: N = Poisson(T), T Pareto(alpha, t_min)."""
    return rng.poisson(sample_pareto(rng, spec.alpha, spec.t_min, size))


def initial_pool(spec: ModelSpec) -> SamplePool:
    return SamplePool(values=np.ones(spec.pool_size), generation=0)


def iterate_pool(pool: SamplePool, spec: ModelSpec, rng: np.random.Generator) -> SamplePool:
    """Advance the pool one generation.

    Each of the M new samples draws its own in-degree N, then N pairs
    (D_j, R_j) with R_j resampled uniformly from the previous pool, and is
    set to c * sum R_j/D_j + baseline.  Children are numbered owner by owner
    and processed in chunks of at most ``_CHUNK``, so a single huge N cannot
    exhaust memory.  A chunk's owners run from its first to its last owner
    (two scalar binary searches), each repeated by its child count inside
    the chunk; finding them draws no random numbers, and the per-owner sums
    add the children in order.
    """
    m = spec.pool_size
    if pool.values.size != m:
        raise ValueError("pool size does not match spec.pool_size")
    n_in = sample_indegree(spec, rng, m)
    bounds = np.cumsum(n_in)
    total = int(bounds[-1]) if m else 0
    acc = np.zeros(m)
    prev = pool.values
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        d_draw = spec.effective_outdegree.sample(rng, stop - start)
        r_draw = prev[rng.integers(0, prev.size, size=stop - start)]
        lo, hi = np.searchsorted(bounds, [start, stop - 1], side="right")
        counts = n_in[lo:hi + 1].copy()
        counts[0] = min(bounds[lo], stop) - start
        if hi > lo:
            counts[-1] = stop - bounds[hi - 1]
        owners = np.repeat(np.arange(hi + 1 - lo), counts)
        np.divide(r_draw, d_draw, out=r_draw)
        acc[lo:hi + 1] += np.bincount(owners, weights=r_draw, minlength=hi + 1 - lo)
        del d_draw, r_draw, owners  # freed before the next chunk draws
    return SamplePool(values=spec.baseline + spec.c * acc, generation=pool.generation + 1)


def simulate_R(spec: ModelSpec, k) -> SamplePool:
    """Run the recursion k generations from the all-ones pool.

    ``k`` may be a positive integer (or its string) or "converged", which
    runs the smallest k with 2 * (c*(1-p0))^k <= 1e-3.  Two copies of the
    recursion fed the same N and D move apart in W1 by the factor
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
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1 or 'converged'")
    rng = np.random.default_rng(spec.seed)
    pool = initial_pool(spec)
    for _ in range(k):
        pool = iterate_pool(pool, spec, rng)
    return pool


def tail_ratio_table(pool: SamplePool, spec: ModelSpec, c_value: float,
                     ccdf_window: tuple[float, float] = (1e-5, 1e-3)) -> list[dict]:
    """Empirical tail versus the predicted c_value * P(T > x).

    Five probes are log-spaced between the pool quantiles at the window's CCDF
    levels; rows outside the window (after measuring) carry in_window=False.
    """
    lo_ccdf, hi_ccdf = ccdf_window
    vals = pool.values
    x_lo = np.quantile(vals, 1.0 - hi_ccdf)
    x_hi = np.quantile(vals, 1.0 - lo_ccdf)
    xs = np.geomspace(x_lo, x_hi, 5)
    emp = pool.ccdf_at(xs)
    theory = c_value * (xs / spec.t_min) ** (-spec.alpha)
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

    @property
    def abort_rate(self) -> float:
        return float(self.aborted.mean())

    def level(self, n: int) -> np.ndarray:
        """Completed samples of the level-n total."""
        return self.values[~self.aborted, n]


def simulate_Y_levels(spec: ModelSpec, max_level: int, n_samples: int = 10_000,
                      node_budget: int = 10_000_000) -> YLevelResult:
    """Explicit tree expansion of the level totals Y_0..Y_max_level.

    Each sample grows a tree where every node has an independent in-degree-N
    number of children and every edge carries weight 1/D; Y_n sums the
    products of edge weights over all level-n nodes.  Levels beyond 6 are
    refused (tree size explodes); samples whose node count would exceed
    ``node_budget`` are aborted and flagged (NaN rows), and trees that die
    out read 0 from then on.  The spec's seed drives every draw.

    All samples grow together, one level at a time: every node carries the
    index of its sample, per-sample child counts come from ``bincount`` and
    the children from ``np.repeat``.  A block of samples whose next level
    would hold more than ``_CHUNK`` children is split in halves, down to a
    single sample, so no level holds more than max(_CHUNK, node_budget)
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
            over = nodes[samples] + totals > node_budget
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
            offspring = sample_indegree(spec, rng, weights.size)

    if max_level > 0:
        grow(np.arange(n_samples), np.arange(n_samples), np.ones(n_samples),
             sample_indegree(spec, rng, n_samples), 1)
    return YLevelResult(values=values, aborted=aborted)
