"""Closed-form tail coefficients linking the score distribution to in-degree.

For damping c, cumulative tail exponent alpha, mean degree d, dangling
fraction p0 and out-degree histogram {p_j}, the tail of the score
distribution after k iterations is C_k times the in-degree tail, with

    b       = sum_{j>=1} p_j * j^(1-alpha)
    C_k     = (c*(1-p0)/d)^alpha * sum_{i=0}^{k-1} (c^alpha * b)^i
    C       = lim_k C_k = (c*(1-p0)/d)^alpha / (1 - c^alpha * b)

and a Jensen lower bound obtained by replacing b with its constant
out-degree value b_J = (1-p0)^alpha * d^(1-alpha).  Since
c^alpha * b_J = d * c1, with c1 = C_1 = (c*(1-p0)/d)^alpha,

    C_J     = c1 / (1 - d*c1),

and C / C_J = (1 - d*c1) / (1 - c^alpha * b) is the whole effect of the
out-degree law's shape.  Parameters are admitted only where C is a positive
finite float; as 0 <= c^alpha * b < 1, every C_k (c1 <= C_k <= C) is then one
too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .formats import _is_int
from .graph import DegreeProfile

_HIST_SUM_TOL = 1e-12
_HIST_MEAN_RTOL = 1e-9
_K_MAX = 10_000  # the most C_k terms a coefficient table holds


def validate_outdegree_hist(p_hist: dict[int, float], d: float | None = None) -> float:
    """Check a histogram's keys are int out-degrees, that its fractions sum
    to 1 and (optionally) that it matches a mean degree.

    Returns the histogram mean sum_j j*p_j.
    """
    if not p_hist:
        raise ValueError("empty out-degree histogram")
    for j in p_hist:
        if not _is_int(j):
            raise ValueError(f"out-degree {j!r} is not an integer")
    keys = sorted(p_hist)
    js = np.array(keys, dtype=float)
    ps = np.array([p_hist[j] for j in keys], dtype=float)
    if (js < 0).any():
        raise ValueError("out-degrees must be non-negative")
    if (ps < 0).any():
        raise ValueError("histogram fractions must be non-negative")
    total = ps.sum()
    if not abs(total - 1.0) <= _HIST_SUM_TOL:
        raise ValueError(f"histogram fractions sum to {float(total)!r}, not 1")
    mean = float((js * ps).sum())
    if d is not None and not abs(mean - d) <= _HIST_MEAN_RTOL * max(abs(d), 1.0):
        raise ValueError(f"histogram mean degree {mean!r} differs from d={d!r}")
    return mean


def validate_cumulative_alpha(alpha: float) -> None:
    """Reject a tail exponent outside (0.5, 3), the accepted range of
    cumulative (CCDF) exponents; a density exponent is one larger."""
    if not 0.5 < alpha < 3.0:
        raise ValueError(f"alpha {alpha} outside (0.5, 3); pass the cumulative "
                         "(CCDF) exponent, not the density exponent")


def b_coefficient(p_hist: dict[int, float], alpha: float) -> float:
    """Out-degree contribution to the tail constant: sum_{j>=1} p_j * j^(1-alpha).

    Always lies between (1-p0)^alpha * d^(1-alpha) (constant out-degree,
    Jensen) and 1 - p0.
    """
    if not alpha >= 1.0:
        raise ValueError("alpha must be >= 1")
    validate_outdegree_hist(p_hist)
    js = np.array([j for j in p_hist if j >= 1], dtype=float)
    ps = np.array([p_hist[int(j)] for j in js], dtype=float)
    if js.size == 0:
        return 0.0
    return float((ps * js ** (1.0 - alpha)).sum())


@dataclass(frozen=True)
class TheoryParams:
    """Inputs of the coefficient formulas.  alpha is the cumulative exponent
    (CCDF slope magnitude), not the density exponent."""

    c: float
    alpha: float
    d: float
    p0: float
    b: float

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"damping factor must be in (0, 1), got {self.c}")
        if not self.alpha > 1.0:
            raise ValueError(f"cumulative tail exponent must exceed 1, got {self.alpha}")
        if not 0 < self.d < math.inf:
            raise ValueError(f"mean degree must be positive and finite, got {self.d}")
        if not 0.0 <= self.p0 < 1.0:
            raise ValueError("dangling fraction must lie in [0, 1)")
        if not self.b >= 0:
            raise ValueError("b must be non-negative")
        if not self.geometric_ratio < 1.0:
            raise ValueError(f"series diverges: c^alpha * b = {self.geometric_ratio} >= 1")
        if not 0.0 < coefficient_C(self) < math.inf:
            raise ValueError("limit coefficient C = (c*(1-p0)/d)^alpha / (1 - c^alpha*b) is not "
                             f"a positive finite float at c={self.c}, p0={self.p0}, d={self.d}, "
                             f"alpha={self.alpha}, b={self.b}")

    @property
    def geometric_ratio(self) -> float:
        return self.c ** self.alpha * self.b

    @property
    def c1(self) -> float:
        """(c*(1-p0)/d)^alpha, evaluated in the log domain, robust for large d;
        inf past the float range (refused when the params are built)."""
        with np.errstate(over="ignore"):
            return float(np.float64(10.0) ** (self.alpha * (
                math.log10(self.c) + math.log10(1.0 - self.p0) - math.log10(self.d))))

    @classmethod
    def from_histogram(cls, c: float, alpha: float, p_hist: dict[int, float],
                       d: float | None = None) -> "TheoryParams":
        mean = validate_outdegree_hist(p_hist, d)
        return cls(c=c, alpha=alpha, d=d if d is not None else mean,
                   p0=p_hist.get(0, 0.0), b=b_coefficient(p_hist, alpha))

    @classmethod
    def from_profile(cls, profile: DegreeProfile, c: float, alpha: float) -> "TheoryParams":
        return cls.from_histogram(c, alpha, profile.p_hist, d=profile.d)


def coefficient_Ck(params: TheoryParams, k: int) -> float:
    """Tail coefficient after k iterations (finite geometric sum)."""
    if not _is_int(k) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    r = params.geometric_ratio
    return params.c1 * (1.0 - r ** k) / (1.0 - r)


def coefficient_C(params: TheoryParams) -> float:
    """Limit tail coefficient of the fixed point."""
    return params.c1 / (1.0 - params.geometric_ratio)


def coefficient_lower_bound(params: TheoryParams) -> float:
    """C_J = c1 / (1 - d*c1), the limit coefficient when every non-dangling
    node has the same (constant) out-degree; a lower bound by Jensen's
    inequality.  Params from a histogram always have one, as its d is at
    least 1 - p0; others may not."""
    ratio = params.d * params.c1  # c^alpha * b_J
    bound = params.c1 / (1.0 - ratio) if ratio < 1.0 else math.inf
    if not math.isfinite(bound):
        raise ValueError(f"constant-out-degree coefficient C_J = c1 / (1 - d*c1) is not a "
                         f"finite float at d*c1 = {ratio}")
    return bound


def coefficient_table(params: TheoryParams, k_max: int | None = None) -> dict:
    """b, C_1..C_k_max, C and C_J, under the keys `predict` prints.  k_max
    defaults to enough terms to reach the limit to 1e-12, at most _K_MAX."""
    if k_max is None:
        r = params.geometric_ratio
        k_max = 1 if r == 0 else min(_K_MAX, math.ceil(math.log(1e-12) / math.log(r)))
    elif not _is_int(k_max):
        raise ValueError(f"k_max must be an integer, got {k_max!r}")
    elif not 1 <= k_max <= _K_MAX:
        raise ValueError(f"k_max must be >= 1 and <= {_K_MAX}, got {k_max}")
    return {"b": params.b, "C_k": [coefficient_Ck(params, k) for k in range(1, k_max + 1)],
            "C_limit": coefficient_C(params), "C_lower_bound": coefficient_lower_bound(params)}


def predict_line(alpha: float, intercept: float, c_value: float) -> tuple[float, float]:
    """Predicted log-log line for the score CCDF from the in-degree tail's
    exponent alpha and log10 intercept: the same slope, -alpha, and the
    intercept shifted up by log10 of the tail coefficient."""
    if not math.isfinite(alpha):
        raise ValueError(f"in-degree exponent must be finite, got {alpha}")
    if not 0 < c_value < math.inf:
        raise ValueError(f"coefficient must be a positive finite float, got {c_value}")
    if not math.isfinite(intercept):
        raise ValueError(f"in-degree intercept must be finite, got {intercept}")
    return (-alpha, intercept + math.log10(c_value))
