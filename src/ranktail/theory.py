"""Closed-form tail coefficients linking the score distribution to in-degree.

For damping c, cumulative tail exponent alpha, mean degree d, dangling
fraction p0 and out-degree histogram {p_j}, the tail of the score
distribution after k iterations is C_k times the in-degree tail, with

    b       = sum_{j>=1} p_j * j^(1-alpha)
    C_k     = (c*(1-p0)/d)^alpha * sum_{i=0}^{k-1} (c^alpha * b)^i
    C       = lim_k C_k = (c*(1-p0)/d)^alpha / (1 - c^alpha * b)

and a Jensen lower bound obtained by replacing b with its constant
out-degree value (1-p0)^alpha * d^(1-alpha).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .graph import DegreeProfile
from .tails import TailFit

_HIST_SUM_TOL = 1e-12
_HIST_MEAN_RTOL = 1e-9


def validate_outdegree_hist(p_hist: dict[int, float], d: float | None = None) -> float:
    """Check a histogram sums to 1 and (optionally) matches a mean degree.

    Returns the histogram mean sum_j j*p_j.
    """
    if not p_hist:
        raise ValueError("empty out-degree histogram")
    js = np.array(sorted(p_hist), dtype=float)
    ps = np.array([p_hist[int(j)] for j in js], dtype=float)
    if (js < 0).any():
        raise ValueError("out-degrees must be non-negative")
    if (ps < 0).any():
        raise ValueError("histogram fractions must be non-negative")
    total = ps.sum()
    if abs(total - 1.0) > _HIST_SUM_TOL:
        raise ValueError(f"histogram fractions sum to {total!r}, not 1")
    mean = float((js * ps).sum())
    if d is not None and abs(mean - d) > _HIST_MEAN_RTOL * max(abs(d), 1.0):
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
    if alpha < 1.0:
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
        if self.alpha <= 1.0:
            raise ValueError(f"cumulative tail exponent must exceed 1, got {self.alpha}")
        if self.d <= 0:
            raise ValueError("mean degree must be positive")
        if not 0.0 <= self.p0 < 1.0:
            raise ValueError("dangling fraction must lie in [0, 1)")
        if self.b < 0:
            raise ValueError("b must be non-negative")
        if self.geometric_ratio >= 1.0:
            raise ValueError(f"series diverges: c^alpha * b = {self.geometric_ratio} >= 1")

    @property
    def geometric_ratio(self) -> float:
        return self.c ** self.alpha * self.b

    @property
    def log10_c1(self) -> float:
        # log-domain evaluation of (c*(1-p0)/d)^alpha, robust for large d
        return self.alpha * (math.log10(self.c) + math.log10(1.0 - self.p0)
                             - math.log10(self.d))

    @classmethod
    def from_histogram(cls, c: float, alpha: float, p_hist: dict[int, float],
                       d: float | None = None) -> "TheoryParams":
        mean = validate_outdegree_hist(p_hist, d)
        return cls(c=c, alpha=alpha, d=d if d is not None else mean,
                   p0=p_hist.get(0, 0.0), b=b_coefficient(p_hist, alpha))

    @classmethod
    def from_profile(cls, profile: DegreeProfile, c: float, alpha: float) -> "TheoryParams":
        return cls.from_histogram(c, alpha, profile.p_hist, d=profile.d)


@dataclass(frozen=True)
class CoefficientTable:
    b: float
    c_k: list[float]
    c_limit: float
    c_lower_bound: float

    def to_json(self) -> str:
        return json.dumps({"b": self.b, "C_k": self.c_k, "C_limit": self.c_limit,
                           "C_lower_bound": self.c_lower_bound}, indent=2)


def coefficient_Ck(params: TheoryParams, k: int) -> float:
    """Tail coefficient after k iterations (finite geometric sum)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    r = params.geometric_ratio
    c1 = 10.0 ** params.log10_c1
    return c1 * (1.0 - r ** k) / (1.0 - r)


def coefficient_C(params: TheoryParams) -> float:
    """Limit tail coefficient of the fixed point."""
    return 10.0 ** params.log10_c1 / (1.0 - params.geometric_ratio)


def coefficient_lower_bound(params: TheoryParams) -> float:
    """Value of the limit coefficient when every non-dangling node has the
    same (constant) out-degree; a lower bound by Jensen's inequality."""
    b_const = (1.0 - params.p0) ** params.alpha * params.d ** (1.0 - params.alpha)
    denom = 1.0 - params.c ** params.alpha * b_const
    if denom <= 0:
        raise ValueError("constant-out-degree series diverges; bound undefined")
    return 10.0 ** params.log10_c1 / denom


def coefficient_table(params: TheoryParams, k_max: int | None = None) -> CoefficientTable:
    """C_1..C_k up to k_max (default: enough terms to reach the limit to 1e-12)."""
    if k_max is None:
        r = params.geometric_ratio
        k_max = 1 if r == 0 else min(10_000, math.ceil(math.log(1e-12) / math.log(r)))
    cks = [coefficient_Ck(params, k) for k in range(1, k_max + 1)]
    return CoefficientTable(b=params.b, c_k=cks, c_limit=coefficient_C(params),
                            c_lower_bound=coefficient_lower_bound(params))


def mean_field(N, params: TheoryParams):
    """Expected score of a node with in-degree N:
    (c*(1-p0)/d) * N + 1 - c*(1-p0).  Accepts scalars or arrays."""
    N = np.asarray(N, dtype=float)
    if (N < 0).any():
        raise ValueError("in-degree must be non-negative")
    slope = params.c * (1.0 - params.p0) / params.d
    out = slope * N + (1.0 - params.c * (1.0 - params.p0))
    return float(out) if out.ndim == 0 else out


def predict_line(indegree_fit: TailFit, c_value: float) -> tuple[float, float]:
    """Predicted log-log line for the score CCDF: same slope as the in-degree
    fit, intercept shifted up by log10 of the tail coefficient."""
    if c_value <= 0:
        raise ValueError("coefficient must be positive")
    return (-indegree_fit.alpha_hat, indegree_fit.intercept + math.log10(c_value))
