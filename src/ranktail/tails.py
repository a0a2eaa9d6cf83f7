"""Empirical CCDFs and power-law tail fitting.

The CCDF uses the strict greater-than convention: each point is
(x, fraction of all samples strictly greater than x).  Exponents are the
*cumulative* ones (CCDF slope), estimated by the continuous maximum
likelihood estimator over the tail x >= x_min; the log-log intercept is
fit afterwards with the slope pinned to the estimate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import write_csv

_MIN_TAIL = 10  # samples at or above x_min that a fit needs
_MAX_CCDF_POINTS = 4096  # x positions a written CCDF keeps


@dataclass(frozen=True)
class CcdfSeries:
    """Empirical tail fractions P(X > x) at the distinct positive values."""

    xs: np.ndarray
    fractions: np.ndarray

    def __post_init__(self):
        self.xs.setflags(write=False)
        self.fractions.setflags(write=False)


@dataclass(frozen=True)
class TailFit:
    """Fitted cumulative power law: log10 P(X > x) ~ -alpha_hat*log10 x + intercept
    over x >= x_min."""

    alpha_hat: float
    x_min: float
    intercept: float
    tail_count: int

    def to_dict(self) -> dict:
        return {"alpha": self.alpha_hat, "x_min": self.x_min,
                "intercept": self.intercept, "tail_count": self.tail_count}


def ccdf(values) -> CcdfSeries:
    """Empirical CCDF of non-negative data.

    Zeros count in the denominator but produce no point (log-log plots);
    the trailing zero-fraction point at the maximum is omitted.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("empty input")
    if (v < 0).any():
        raise ValueError("values must be non-negative")
    pos = v[v > 0]  # a copy, so it is sorted in place
    if pos.size == 0:
        raise ValueError("all values are zero; CCDF undefined on log-log axes")
    pos.sort()
    # one point at the end of each run of equal values; the largest value
    # closes no run, so its zero-fraction point drops out
    last = np.flatnonzero(pos[1:] != pos[:-1])
    if last.size == 0:
        warnings.warn("degenerate CCDF: single distinct value, no plottable points")
    return CcdfSeries(xs=pos[last], fractions=(pos.size - 1 - last) / v.size)


def decimate_ccdf(series: CcdfSeries) -> CcdfSeries:
    """Thin a CCDF to at most ``_MAX_CCDF_POINTS`` log-spaced x positions."""
    if series.xs.size <= _MAX_CCDF_POINTS:
        return series
    grid = np.geomspace(series.xs[0], series.xs[-1], _MAX_CCDF_POINTS)
    idx = np.unique(np.searchsorted(series.xs, grid, side="left").clip(0, series.xs.size - 1))
    return CcdfSeries(xs=series.xs[idx], fractions=series.fractions[idx])


def write_ccdf_csv(series: CcdfSeries, dest) -> None:
    """Write "x,ccdf" CSV rows, decimated to at most 4,096 log-spaced points."""
    series = decimate_ccdf(series)
    write_csv(dest, "x,ccdf", series.xs, series.fractions)


def fit_exponent_mle(values, x_min: float) -> TailFit:
    """Continuous MLE of the cumulative exponent over samples >= x_min.

    The density exponent estimate is 1 + n_tail / sum(ln(x_i/x_min)); the
    cumulative exponent is that minus 1.  The intercept is least squares on
    the log10 CCDF points at x >= x_min with the slope fixed at -alpha_hat.
    """
    if x_min <= 0:
        raise ValueError("x_min must be positive")
    v = np.asarray(values, dtype=float).ravel()
    if (v < 0).any():
        raise ValueError("values must be non-negative")
    in_tail = v >= x_min
    tail = v[in_tail]
    if tail.size < _MIN_TAIL:
        raise ValueError(f"only {tail.size} tail samples (need >= {_MIN_TAIL})")
    log_sum = np.log(tail / x_min).sum()
    if log_sum <= 0:
        raise ValueError("tail has no spread above x_min; exponent undefined")
    alpha_hat = tail.size / log_sum  # = (density exponent) - 1
    # samples below x_min stay in the denominator as zeros, so only the tail is sorted
    series = ccdf(np.where(in_tail, v, 0.0))
    if series.xs.size == 0:
        raise ValueError("no CCDF points at or above x_min")
    intercept = float(np.mean(np.log10(series.fractions)
                              + alpha_hat * np.log10(series.xs)))
    return TailFit(alpha_hat=float(alpha_hat), x_min=float(x_min),
                   intercept=intercept, tail_count=int(tail.size))


def choose_xmin(series: CcdfSeries) -> float:
    """Default tail threshold: the smallest CCDF point exceeded by between
    1% and 10% of the samples."""
    ok = (series.fractions >= 0.01) & (series.fractions <= 0.10)
    if not ok.any():
        raise ValueError("no CCDF point has a tail fraction in [1%, 10%]")
    return float(series.xs[np.argmax(ok)])
