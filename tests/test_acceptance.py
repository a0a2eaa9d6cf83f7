"""Acceptance suite: one test per release criterion, at pinned tolerances.

The terminal summary (see conftest) prints one PASS/FAIL line per criterion.
"""

import math

import numpy as np
import pytest

from oracles import (SecondGeneration, dense_pagerank, pareto_samples,
                     random_small_graph, solved_histogram)
from ranktail.graph import degree_profile
from ranktail.pagerank import PageRankParams, pagerank
from ranktail.simulate import ModelSpec, initial_pool, iterate_pool, simulate_R, \
    simulate_Y_levels, tail_ratio_table
from ranktail.synth import SynthSpec, generate
from ranktail.tails import ccdf, choose_xmin, fit_exponent_mle
from ranktail.theory import (TheoryParams, coefficient_C, coefficient_Ck)

GOLDEN_LIMIT_COEFFICIENTS = [
    # (name, params, {damping: expected log10 C}), +/- 0.01
    ("indochina", dict(alpha=1.17, d=26.17, p0=0.18, b=0.65),
     {0.2: -2.53, 0.5: -1.96, 0.85: -1.50}),
    ("eu2005", dict(alpha=1.1, d=22.3, p0=0.08, b=0.70),
     {0.2: -2.24, 0.5: -1.68, 0.85: -1.21}),
]


@pytest.mark.parametrize("name,params,expected", GOLDEN_LIMIT_COEFFICIENTS,
                         ids=[case[0] for case in GOLDEN_LIMIT_COEFFICIENTS])
def test_crit1_coefficient_golden_limits(name, params, expected):
    for c, target in expected.items():
        value = math.log10(coefficient_C(TheoryParams(c=c, **params)))
        assert value == pytest.approx(target, abs=0.01), (name, c)


def test_crit1_coefficient_golden_iterations():
    params = TheoryParams(c=0.85, alpha=1.1, d=8.2032, p0=0.006, b=0.8558)
    assert math.log10(coefficient_Ck(params, 1)) == pytest.approx(-1.08, abs=0.01)
    assert math.log10(coefficient_Ck(params, 2)) == pytest.approx(-0.85, abs=0.01)
    assert math.log10(coefficient_C(params)) == pytest.approx(-0.54, abs=0.01)


def test_crit2_pagerank_oracle_equivalence():
    rng = np.random.default_rng(1905)
    for _ in range(100):
        g = random_small_graph(rng, n_max=6)
        c = float(rng.choice([0.2, 0.5, 0.85, 0.95]))
        result = pagerank(g, PageRankParams(c=c, tol=1e-13, max_iters=3000))
        oracle = dense_pagerank(g, c)
        assert np.abs(result.scores - oracle).max() <= 1e-8
        assert abs(result.scores.mean() - 1.0) <= 1e-9


def _tail_law_spec(seed=5):
    hist = solved_histogram(1.1, 8.2, 0.006, 0.8558)
    return ModelSpec(c=0.85, alpha=1.1, d=8.2, outdeg_hist=hist,
                     pool_size=1_000_000, seed=seed)


# the k = 2 limit check: reference paths, the depths of the second-order fit
# (CCDF ~1e-3 down to ~3e-7) and the fixed seed of the reference
REFERENCE_PATHS = 500
FIT_DEPTHS = np.geomspace(40.0, 1e5, 10)
REFERENCE_SEED = 2007


def _second_order_limit(xs, ratios, alpha):
    """Generalized least-squares fit of ratio(x) = L - K * x^-(1 - 1/alpha).

    ``ratios`` holds one row per independent reference path; the covariance
    of the row means (the depths share paths) weights the fit.  Returns L,
    its standard error and the fit's chi-square.
    """
    design = np.column_stack([np.ones(xs.size), -xs ** -(1.0 - 1.0 / alpha)])
    mean = ratios.mean(axis=0)
    inv_cov = np.linalg.inv(np.cov(ratios, rowvar=False) / ratios.shape[0])
    normal = np.linalg.inv(design.T @ inv_cov @ design)
    coef = normal @ design.T @ inv_cov @ mean
    resid = mean - design @ coef
    return coef[0], math.sqrt(normal[0, 0]), float(resid @ inv_cov @ resid)


def _check_second_generation(pool, spec, c2, rows):
    # (a) the pool matches a pool-free reference of R_2 at the window probes;
    # (b) the ratio to C_2 * P(T > x) tends to a limit inside [0.8, 1.25].
    # The ratio itself stays below 0.8 down to CCDF ~3e-7: the correction
    # decays like x^-(1 - 1/alpha), so the window cannot hold the limit.
    window = np.array([r["x"] for r in rows])
    paths = SecondGeneration(spec.c, spec.alpha, spec.d, spec.outdeg_hist).tail_paths(
        np.random.default_rng(REFERENCE_SEED), np.concatenate([window, FIT_DEPTHS]),
        REFERENCE_PATHS)
    ref = paths.mean(axis=0)
    ref_se = paths.std(axis=0, ddof=1) / math.sqrt(REFERENCE_PATHS)
    for row, p, se in zip(rows, ref, ref_se):
        pool_se = math.sqrt(p * (1.0 - p) / spec.pool_size)
        assert abs(row["empirical"] - p) <= 4.0 * math.hypot(pool_se, se), (
            f"pool CCDF {row['empirical']:.3e} at x={row['x']:.2f} differs from the "
            f"pool-free reference {p:.3e} (se {se:.1e}) by more than 4 combined SE")

    theory = c2 * (FIT_DEPTHS / spec.indegree.t_min) ** -spec.alpha
    limit, limit_se, chi2 = _second_order_limit(FIT_DEPTHS, paths[:, window.size:] / theory,
                                                spec.alpha)
    fit = (f"L={limit:.3f} +- {limit_se:.3f}, chi2={chi2:.1f} on {FIT_DEPTHS.size - 2} dof; "
           "ratios " + " ".join(f"{x:.0f}:{r:.3f}" for x, r in
                                 zip(FIT_DEPTHS, ref[window.size:] / theory)))
    assert limit_se <= 0.04, f"reference too coarse for the limit: {fit}"
    assert chi2 <= 26.1, f"second-order form rejected (chi2 8 dof, p < 0.001): {fit}"
    assert 0.8 <= limit <= 1.25, f"limit of P(R_2 > x) / (C_2 P(T > x)) outside band: {fit}"


@pytest.mark.slow
@pytest.mark.parametrize("k", [1, 2, "converged"], ids=str)
def test_crit3_simulator_tail_law(k):
    # ratio of the pool tail to the predicted C_k * P(T > x), probed where
    # the empirical CCDF lies in [1e-5, 1e-3], must fall within [0.8, 1.25];
    # for k = 2 that band holds the limit of the ratio, checked against a
    # pool-free reference (see _check_second_generation)
    spec = _tail_law_spec()
    params = TheoryParams.from_histogram(spec.c, spec.alpha, spec.outdeg_hist,
                                         d=spec.d)
    c_value = coefficient_C(params) if k == "converged" else coefficient_Ck(params, k)
    pool = simulate_R(spec, k)
    rows = [r for r in tail_ratio_table(pool, spec, c_value) if r["in_window"]]
    assert rows, "no probes landed in the CCDF window"
    if k == 2:
        _check_second_generation(pool, spec, c_value, rows)
        return
    bad = [r for r in rows if not 0.8 <= r["ratio"] <= 1.25]
    table = "\n".join(f"  x={r['x']:10.2f} empirical={r['empirical']:.3e} "
                      f"predicted={r['theory']:.3e} ratio={r['ratio']:.3f}"
                      for r in rows)
    note = ("\nAt alpha=1.1 the pool does not resolve the law in this window: after "
            "the 46 generations that bound the W1 distance to the fixed point by "
            "1e-3, seeds 5-8 at M=1e6 give ratios from 0.15 to 0.34 and pool means "
            "from 0.44 to 0.59, so the pool loses mass over the generations."
            if k == "converged" else "")
    assert not bad, (
        f"k={k}: {len(bad)}/{len(rows)} probes outside [0.8, 1.25] after "
        f"{pool.generation} generations; pool mean {pool.values.mean():.3f}, "
        f"while E[R_k] = 1 for every k.\n{table}{note}")


@pytest.mark.slow
def test_crit4_mean_field_conditional_means(drawn_indegrees):
    # E(R | N) must be affine with slope c*(1-p0)/d over well-filled bins
    hist = {0: 0.006, 4: 0.642, 16: 0.352}
    spec = ModelSpec(c=0.85, alpha=2.5, d=8.2, outdeg_hist=hist,
                     pool_size=1_000_000, seed=31)
    pool = initial_pool(spec)
    for _ in range(12):
        pool = iterate_pool(pool, spec)
    paired = iterate_pool(pool, spec)
    (n_in,) = drawn_indegrees  # the in-degrees of the last generation

    counts = np.bincount(n_in)
    bins = np.flatnonzero(counts >= 1000)
    assert bins.size >= 10
    means = np.array([paired.values[n_in == n].mean() for n in bins])
    design = np.vstack([bins, np.ones_like(bins)]).T.astype(float)
    (slope, _), *_ = np.linalg.lstsq(design, means, rcond=None)
    fitted = design @ np.linalg.lstsq(design, means, rcond=None)[0]
    r2 = 1.0 - ((means - fitted) ** 2).sum() / ((means - means.mean()) ** 2).sum()

    slope_true = spec.c * (1 - spec.p0) / spec.d
    assert abs(slope - slope_true) <= 0.10 * slope_true
    assert r2 >= 0.98


def test_crit5_martingale_level_means():
    # E(Y_n) = (1 - p0)^n within 4 Monte Carlo standard errors for n <= 4
    hist = {0: 0.2, 1: 0.3, 2: 0.2, 4: 0.2, 10: 0.1}
    spec = ModelSpec(c=0.5, alpha=2.5, d=2.5, outdeg_hist=hist,
                     pool_size=10_000, seed=13)
    result = simulate_Y_levels(spec, 4, n_samples=10_000)
    assert result.aborted.mean() == 0.0
    for level in range(5):
        vals = result.values[~result.aborted, level]
        expected = (1 - spec.p0) ** level
        se = vals.std() / np.sqrt(vals.size)
        assert abs(vals.mean() - expected) <= max(4 * se, 1e-12), level


@pytest.mark.slow
def test_crit6_end_to_end_synthetic_reproduction():
    # million-node generated graph: score tail parallel to the in-degree tail
    # and the intercept offset within 0.15 decades of log10 C from the
    # realized degree profile
    hist = solved_histogram(1.5, 8.0, 0.1, 0.45, atoms=(1, 8, 64))
    spec = SynthSpec(n=1_000_000, alpha=1.5, d=8.0, outdeg_hist=hist, seed=1)
    g = generate(spec)
    profile = degree_profile(g)

    indeg = np.asarray(g.in_deg, dtype=float)
    fit_n = fit_exponent_mle(indeg, choose_xmin(ccdf(indeg)))
    result = pagerank(g, PageRankParams(c=0.85, tol=1e-9, max_iters=300))
    assert result.converged
    fit_r = fit_exponent_mle(result.scores, choose_xmin(ccdf(result.scores)))

    assert abs(fit_r.alpha_hat - fit_n.alpha_hat) <= 0.1

    params = TheoryParams.from_profile(profile, c=0.85, alpha=fit_n.alpha_hat)
    predicted_offset = math.log10(coefficient_C(params))
    observed_offset = fit_r.intercept - fit_n.intercept
    assert observed_offset - predicted_offset == pytest.approx(0.0, abs=0.15)


def test_crit7_estimator_sanity():
    rng = np.random.default_rng(2718)
    x = pareto_samples(rng, alpha=1.5, x_min=1.0, size=1_000_000)
    fit = fit_exponent_mle(x, 1.0)
    assert fit.alpha_hat == pytest.approx(1.5, abs=0.01)
    for k in (2.5, 1000.0):
        scaled = fit_exponent_mle(k * x, k * 1.0)
        assert scaled.alpha_hat == pytest.approx(fit.alpha_hat, rel=1e-12)


def test_crit8_determinism():
    hist = {0: 0.2, 1: 0.3, 2: 0.2, 4: 0.2, 10: 0.1}
    spec = ModelSpec(c=0.5, alpha=2.5, d=2.5, outdeg_hist=hist,
                     pool_size=10_000, seed=99)
    assert simulate_R(spec, 3).values.tobytes() == simulate_R(spec, 3).values.tobytes()

    sspec = SynthSpec(n=5_000, alpha=1.5, d=8.0,
                      outdeg_hist=solved_histogram(1.5, 8.0, 0.1, 0.45, atoms=(1, 8, 64)),
                      seed=12)
    a, b = generate(sspec), generate(sspec)
    assert a.in_src.tobytes() == b.in_src.tobytes()
    assert a.in_ptr.tobytes() == b.in_ptr.tobytes()
    assert a.out_deg.tobytes() == b.out_deg.tobytes()
