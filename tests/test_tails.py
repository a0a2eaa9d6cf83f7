import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_ccdf, pareto_samples
from ranktail import tails
from ranktail.tails import ccdf, choose_xmin, decimate_ccdf, fit_exponent_mle


class TestCcdf:
    def test_small_example(self):
        s = ccdf([1, 1, 2, 4])
        assert list(s.xs) == [1, 2]
        assert list(s.fractions) == [0.5, 0.25]  # zero point at 4 omitted

    def test_zeros_count_in_denominator(self):
        s = ccdf([0, 1, 1, 2, 4])
        assert list(s.xs) == [1, 2]
        assert s.fractions[0] == pytest.approx(0.4)

    def test_single_value_degenerate(self):
        with pytest.warns(UserWarning, match="degenerate"):
            s = ccdf([5.0])
        assert s.xs.size == 0

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            ccdf([0, 0, 0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ccdf([1.0, -2.0])

    def test_fractions_strictly_decreasing(self, rng):
        s = ccdf(rng.integers(0, 50, 500))
        assert (np.diff(s.fractions) < 0).all()
        assert s.fractions[0] <= 1.0

    def test_decimation_preserves_ends(self, rng, monkeypatch):
        monkeypatch.setattr(tails, "_MAX_CCDF_POINTS", 64)
        s = ccdf(rng.pareto(1.2, 20000) + 1.0)
        thin = decimate_ccdf(s)
        assert thin.xs.size <= 64
        assert thin.xs[0] == s.xs[0]


@given(values=st.lists(st.one_of(st.integers(0, 20),
                                  st.sampled_from([0.0, 1e-300, 0.1, 0.3, 2.5, 1e300]),
                                  st.floats(0.0, 1e9)), min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_ccdf_matches_brute_force(values):
    if not any(v > 0 for v in values):
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = ccdf(values)
    expected = brute_force_ccdf(values)
    assert list(s.xs) == [x for x, _ in expected]
    # the oracle divides the same integer counts by n: equal to the last bit
    assert list(s.fractions) == [f for _, f in expected]
    # one distinct positive value leaves no point, and warns
    assert [str(w.message) for w in caught] == (
        [] if expected else ["degenerate CCDF: single distinct value, no plottable points"])


@pytest.mark.filterwarnings("ignore:degenerate CCDF:UserWarning")  # all values equal
@given(values=st.lists(st.integers(1, 10 ** 6), min_size=2, max_size=50),
       k=st.floats(0.25, 64.0))
@settings(max_examples=100, deadline=None)
def test_ccdf_scale_equivariant(values, k):
    # integer-spaced values cannot collide under a common float scale
    base = ccdf(values)
    scaled = ccdf([k * v for v in values])
    assert list(scaled.fractions) == pytest.approx(list(base.fractions))
    assert list(scaled.xs) == pytest.approx([k * x for x in base.xs])


class TestMleFit:
    def test_pareto_recovery(self, rng):
        x = pareto_samples(rng, alpha=1.5, x_min=1.0, size=100_000)
        fit = fit_exponent_mle(x, 1.0)
        assert fit.alpha_hat == pytest.approx(1.5, abs=0.02)
        # for Pareto from x_min=1 the log-log CCDF line passes through 0
        assert fit.intercept == pytest.approx(0.0, abs=0.01)
        assert fit.tail_count == 100_000

    def test_pareto_ccdf_slope_heavy(self, rng):
        x = pareto_samples(rng, alpha=1.1, x_min=1.0, size=1_000_000)
        fit = fit_exponent_mle(x, 1.0)
        assert fit.alpha_hat == pytest.approx(1.1, abs=0.02)

    def test_scale_invariance_machine_precision(self, rng):
        x = pareto_samples(rng, alpha=1.3, x_min=2.0, size=5_000)
        base = fit_exponent_mle(x, 2.0).alpha_hat
        for k in (3.0, 0.125, 7.7):
            scaled = fit_exponent_mle(k * x, k * 2.0).alpha_hat
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_insufficient_tail_carries_count(self, rng):
        x = np.linspace(1, 10, 50)
        with pytest.raises(ValueError, match=r"only 1 tail samples \(need >= 10\)"):
            fit_exponent_mle(x, 9.9)

    def test_nonpositive_xmin_rejected(self):
        with pytest.raises(ValueError):
            fit_exponent_mle([1, 2, 3] * 10, 0.0)

    def test_negative_rejected(self):
        # a negative below x_min would be masked out of the tail; it is refused
        x = np.concatenate([[-1.0], np.arange(1.0, 100.0)])
        with pytest.raises(ValueError, match="non-negative"):
            fit_exponent_mle(x, 10.0)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("x_min", [1.0, 3.0, 4.5, 17.0])
    def test_matches_full_ccdf_formula(self, seed, x_min):
        # the fit's tail-only CCDF gives the same intercept, bit for bit, as
        # the full-vector CCDF masked to xs >= x_min; ties and zeros included
        rng = np.random.default_rng(seed)
        x = np.floor(pareto_samples(rng, 1.3, 1.0, 3_000)) - (rng.random(3_000) < 0.2)
        fit = fit_exponent_mle(x, x_min)
        tail = x[x >= x_min]
        alpha_hat = tail.size / np.log(tail / x_min).sum()
        series = ccdf(x)
        mask = series.xs >= x_min
        intercept = float(np.mean(np.log10(series.fractions[mask])
                                  + alpha_hat * np.log10(series.xs[mask])))
        assert fit.alpha_hat == float(alpha_hat)
        assert fit.intercept == intercept

    def test_standard_error_band_over_seeds(self):
        # MLE standard error ~ alpha_hat / sqrt(n_tail)
        alpha, n = 1.4, 10_000
        for seed in range(50):
            x = pareto_samples(np.random.default_rng(seed), alpha, 1.0, n)
            fit = fit_exponent_mle(x, 1.0)
            se = fit.alpha_hat / np.sqrt(fit.tail_count)
            assert abs(fit.alpha_hat - alpha) <= 4 * se

    def test_intercept_with_nonunit_scale(self, rng):
        # P(X>x) = (x/s)^-a  =>  intercept = a*log10(s)
        s, a = 5.0, 1.2
        x = pareto_samples(rng, a, s, 200_000)
        fit = fit_exponent_mle(x, s)
        assert fit.intercept == pytest.approx(a * np.log10(s), abs=0.02)


class TestChooseXmin:
    def test_pareto_lands_in_band(self, rng):
        x = pareto_samples(rng, 1.5, 1.0, 10_000)
        x_min = choose_xmin(ccdf(x))
        frac = np.mean(x > x_min)
        assert 0.01 <= frac <= 0.10

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            choose_xmin(ccdf([1.0, -2.0, 3.0]))

    def test_empty_band_rejected(self):
        # two values: the only CCDF point reads 50%, outside [1%, 10%]
        with pytest.raises(ValueError, match=r"\[1%, 10%\]"):
            choose_xmin(ccdf([1.0] * 100 + [2.0] * 100))

    def test_body_plus_tail_splice(self):
        # uniform body and a 20% Pareto tail: above the 10% level the
        # threshold must land inside the tail, at or past the splice
        splice = 10.0
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            body = rng.uniform(0, splice, 8_000)
            tail = pareto_samples(rng, 1.5, splice, 2_000)
            x_min = choose_xmin(ccdf(np.concatenate([body, tail])))
            hits += x_min >= splice
        assert hits >= 18  # >= 90% of seeded runs

    def test_mle_after_heuristic(self, rng):
        x = pareto_samples(rng, 1.5, 1.0, 50_000)
        fit = fit_exponent_mle(x, choose_xmin(ccdf(x)))
        assert fit.alpha_hat == pytest.approx(1.5, abs=0.1)
        assert fit.tail_count >= 10
