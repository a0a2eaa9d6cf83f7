import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranktail.theory import (TheoryParams, b_coefficient, coefficient_C, coefficient_Ck,
                             coefficient_lower_bound, coefficient_table, predict_line,
                             validate_outdegree_hist)

INDOCHINA = dict(alpha=1.17, d=26.17, p0=0.18, b=0.65)
STANFORD = dict(alpha=1.1, d=8.2032, p0=0.006, b=0.8558)


def histograms(min_j=0):
    return st.dictionaries(st.integers(min_j, 50), st.floats(0.01, 1.0),
                           min_size=1, max_size=8).map(
        lambda w: {j: p / sum(w.values()) for j, p in w.items()})


class TestB:
    def test_constant_outdegree(self):
        assert b_coefficient({4: 1.0}, 1.3) == pytest.approx(4.0 ** (1 - 1.3))

    def test_dangling_mass_excluded(self):
        assert b_coefficient({0: 1.0}, 1.5) == 0.0

    def test_alpha_one_gives_linked_fraction(self):
        hist = {0: 0.25, 2: 0.5, 7: 0.25}
        assert b_coefficient(hist, 1.0) == pytest.approx(0.75)

    def test_invalid_histogram(self):
        with pytest.raises(ValueError):
            b_coefficient({1: 0.7}, 1.2)

    def test_nan_refused(self):
        with pytest.raises(ValueError, match="alpha must be >= 1"):
            b_coefficient({1: 1.0}, math.nan)
        with pytest.raises(ValueError, match=r"fractions sum to \S*nan\S*, not 1"):
            validate_outdegree_hist({0: math.nan, 1: 1.0})
        with pytest.raises(ValueError, match="differs from d=nan"):
            validate_outdegree_hist({1: 1.0}, d=math.nan)

    def test_sum_message_prints_a_python_float(self):
        with pytest.raises(ValueError) as info:
            validate_outdegree_hist({0: 0.2, 1: 0.5})
        assert str(info.value) == "histogram fractions sum to 0.7, not 1"

    @pytest.mark.parametrize("key", [1.5, "1", True])
    def test_key_that_is_not_an_int_is_named(self, key):
        with pytest.raises(ValueError, match=f"out-degree {key!r} is not an integer"):
            validate_outdegree_hist({key: 1.0})

    @given(hist=histograms(), alpha=st.floats(1.0, 2.5))
    @settings(max_examples=100, deadline=None)
    def test_bound_chain(self, hist, alpha):
        b = b_coefficient(hist, alpha)
        p0 = hist.get(0, 0.0)
        d = sum(j * p for j, p in hist.items())
        assert b <= (1 - p0) + 1e-12
        if d > 0:
            assert b >= (1 - p0) ** alpha * d ** (1 - alpha) - 1e-12


class TestParams:
    def test_divergent_series_rejected(self):
        with pytest.raises(ValueError, match="diverges"):
            TheoryParams(c=0.99, alpha=1.05, d=1.0, p0=0.0, b=1.2)

    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValueError):
            TheoryParams(c=0.85, alpha=1.0, d=5.0, p0=0.0, b=0.5)

    @pytest.mark.parametrize("changes, message", [
        ({"alpha": math.nan}, "exponent must exceed 1"),
        ({"d": math.nan}, "mean degree must be positive"),
        ({"b": math.nan}, "b must be non-negative"),
        # c^alpha * b = 0 * inf is nan
        ({"alpha": math.inf, "b": math.inf}, "series diverges"),
    ], ids=["alpha", "d", "b", "ratio"])
    def test_nan_refused(self, changes, message):
        with pytest.raises(ValueError, match=message):
            TheoryParams(**{"c": 0.85, "alpha": 1.5, "d": 5.0, "p0": 0.0, "b": 0.5, **changes})

    def test_from_histogram_checks_mean(self):
        with pytest.raises(ValueError, match="mean"):
            TheoryParams.from_histogram(0.85, 1.2, {1: 0.5, 3: 0.5}, d=5.0)

    def test_infinite_mean_degree_refused(self):
        # (c (1 - p0) / d)^alpha would read 0, and every coefficient with it
        with pytest.raises(ValueError, match="mean degree must be positive and finite, got inf"):
            TheoryParams(c=0.85, alpha=1.5, d=math.inf, p0=0.1, b=0.5)

    @pytest.mark.parametrize("d, alpha, b", [(1e-320, 1.5, 0.5), (0.85, math.inf, 0.5),
                                             (1e-205, 1.5, 1.276), (5.0, math.inf, 0.5),
                                             (8.0, 400.0, 0.5)],
                             ids=["overflow", "nan", "limit", "infinite-alpha", "underflow"])
    def test_leading_coefficient_must_be_a_finite_float(self, d, alpha, b):
        # (0.85/1e-320)^1.5 = 10^480 overflows a float; at c(1-p0) = d an
        # infinite alpha reads inf * log10(1) = NaN; (0.85/1e-205)^1.5 is a
        # float, 2.5e307, but 1 - c^alpha*b = 1.5e-5 lifts C past the range.
        # C must also be positive: (0.85/5)^inf and (0.85/8)^400 = 10^-389
        # read 0.0, which would make every coefficient 0
        with pytest.raises(ValueError, match=r"^limit coefficient C = \(c\*\(1-p0\)/d\)\^alpha / "
                                             r"\(1 - c\^alpha\*b\) is not a positive finite "
                                             rf"float at c=0\.85, p0=0\.0, d={d}, alpha={alpha}, "
                                             rf"b={b}$"):
            TheoryParams(c=0.85, alpha=alpha, d=d, p0=0.0, b=b)

    @given(c=st.floats(1e-6, 0.999), alpha=st.floats(1.0, 3.0, exclude_min=True,
                                                     exclude_max=True),
           log10_d=st.floats(-300.0, 3.0), p0=st.floats(0.0, 0.99), b=st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_every_coefficient_of_built_params_is_a_finite_float(self, c, alpha, log10_d,
                                                                 p0, b):
        try:
            params = TheoryParams(c=c, alpha=alpha, d=10.0 ** log10_d, p0=p0, b=b)
        except ValueError:
            return
        ks = (1, 10, 10_000)
        for value in (coefficient_C(params), *(coefficient_Ck(params, k) for k in ks)):
            assert isinstance(value, float) and math.isfinite(value) and value > 0

    def test_from_histogram_derives_fields(self):
        params = TheoryParams.from_histogram(0.85, 1.2, {0: 0.2, 1: 0.4, 3: 0.4})
        assert params.d == pytest.approx(1.6)
        assert params.p0 == pytest.approx(0.2)
        assert params.b == pytest.approx(0.4 + 0.4 * 3 ** -0.2)


class TestCoefficients:
    @pytest.mark.parametrize("c,expected", [(0.2, -2.53), (0.5, -1.96), (0.85, -1.50)])
    def test_limit_heavy_graph_params(self, c, expected):
        params = TheoryParams(c=c, **INDOCHINA)
        assert math.log10(coefficient_C(params)) == pytest.approx(expected, abs=0.01)

    def test_first_iterations_small_graph_params(self):
        params = TheoryParams(c=0.85, **STANFORD)
        assert math.log10(coefficient_Ck(params, 1)) == pytest.approx(-1.08, abs=0.01)
        assert math.log10(coefficient_Ck(params, 2)) == pytest.approx(-0.85, abs=0.01)
        assert math.log10(coefficient_C(params)) == pytest.approx(-0.54, abs=0.01)

    def test_b_zero_collapses_to_c1(self):
        params = TheoryParams(c=0.7, alpha=1.4, d=3.0, p0=0.1, b=0.0)
        c1 = coefficient_Ck(params, 1)
        for k in (2, 5, 50):
            assert coefficient_Ck(params, k) == pytest.approx(c1, rel=1e-14)

    @given(c=st.floats(0.05, 0.95), alpha=st.floats(1.05, 2.0),
           d=st.floats(0.5, 50.0), p0=st.floats(0.0, 0.9), b=st.floats(0.01, 0.95))
    @settings(max_examples=150, deadline=None)
    def test_monotone_increasing_to_limit(self, c, alpha, d, p0, b):
        if c ** alpha * b >= 1.0:
            return
        params = TheoryParams(c=c, alpha=alpha, d=d, p0=p0, b=b)
        limit = coefficient_C(params)
        prev = 0.0
        for k in range(1, 8):
            ck = coefficient_Ck(params, k)
            assert prev <= ck <= limit * (1 + 1e-12)
            # strictly increasing until the increment saturates at the limit
            assert ck > prev or ck == pytest.approx(limit, rel=1e-12)
            prev = ck

    def test_partial_sums_reach_limit(self):
        params = TheoryParams(c=0.85, **STANFORD)
        r = params.geometric_ratio
        k_needed = math.ceil(math.log(1e-12) / math.log(r))
        diff = coefficient_C(params) - coefficient_Ck(params, k_needed)
        assert abs(diff) <= 1e-12
        table = coefficient_table(params)
        assert table["C_k"][-1] == pytest.approx(table["C_limit"], abs=1e-12)

    @pytest.mark.parametrize("k", [0, 2.5, True, "1"])
    def test_k_that_is_not_a_positive_integer_is_refused(self, k):
        params = TheoryParams(c=0.85, **STANFORD)
        with pytest.raises(ValueError, match=f"^k must be an integer >= 1, got {k!r}$"):
            coefficient_Ck(params, k)

    @pytest.mark.parametrize("k_max, message", [
        (2.5, "k_max must be an integer, got 2.5"),
        (True, "k_max must be an integer, got True"),
    ])
    def test_k_max_that_is_not_a_count_is_refused(self, k_max, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            coefficient_table(TheoryParams(c=0.85, **STANFORD), k_max=k_max)

    def test_numpy_integer_counts_accepted(self):
        params = TheoryParams(c=0.85, **STANFORD)
        assert coefficient_Ck(params, np.int64(2)) == coefficient_Ck(params, 2)
        assert coefficient_table(params, k_max=np.int32(2)) == coefficient_table(params, k_max=2)

    def test_damping_to_zero_kills_tail(self):
        params = TheoryParams(c=1e-4, **INDOCHINA)
        assert coefficient_C(params) < 1e-4

    def test_geometric_convergence_rate(self):
        params = TheoryParams(c=0.85, **STANFORD)
        r = params.geometric_ratio
        limit = coefficient_C(params)
        for k in (1, 3, 6):
            gap = limit - coefficient_Ck(params, k)
            assert gap == pytest.approx(limit * r ** k, rel=1e-9)


class TestLowerBound:
    def test_equality_for_constant_outdegree(self):
        params = TheoryParams.from_histogram(0.85, 1.3, {5: 1.0})
        assert coefficient_lower_bound(params) == pytest.approx(
            coefficient_C(params), rel=1e-12)

    @pytest.mark.parametrize("graph", [INDOCHINA, STANFORD], ids=["indochina", "stanford"])
    def test_ratio_is_d_times_c1(self, graph):
        # c^alpha * (1-p0)^alpha * d^(1-alpha), the constant out-degree b, is d * c1
        params = TheoryParams(c=0.85, **graph)
        b_const = (1 - params.p0) ** params.alpha * params.d ** (1 - params.alpha)
        assert coefficient_lower_bound(params) == pytest.approx(
            params.c1 / (1 - params.c ** params.alpha * b_const), rel=1e-13)

    @pytest.mark.parametrize("d", [0.1, 1e-200])
    def test_no_finite_bound_is_refused(self, d):
        # a d below 1 - p0, which no histogram gives, puts d * c1 at 2.5
        # (d = 0.1) and 2.5e99 (d = 1e-200)
        params = TheoryParams(c=0.85, alpha=1.5, d=d, p0=0.0, b=0.0)
        with pytest.raises(ValueError, match=r"^constant-out-degree coefficient C_J = "
                                             r"c1 / \(1 - d\*c1\) is not a finite float"):
            coefficient_lower_bound(params)

    def test_heavy_graph_gap(self):
        # direct evaluation of both closed forms at the heavy-graph params:
        # the constant-out-degree bound sits about a quarter below the limit
        # (0.13 decades on a log plot)
        params = TheoryParams(c=0.85, **INDOCHINA)
        bound = coefficient_lower_bound(params)
        limit = coefficient_C(params)
        assert bound <= limit
        assert (limit - bound) / limit == pytest.approx(0.258, abs=0.005)

    def test_alpha_near_one_closes_gap(self):
        # with b computed from a histogram, j^(1-alpha) -> 1 as alpha -> 1+
        # and the Jensen bound meets the limit
        hist = {0: 0.18, 2: 0.3, 9: 0.3, 60: 0.22}
        params = TheoryParams.from_histogram(0.85, 1.0 + 1e-9, hist)
        assert coefficient_lower_bound(params) == pytest.approx(
            coefficient_C(params), rel=1e-6)

    @given(hist=histograms(), c=st.floats(0.05, 0.9), alpha=st.floats(1.01, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_bound_never_exceeds_limit(self, hist, c, alpha):
        d = sum(j * p for j, p in hist.items())
        if d <= 0:
            return
        try:
            params = TheoryParams.from_histogram(c, alpha, hist)
        except ValueError:
            return
        assert coefficient_lower_bound(params) <= coefficient_C(params) * (1 + 1e-12)


class TestPredictLine:
    def test_heavy_graph_mid_damping(self):
        params = TheoryParams(c=0.5, **INDOCHINA)
        slope, intercept = predict_line(1.17, 0.80, coefficient_C(params))
        assert slope == -1.17
        assert intercept == pytest.approx(-1.16, abs=0.01)

    def test_unit_coefficient_keeps_intercept(self):
        assert predict_line(1.1, 0.42, 1.0) == (-1.1, pytest.approx(0.42))

    def test_small_graph_limit_line(self):
        params = TheoryParams(c=0.85, **STANFORD)
        _, intercept = predict_line(1.1, 0.08, coefficient_C(params))
        assert intercept == pytest.approx(-0.46, abs=0.01)

    @pytest.mark.parametrize("intercept", [math.nan, math.inf, -math.inf])
    def test_non_finite_intercept_refused(self, intercept):
        with pytest.raises(ValueError, match=f"in-degree intercept must be finite, got {intercept}"):
            predict_line(1.5, intercept, 0.5)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_refused(self, alpha):
        with pytest.raises(ValueError, match=f"in-degree exponent must be finite, got {alpha}"):
            predict_line(alpha, 0.0, 0.5)

    @pytest.mark.parametrize("c_value", [math.nan, math.inf, 0.0, -0.5])
    def test_coefficient_must_be_a_positive_finite_float(self, c_value):
        with pytest.raises(ValueError, match="coefficient must be a positive finite float, "
                                             f"got {c_value}"):
            predict_line(1.5, 0.0, c_value)

    def test_table_export(self):
        params = TheoryParams(c=0.85, **STANFORD)
        table = coefficient_table(params, k_max=3)
        assert table == {"b": params.b,
                         "C_k": [coefficient_Ck(params, k) for k in (1, 2, 3)],
                         "C_limit": coefficient_C(params),
                         "C_lower_bound": coefficient_lower_bound(params)}
