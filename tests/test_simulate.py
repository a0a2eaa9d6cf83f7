import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SecondGeneration, solved_histogram
from ranktail import graph as graph_mod
from ranktail import simulate
from ranktail.simulate import (EffectiveOutdegreeSampler, InDegreeLaw, ModelSpec, SamplePool,
                               SimulationConvergenceError, initial_pool, iterate_pool,
                               simulate_R, simulate_Y_levels, tail_ratio_table)
from ranktail.theory import TheoryParams, coefficient_Ck

# the seeded in-degrees of the chunk-boundary tests: runs of zeros around
# the chunk edges of sizes 1, 7 and 64, and one sample whose 150 children
# span three 64-child chunks
EDGE_ZEROS_IN = {2: 3, 5: 4, 8: 150, 10: 1, 12: 57, 15: 7, 400: 2, 9_997: 5}

# moderate-tail spec (finite variance) used wherever sample means must settle
CALM_HIST = {0: 0.2, 1: 0.3, 2: 0.2, 4: 0.2, 10: 0.1}  # mean 2.5


def outdegree_table(hist, d):
    """The classes j >= 1 of a histogram and the cumulative sums of
    q_j = j*p_j/d, the last set to 1.0, as the sampler builds them."""
    items = [(j, p) for j, p in sorted(hist.items()) if j >= 1 and p > 0]
    cum = np.cumsum([j * p / d for j, p in items])
    cum[-1] = 1.0
    return np.array([j for j, _ in items]), cum


def calm_spec(**kw):
    base = dict(c=0.5, alpha=2.5, d=2.5, outdeg_hist=CALM_HIST,
                pool_size=50_000, seed=3)
    base.update(kw)
    return ModelSpec(**base)


def heavy_spec(**kw):
    hist = solved_histogram(1.1, 8.2, 0.006, 0.8558)
    base = dict(c=0.85, alpha=1.1, d=8.2, outdeg_hist=hist,
                pool_size=1_000_000, seed=7)
    base.update(kw)
    return ModelSpec(**base)


class TestModelSpec:
    def test_pool_size_floor(self):
        with pytest.raises(ValueError, match="pool_size"):
            calm_spec(pool_size=100)

    def test_histogram_mean_must_match_d(self):
        with pytest.raises(ValueError, match="mean"):
            calm_spec(d=3.0)

    def test_alpha_above_one(self):
        with pytest.raises(ValueError):
            calm_spec(alpha=1.0)

    def test_zero_damping_allowed(self):
        assert calm_spec(c=0.0).baseline == 1.0

    def test_pareto_scale_matches_mean(self):
        spec = calm_spec()
        assert spec.indegree.t_min == pytest.approx(2.5 * 1.5 / 2.5)
        # E(T) = t_min * alpha / (alpha - 1) = d
        assert spec.indegree.t_min * spec.alpha / (spec.alpha - 1) == pytest.approx(spec.d)

    def test_json_round_trip(self):
        spec = calm_spec()
        again = ModelSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec

    def test_missing_fields_listed(self):
        with pytest.raises(ValueError, match="alpha"):
            ModelSpec.from_dict({"c": 0.5, "d": 1.0, "outdeg_hist": {"1": 1.0}})

    def test_int_fields_take_integral_numbers_only(self):
        obj = {**calm_spec().to_dict(), "pool_size": 1e6, "seed": 3.0}
        spec = ModelSpec.from_dict(obj)
        assert (spec.pool_size, spec.seed) == (1_000_000, 3)
        with pytest.raises(ValueError, match=r"field 'seed': expected int, got 1\.5"):
            ModelSpec.from_dict({**obj, "seed": 1.5})

    @pytest.mark.parametrize("seed", [-1, 2.0, True])
    def test_seed_that_is_not_a_non_negative_integer_is_named(self, seed):
        message = f"^seed must be a non-negative integer, got {seed!r}$"
        with pytest.raises(ValueError, match=message):
            calm_spec(seed=seed)


class TestInDegreeSampler:
    def test_mean_matches_d(self, rng):
        law = InDegreeLaw(alpha=2.5, d=2.5)
        n = law.sample(rng, size=1_000_000)
        assert abs(n.mean() - law.d) <= 5 * n.std() / 1_000

    def test_tail_index_recovered(self, rng):
        from ranktail.tails import fit_exponent_mle
        law = InDegreeLaw(alpha=1.3, d=5.0)
        n = law.sample(rng, size=1_000_000)
        # deep threshold: the count is Poisson-smeared below, Pareto above
        x_min = np.quantile(n, 0.995)
        fit = fit_exponent_mle(n[n > 0], x_min)
        assert fit.alpha_hat == pytest.approx(1.3, abs=0.05)

    def test_zero_count_probability_identity(self):
        # P(N=0) = E(exp(-T)); alpha=2, d=2 puts the Pareto scale at exactly 1
        law = InDegreeLaw(alpha=2.0, d=2.0)
        assert law.t_min == pytest.approx(1.0)
        rng = np.random.default_rng(99)
        t = (1.0 - rng.random(10_000_000)) ** (-1.0 / law.alpha)
        expected = np.exp(-t).mean()
        se_expected = np.exp(-t).std() / np.sqrt(t.size)
        n = law.sample(np.random.default_rng(17), size=10_000_000)
        freq = np.mean(n == 0)
        se_freq = np.sqrt(freq * (1 - freq) / n.size)
        assert abs(freq - expected) <= 3 * np.hypot(se_expected, se_freq)

    @pytest.mark.parametrize("alpha, d", [(1.1, 8.2), (1.5, 30.0), (2.5, 2.5)])
    def test_tail_matches_oracle_ccdf(self, alpha, d):
        # the oracle states P(T > t) on its own, 1 below t_min included
        law = InDegreeLaw(alpha=alpha, d=d)
        oracle = SecondGeneration(0.5, alpha, d, {1: 1.0})
        xs = np.geomspace(oracle.t_min / 10, 1e6 * oracle.t_min, 50)
        assert (law.tail(xs[xs <= oracle.t_min]) == 1.0).all()
        np.testing.assert_allclose(law.tail(xs), oracle._sf(xs), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("alpha, d, message", [
        (np.inf, 8.0, "tail index alpha must exceed 1 (finite mean in-degree) and be finite, "
                      "got inf"),
        (1.5, np.inf, "mean degree must be positive and finite, got inf"),
    ], ids=["alpha", "d"])
    def test_infinite_parameter_refused(self, alpha, d, message):
        # an infinite alpha or d would make the Pareto scale NaN or infinite,
        # which numpy's Poisson draw refuses with a message naming neither
        with pytest.raises(ValueError) as info:
            InDegreeLaw(alpha=alpha, d=d)
        assert str(info.value) == message

    def test_law_built_once_per_spec(self, monkeypatch):
        built = []
        init = InDegreeLaw.__init__

        def spy(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(InDegreeLaw, "__init__", spy)
        spec = calm_spec(pool_size=10_000)
        assert built == [(2.5, 2.5)]
        simulate_R(spec, 3)
        simulate_Y_levels(spec, 2, n_samples=100)
        assert len(built) == 1


class TestEffectiveOutdegreeSampler:
    def test_degenerate_single_class(self, rng):
        assert (EffectiveOutdegreeSampler({1: 1.0}, 1.0).sample(rng, 10) == 1).all()

    def test_size_biased_frequencies(self, rng):
        draws = EffectiveOutdegreeSampler({1: 0.5, 3: 0.5}, 2.0).sample(rng, 1_000_000)
        for j, q in [(1, 0.25), (3, 0.75)]:
            freq = np.mean(draws == j)
            assert abs(freq - q) <= 3 * np.sqrt(q * (1 - q) / draws.size)

    def test_inverse_mean_identity(self, rng):
        sampler = EffectiveOutdegreeSampler(CALM_HIST, 2.5)
        draws = sampler.sample(rng, 1_000_000)
        inv = 1.0 / draws
        expected = (1 - 0.2) / 2.5
        assert abs(inv.mean() - expected) <= 3 * inv.std() / np.sqrt(draws.size)

    def test_sample_is_the_lookup_of_uniforms(self):
        sampler = EffectiveOutdegreeSampler(CALM_HIST, 2.5)
        draws = sampler.sample(np.random.default_rng(6), 100_000)
        looked_up = sampler.lookup(np.random.default_rng(6).random(100_000))
        assert draws.tobytes() == looked_up.tobytes()
        assert set(np.unique(draws)) == {1, 2, 4, 10}

    def test_all_mass_dangling_rejected(self):
        with pytest.raises(ValueError):
            EffectiveOutdegreeSampler({0: 1.0}, 0.0)

    def test_cuts_on_bucket_edges(self):
        # q = (1/4, 1/8, 1/8, 1/2) puts the cuts 1/4 and 1/2 on edges of the
        # four-bucket guide table and 3/8 inside a bucket
        sampler = EffectiveOutdegreeSampler({2: 1 / 2, 3: 1 / 6, 6: 1 / 12, 8: 1 / 4}, 4.0)
        below = np.nextafter([0.25, 0.375, 0.5, 1.0], 0.0)
        u = np.array([0.0, below[0], 0.25, below[1], 0.375, below[2], 0.5, below[3]])
        assert sampler.lookup(u).tolist() == [2, 2, 3, 3, 6, 6, 8, 8]

    # q_j many decades apart (a wide spread) crowds cuts into one bucket of
    # the guide table, and rounding makes some cuts equal
    @given(classes=st.integers(1, 3_000), spread=st.floats(0.0, 30.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_lookup_is_the_binary_search_of_the_cuts(self, classes, spread, seed):
        rng = np.random.default_rng(seed)
        degrees = np.sort(rng.choice(np.arange(1, 10 * classes + 1), classes, replace=False))
        weights = np.exp(spread * rng.standard_normal(classes))
        hist = dict(zip(degrees.tolist(), (weights / weights.sum()).tolist()))
        d = float(sum(j * p for j, p in hist.items()))
        values, cum = outdegree_table(hist, d)
        edges = np.arange(1 << 16) / (1 << 16)  # every bucket edge of every table
        u = np.concatenate([cum, np.nextafter(cum, 0.0), edges, np.nextafter(edges, 0.0),
                            [0.0, np.nextafter(1.0, 0.0)], rng.random(1_000)])
        u = u[(u >= 0.0) & (u < 1.0)]
        looked_up = EffectiveOutdegreeSampler(hist, d).lookup(u)
        assert looked_up.tolist() == values[np.searchsorted(cum, u, side="right")].tolist()


class TestIteratePool:
    def test_zero_damping_collapses_to_ones(self, rng):
        spec = calm_spec(c=0.0, pool_size=10_000)
        pool = iterate_pool(initial_pool(spec), spec, rng)
        assert (pool.values == 1.0).all()
        assert pool.generation == 1

    def test_lower_bound_and_generation(self, rng):
        spec = calm_spec(pool_size=10_000)
        pool = initial_pool(spec)
        for gen in range(1, 4):
            pool = iterate_pool(pool, spec, rng)
            assert pool.generation == gen
            assert pool.values.min() >= spec.baseline - 1e-12

    def test_mean_stays_one_for_twenty_generations(self):
        spec = calm_spec()
        rng = np.random.default_rng(spec.seed)
        pool = initial_pool(spec)
        band = 5.0 / np.sqrt(spec.pool_size)
        for _ in range(20):
            pool = iterate_pool(pool, spec, rng)
            assert abs(pool.values.mean() - 1.0) <= band

    def test_first_generation_matches_direct_sampler(self):
        # against an independent implementation of c*sum(1/D_j) + baseline
        spec = heavy_spec(pool_size=1_000_000)
        pool = simulate_R(spec, 1)
        rng = np.random.default_rng(1234)
        t = spec.indegree.t_min * (1.0 - rng.random(spec.pool_size)) ** (-1.0 / spec.alpha)
        n = rng.poisson(t)
        js = np.array(sorted(j for j in spec.outdeg_hist if j >= 1))
        q = np.array([j * spec.outdeg_hist[int(j)] / spec.d for j in js])
        d_draw = rng.choice(js, size=int(n.sum()), p=q / q.sum())
        owners = np.repeat(np.arange(spec.pool_size), n)
        direct = spec.baseline + spec.c * np.bincount(
            owners, weights=1.0 / d_draw, minlength=spec.pool_size)
        a, b = np.sort(pool.values), np.sort(direct)
        grid = np.concatenate([a, b])
        ks = np.abs(np.searchsorted(a, grid, side="right") / a.size
                    - np.searchsorted(b, grid, side="right") / b.size).max()
        assert ks < 0.01

    def test_paired_indegrees_returned(self, rng, drawn_indegrees):
        spec = calm_spec(pool_size=10_000)
        pool = iterate_pool(initial_pool(spec), spec, rng)
        (n,) = drawn_indegrees
        assert n.shape == (10_000,)
        # samples that drew no children sit exactly at the baseline
        assert np.allclose(pool.values[n == 0], spec.baseline)


def searchsorted_generation(pool, spec, rng, n_in, chunk):
    """One generation with a binary search per child for its owner and for
    its D, and the same draws, in the same order, as ``iterate_pool``."""
    values, cum = outdegree_table(spec.outdeg_hist, spec.d)
    bounds = np.cumsum(n_in)
    acc = np.zeros(spec.pool_size)
    prev = pool.values
    for start in range(0, int(bounds[-1]), chunk):
        stop = min(start + chunk, int(bounds[-1]))
        d_draw = values[np.searchsorted(cum, rng.random(stop - start), side="right")]
        r_draw = prev[rng.integers(0, prev.size, size=stop - start)]
        owners = np.searchsorted(bounds, np.arange(start, stop), side="right")
        acc += np.bincount(owners, weights=r_draw / d_draw, minlength=spec.pool_size)
    return spec.baseline + spec.c * acc


class TestChunkBoundaries:
    @staticmethod
    def edge_zeros_pools(monkeypatch, chunk):
        """``iterate_pool`` and ``searchsorted_generation`` from the same
        pool and seed, with the in-degrees of ``EDGE_ZEROS_IN``."""
        spec = calm_spec(pool_size=10_000)
        n_in = np.zeros(spec.pool_size, dtype=np.int64)
        n_in[list(EDGE_ZEROS_IN)] = list(EDGE_ZEROS_IN.values())
        pool = simulate.SamplePool(
            values=np.random.default_rng(4).random(spec.pool_size) + 0.5, generation=0)
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        monkeypatch.setattr(simulate.InDegreeLaw, "sample",
                            lambda law, rng, size: n_in.copy())
        new = iterate_pool(pool, spec, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        return new.values, searchsorted_generation(pool, spec, rng, n_in, chunk)

    @staticmethod
    def drawn_pools(monkeypatch, chunk):
        """The same pair of pools, with in-degrees drawn as ``iterate_pool``
        draws them."""
        spec = calm_spec(pool_size=10_000)
        pool = simulate_R(spec, 1)
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        new = iterate_pool(pool, spec, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        n_in = spec.indegree.sample(rng, spec.pool_size)
        return new.values, searchsorted_generation(pool, spec, rng, n_in, chunk)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_pool_bytes_match_searchsorted_owners(self, monkeypatch, chunk):
        new, expected = self.edge_zeros_pools(monkeypatch, chunk)
        assert new.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("chunk", [7, 64])
    def test_drawn_indegrees_match_searchsorted_owners(self, monkeypatch, chunk):
        new, expected = self.drawn_pools(monkeypatch, chunk)
        assert new.tobytes() == expected.tobytes()

    # blocks of 5 and 16 children hold the 150-child owner alone, in each
    # 64-child chunk it spans
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", [5, 16])
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_small_blocks_match_on_every_worker_count(self, monkeypatch, spy_pool, chunk,
                                                      block, workers):
        monkeypatch.setattr(simulate, "_BLOCK", block)
        monkeypatch.setattr(graph_mod, "_cpu_count", lambda: workers)
        new, expected = self.edge_zeros_pools(monkeypatch, chunk)
        assert new.tobytes() == expected.tobytes()
        if workers > 1 and chunk == 64:  # a chunk of several blocks ran on the pool
            assert sum(p.submits for p in spy_pool.made) > 0
        assert all(p.shut_down for p in spy_pool.made)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [7, 64])
    def test_drawn_indegrees_in_small_blocks_on_every_worker_count(self, monkeypatch,
                                                                   chunk, workers):
        monkeypatch.setattr(simulate, "_BLOCK", 16)
        monkeypatch.setattr(graph_mod, "_cpu_count", lambda: workers)
        new, expected = self.drawn_pools(monkeypatch, chunk)
        assert new.tobytes() == expected.tobytes()


class TestSimulateR:
    def test_integer_generations(self):
        spec = calm_spec(pool_size=10_000)
        pool = simulate_R(spec, 3)
        assert pool.generation == 3

    def test_bad_k_rejected(self):
        spec = calm_spec(pool_size=10_000)
        for k in (0, 2.5, True, "3"):
            with pytest.raises(ValueError, match="k must be a positive integer or 'converged'"):
                simulate_R(spec, k)

    def test_converged_mode_stops(self):
        # smallest k with 2 * (c*(1-p0))^k <= 1e-3: 2 * 0.24^6 = 3.8e-4
        spec = calm_spec(pool_size=200_000, c=0.3)
        pool = simulate_R(spec, "converged")
        assert pool.generation == 6

    def test_converged_count_ignores_pool_size(self):
        # crit3's c*(1-p0) = 0.8449 needs 46 generations at any pool size
        pool = simulate_R(heavy_spec(pool_size=10_000), "converged")
        assert pool.generation == 46

    def test_converged_without_damping_is_one_generation(self):
        pool = simulate_R(calm_spec(pool_size=10_000, c=0.0), "converged")
        assert pool.generation == 1
        assert np.all(pool.values == 1.0)

    def test_distributional_fixed_point(self):
        # pushing the converged pool one more generation moves the CCDF by
        # less than 2e-3 at log-spaced probes
        spec = calm_spec(pool_size=2_000_000, c=0.3, seed=21)
        pool = simulate_R(spec, "converged")
        probes = np.geomspace(pool.values.min(),
                              np.quantile(pool.values, 0.999), 20)
        after = iterate_pool(pool, spec, np.random.default_rng(777))

        def ccdf_at(values):  # the fraction of the samples above each probe
            above = values.size - np.searchsorted(np.sort(values), probes, side="right")
            return above / values.size

        diff = np.abs(ccdf_at(pool.values) - ccdf_at(after.values)).max()
        assert diff < 2e-3

    def test_nonconvergence_raises_with_diagnostics(self, monkeypatch):
        # no dangling mass: c*(1-p0) = 0.999 needs 7,598 generations, so
        # the run is refused before any generation is drawn
        def no_draws(*args, **kwargs):
            raise AssertionError("a generation was drawn")

        monkeypatch.setattr(simulate, "iterate_pool", no_draws)
        spec = calm_spec(c=0.999, outdeg_hist={1: 0.5, 4: 0.5}, pool_size=10_000, seed=5)
        with pytest.raises(SimulationConvergenceError,
                           match=r"7598 generations.*= 0\.999\)") as err:
            simulate_R(spec, "converged")
        assert err.value.generations == 7598

    def test_first_generation_tail_tracks_theory(self, monkeypatch):
        # one iteration from the unit pool: summands are bounded, so the
        # predicted tail constant is accurate at moderate depth
        monkeypatch.setattr(simulate, "_CCDF_WINDOW", (3e-4, 1e-2))
        spec = heavy_spec(seed=42)
        pool = simulate_R(spec, 1)
        params = TheoryParams.from_histogram(spec.c, spec.alpha,
                                             spec.outdeg_hist, d=spec.d)
        rows = tail_ratio_table(pool, spec, coefficient_Ck(params, 1))
        assert all(0.85 <= r["ratio"] <= 1.15 for r in rows if r["in_window"]), rows


class TestTailRatioTable:
    def test_row_structure(self, monkeypatch):
        monkeypatch.setattr(simulate, "_CCDF_WINDOW", (1e-3, 1e-1))
        spec = calm_spec(pool_size=100_000)
        pool = simulate_R(spec, 2)
        rows = tail_ratio_table(pool, spec, 0.05)
        assert len(rows) == 5
        for row in rows:
            assert set(row) == {"x", "empirical", "theory", "ratio", "in_window"}
            assert row["theory"] > 0

    def test_theory_is_coefficient_below_pareto_scale(self):
        # d = 30 puts t_min at 10, above the first probes of this pool:
        # P(T > x) = 1 there, so the predicted tail is the coefficient itself
        spec = ModelSpec(c=0.1, alpha=1.5, d=30.0, outdeg_hist={30: 1.0},
                         pool_size=100_000, seed=1)
        pool = simulate_R(spec, 3)
        c3 = coefficient_Ck(TheoryParams.from_histogram(spec.c, spec.alpha, spec.outdeg_hist,
                                                        d=spec.d), 3)
        rows = tail_ratio_table(pool, spec, c3)
        below = [r for r in rows if r["x"] < spec.indegree.t_min]
        assert below, rows
        assert all(r["theory"] == c3 for r in below), below
        assert all(r["theory"] < c3 for r in rows if r["x"] > spec.indegree.t_min)


    @pytest.mark.parametrize("tied", [False, True], ids=["pool", "tied"])
    def test_rows_match_a_sorted_reference(self, monkeypatch, tied):
        monkeypatch.setattr(simulate, "_CCDF_WINDOW", (1e-3, 1e-1))
        spec = calm_spec(pool_size=100_000)
        pool = simulate_R(spec, 2)
        if tied:  # integer values, so probes fall on values many samples share
            values = np.random.default_rng(4).integers(1, 30, 100_000).astype(float)
            pool = SamplePool(values=values, generation=2)
        rows = tail_ratio_table(pool, spec, 0.05)
        ordered = np.sort(pool.values)
        lo, hi = simulate._CCDF_WINDOW
        xs = np.geomspace(*np.quantile(ordered, [1.0 - hi, 1.0 - lo]), 5)
        emp = (ordered.size - np.searchsorted(ordered, xs, side="right")) / ordered.size
        assert [r["x"] for r in rows] == xs.tolist()
        assert [r["empirical"] for r in rows] == emp.tolist()
        assert [r["theory"] for r in rows] == (0.05 * spec.indegree.tail(xs)).tolist()


class TestTreeLevels:
    def test_level_zero_is_one(self):
        res = simulate_Y_levels(calm_spec(pool_size=10_000), 0, n_samples=50)
        assert res.values[:, 0] == pytest.approx(np.ones(50))
        assert res.aborted.mean() == 0.0

    def test_martingale_means(self):
        spec = calm_spec(pool_size=10_000, seed=13)
        res = simulate_Y_levels(spec, 4, n_samples=8_000)
        for level in range(5):
            vals = res.values[~res.aborted, level]
            expected = (1 - 0.2) ** level
            se = vals.std() / np.sqrt(vals.size)
            assert abs(vals.mean() - expected) <= max(4 * se, 1e-12), level

    def test_unit_outdegree_gives_generation_sizes(self):
        # D == 1 and d = 1: critical branching, mean level size 1
        spec = ModelSpec(c=0.5, alpha=2.5, d=1.0, outdeg_hist={1: 1.0},
                         pool_size=10_000, seed=11)
        res = simulate_Y_levels(spec, 4, n_samples=5_000)
        sizes = res.values[~res.aborted]
        assert (sizes == np.round(sizes)).all()  # all weights are 1
        for level in (1, 2, 3, 4):
            vals = res.values[~res.aborted, level]
            se = vals.std() / np.sqrt(vals.size)
            assert abs(vals.mean() - 1.0) <= 4 * se

    def test_budget_abort_flagged(self, monkeypatch):
        monkeypatch.setattr(simulate, "_NODE_BUDGET", 8)
        spec = calm_spec(pool_size=10_000, seed=3)
        res = simulate_Y_levels(spec, 5, n_samples=300)
        assert res.aborted.mean() > 0
        assert np.isnan(res.values[res.aborted]).all()

    def test_same_seed_same_levels(self, monkeypatch):
        monkeypatch.setattr(simulate, "_NODE_BUDGET", 200)
        spec = calm_spec(pool_size=10_000, seed=13)
        a = simulate_Y_levels(spec, 4, n_samples=2_000)
        b = simulate_Y_levels(spec, 4, n_samples=2_000)
        assert a.aborted.any()
        assert a.values.tobytes() == b.values.tobytes()
        assert a.aborted.tobytes() == b.aborted.tobytes()

    def test_completed_trees_within_node_budget(self, monkeypatch):
        # with D == 1 every weight is 1, so 1 + sum_{n>=1} Y_n counts the nodes
        monkeypatch.setattr(simulate, "_NODE_BUDGET", 20)
        spec = ModelSpec(c=0.5, alpha=2.5, d=1.0, outdeg_hist={1: 1.0},
                         pool_size=10_000, seed=11)
        res = simulate_Y_levels(spec, 4, n_samples=5_000)
        assert res.aborted.any()
        assert (1 + res.values[~res.aborted, 1:].sum(axis=1) <= 20).all()

    def test_block_split_keeps_level_means(self, monkeypatch):
        sizes = []
        draw = EffectiveOutdegreeSampler.sample

        def spy(self, rng, size):
            sizes.append(size)
            return draw(self, rng, size)

        monkeypatch.setattr(simulate, "_CHUNK", 64)
        monkeypatch.setattr(EffectiveOutdegreeSampler, "sample", spy)
        spec = calm_spec(pool_size=10_000, seed=13)
        res = simulate_Y_levels(spec, 4, n_samples=8_000)
        assert len(sizes) > 4  # more than one block per level
        assert res.aborted.mean() == 0.0
        for level in range(5):
            vals = res.values[~res.aborted, level]
            expected = (1 - 0.2) ** level
            se = vals.std() / np.sqrt(vals.size)
            assert abs(vals.mean() - expected) <= max(4 * se, 1e-12), level
        sizes.clear()
        monkeypatch.setattr(simulate, "_NODE_BUDGET", 100)
        simulate_Y_levels(spec, 4, n_samples=8_000)
        assert max(sizes) <= 100  # max(_CHUNK, _NODE_BUDGET) children per block

    def test_level_cap(self):
        with pytest.raises(ValueError):
            simulate_Y_levels(calm_spec(pool_size=10_000), 7)
        with pytest.raises(ValueError):
            simulate_Y_levels(calm_spec(pool_size=10_000), 2, n_samples=20_000)

    def test_series_reconstruction_mean(self):
        # baseline * sum_n c^n Y_n over a shared tree has mean
        # baseline * sum_n (c*(1-p0))^n
        spec = calm_spec(pool_size=10_000, seed=29)
        res = simulate_Y_levels(spec, 5, n_samples=6_000)
        weights = spec.c ** np.arange(6)
        partial = spec.baseline * (res.values[~res.aborted] * weights).cumsum(axis=1)
        geo = spec.baseline * np.cumsum((spec.c * (1 - 0.2)) ** np.arange(6))
        for k in range(6):
            vals = partial[:, k]
            se = vals.std() / np.sqrt(vals.size)
            assert abs(vals.mean() - geo[k]) <= 4 * se, k


class TestOutdegreeTable:
    def test_built_once_per_spec(self, monkeypatch):
        built = []
        init = EffectiveOutdegreeSampler.__init__

        def spy(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(EffectiveOutdegreeSampler, "__init__", spy)
        spec = calm_spec(pool_size=10_000)
        assert len(built) == 1
        simulate_R(spec, 3)
        simulate_Y_levels(spec, 2, n_samples=100)
        assert len(built) == 1


def sha256(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


class TestDeterminism:
    # digests of draws at fixed seeds, taken before the in-degree law moved
    # into InDegreeLaw; they pin the rng calls and float operations of the
    # draws (on numpy 2.4, x86-64), not only their law
    def test_pool_digest_pinned(self):
        pool = simulate_R(heavy_spec(pool_size=10_000, seed=5), 3)  # the crit3 spec
        assert sha256(pool.values) == (
            "05ef7b010e2ec0d01d383e5964ae7bf6e6baca37c1a3e0f97a3281de5cc9fef7")

    def test_y_levels_digest_pinned(self):
        res = simulate_Y_levels(calm_spec(pool_size=10_000, seed=13), 4, 1_000)  # crit5
        assert sha256(res.values) == (
            "d8dc05f616d15871405bbdef478948f5f98c894fb0fc32157346dd8854081467")
        assert sha256(res.aborted) == (
            "541b3e9daa09b20bf85fa273e5cbd3e80185aa4ec298e765db87742b70138a53")

    def test_same_seed_same_pool(self):
        spec = calm_spec(pool_size=10_000)
        a = simulate_R(spec, 3)
        b = simulate_R(spec, 3)
        assert a.values.tobytes() == b.values.tobytes()

    def test_pool_values_read_only(self):
        pool = initial_pool(calm_spec(pool_size=10_000))
        with pytest.raises(ValueError):
            pool.values[0] = 2.0
