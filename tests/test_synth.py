import numpy as np
import pytest

from oracles import solved_histogram
from ranktail.graph import degree_profile
from ranktail.simulate import EffectiveOutdegreeSampler
from ranktail.synth import SynthSpec, generate
from ranktail.tails import fit_exponent_mle


def spec_for(n=100_000, alpha=1.5, d=8.0, hist=None, seed=0, **kw):
    if hist is None:
        hist = solved_histogram(alpha, d, 0.1, 0.45, atoms=(1, 8, 64))
    return SynthSpec(n=n, alpha=alpha, d=d, outdeg_hist=hist, seed=seed, **kw)


class TestSpecValidation:
    def test_minimum_size(self):
        with pytest.raises(ValueError, match="1000"):
            spec_for(n=10)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            SynthSpec(n=1000, alpha=1.5, d=1.0, outdeg_hist={1: 0.5}, seed=0)

    def test_mismatched_mean_rescales_with_warning(self):
        with pytest.warns(UserWarning, match="rescaled"):
            spec = SynthSpec(n=1000, alpha=1.5, d=2.0,
                             outdeg_hist={0: 0.5, 2: 0.5}, seed=0)
        mean = sum(j * p for j, p in spec.outdeg_hist.items())
        assert mean == pytest.approx(2.0)
        assert sum(spec.outdeg_hist.values()) == pytest.approx(1.0)

    def test_unreachable_mean_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(n=1000, alpha=1.5, d=5.0, outdeg_hist={0: 0.5, 1: 0.5}, seed=0)

    def test_no_out_capacity_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(n=1000, alpha=1.5, d=1.0, outdeg_hist={0: 1.0}, seed=0)


class TestGenerate:
    def test_fixed_unit_indegree_permutation_like(self):
        spec = SynthSpec(n=1000, alpha=1.5, d=1.0, outdeg_hist={1: 1.0},
                         seed=4, fixed_indegree=1)
        g = generate(spec)
        assert g.m == g.n == 1000
        assert (g.in_deg == 1).all()
        profile = degree_profile(g)
        assert profile.d == 1.0

    def test_in_out_totals_match(self):
        g = generate(spec_for(n=20_000))
        assert int(g.in_deg.sum()) == int(g.out_deg.sum()) == g.m

    def test_realized_dangling_fraction(self):
        # smallest linked class is 8, so spontaneous dangling (a linked node
        # that receives no stubs) is ~exp(-8) and the assigned fraction rules
        hist = {0: 0.2, 8: 0.65, 40: 0.15}
        d = 0.65 * 8 + 0.15 * 40
        spec = SynthSpec(n=200_000, alpha=1.5, d=d, outdeg_hist=hist, seed=9)
        profile = degree_profile(generate(spec))
        se = np.sqrt(0.2 * 0.8 / spec.n)
        assert abs(profile.p0 - 0.2) <= 3 * se + np.exp(-8)

    def test_effective_outdegree_inspection_paradox(self):
        # the source of a uniformly random edge is size-biased: its realized
        # out-degree follows q_j = j*p_j/d of the realized profile
        spec = spec_for(n=100_000, seed=11)
        g = generate(spec)
        profile = degree_profile(g)
        q = EffectiveOutdegreeSampler(profile.p_hist, profile.d)
        rng = np.random.default_rng(0)
        src, _ = g.edge_arrays()
        sample = g.out_deg[src[rng.integers(0, g.m, size=50_000)]]
        for j, prob in sorted(zip(q.values, q.probabilities), key=lambda it: -it[1])[:5]:
            freq = np.mean(sample == j)
            se = np.sqrt(prob * (1 - prob) / sample.size)
            assert abs(freq - prob) <= 4 * se, (j, freq, prob)

    def test_self_loops_rare(self):
        g = generate(spec_for(n=20_000, seed=2))
        src, dst = g.edge_arrays()
        assert np.count_nonzero(src == dst) == 0  # redraws eliminate them here

    def test_determinism(self):
        a = generate(spec_for(n=5_000, seed=12))
        b = generate(spec_for(n=5_000, seed=12))
        assert a.in_src.tobytes() == b.in_src.tobytes()
        assert a.in_ptr.tobytes() == b.in_ptr.tobytes()
        assert a.out_deg.tobytes() == b.out_deg.tobytes()


@pytest.mark.slow
def test_million_node_mean_degree():
    # at alpha=1.5 the sample mean settles like n^(-1/3), so the realized
    # mean degree recovers the target within 2% at n = 1e6
    spec = SynthSpec(n=1_000_000, alpha=1.5, d=8.0,
                     outdeg_hist=solved_histogram(1.5, 8.0, 0.1, 0.45, atoms=(1, 8, 64)),
                     seed=1)
    profile = degree_profile(generate(spec))
    assert profile.d == pytest.approx(8.0, rel=0.02)


@pytest.mark.slow
def test_million_node_tail_exponent():
    # at alpha=1.1 the tail index is recoverable but the sample mean is not:
    # a barely-integrable law typically undershoots its expectation by
    # ~n^(1/alpha - 1) (~25% at n = 1e6), so only the exponent is asserted
    spec = SynthSpec(n=1_000_000, alpha=1.1, d=8.0,
                     outdeg_hist=solved_histogram(1.1, 8.0, 0.15, 0.75),
                     seed=7)
    g = generate(spec)
    indeg = np.asarray(g.in_deg, dtype=float)
    fit = fit_exponent_mle(indeg, float(np.quantile(indeg, 0.99)))
    assert fit.alpha_hat == pytest.approx(1.1, abs=0.05)
    assert int(g.in_deg.sum()) == int(g.out_deg.sum()) == g.m
