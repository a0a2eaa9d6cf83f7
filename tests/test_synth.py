import hashlib
import math
import re

import numpy as np
import pytest

from oracles import solved_histogram
from ranktail.graph import Graph, degree_profile
from ranktail.simulate import EffectiveOutdegreeSampler
from ranktail import blocks
from ranktail import graph as graph_mod
from ranktail import synth as synth_mod
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

    @pytest.mark.parametrize("n", [5000.0, 10])
    def test_node_count_that_is_not_an_integer_of_1000_is_named(self, n):
        # a float n would fail only inside numpy, when the in-degrees are drawn
        message = f"n must be an integer of at least 1000 (a meaningful degree law), got {n!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            spec_for(n=n)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            SynthSpec(n=1000, alpha=1.5, d=1.0, outdeg_hist={1: 0.5}, seed=0)

    @pytest.mark.parametrize("d", [2.0, 1.0 + 1e-7])
    def test_mismatched_mean_refused(self, d):
        # the histogram is kept as given: a mean off d by more than 1e-9
        # relative is refused, not rescaled
        message = f"histogram mean degree 1.0 differs from d={d!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SynthSpec(n=1000, alpha=1.5, d=d, outdeg_hist={0: 0.5, 2: 0.5}, seed=0)

    def test_histogram_kept_as_given(self):
        hist = {0: 0.5, 2: 0.5}
        assert SynthSpec(n=1000, alpha=1.5, d=1.0, outdeg_hist=hist).outdeg_hist is hist

    def test_unreachable_mean_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(n=1000, alpha=1.5, d=5.0, outdeg_hist={0: 0.5, 1: 0.5}, seed=0)

    def test_no_out_capacity_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(n=1000, alpha=1.5, d=1.0, outdeg_hist={0: 1.0}, seed=0)

    @pytest.mark.parametrize("alpha, d", [(1.0, 2.0), (1.5, 0.0), (math.nan, 2.0),
                                          (1.5, math.nan)])
    def test_in_degree_law_checked(self, alpha, d):
        with pytest.raises(ValueError, match="alpha must exceed 1|mean degree"):
            SynthSpec(n=1000, alpha=alpha, d=d, outdeg_hist={0: 1.0}, seed=0)


class TestGenerate:
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
        src = g.in_src
        sample = g.out_deg[src[rng.integers(0, g.m, size=50_000)]]
        for j, prob in sorted(zip(q.values, q.probabilities), key=lambda it: -it[1])[:5]:
            freq = np.mean(sample == j)
            se = np.sqrt(prob * (1 - prob) / sample.size)
            assert abs(freq - prob) <= 4 * se, (j, freq, prob)

    def test_self_loops_rare(self):
        g = generate(spec_for(n=20_000, seed=2))
        src, dst = g.in_src, np.repeat(np.arange(g.n), g.in_deg)
        assert np.count_nonzero(src == dst) == 0  # redraws eliminate them here

    def test_determinism(self):
        a = generate(spec_for(n=5_000, seed=12))
        b = generate(spec_for(n=5_000, seed=12))
        assert a.in_src.tobytes() == b.in_src.tobytes()
        assert a.in_ptr.tobytes() == b.in_ptr.tobytes()
        assert a.out_deg.tobytes() == b.out_deg.tobytes()

    @pytest.mark.parametrize("extra, width", [(1, np.int32), (0, np.int64)])
    def test_widths_at_the_limit(self, monkeypatch, extra, width):
        # the int32 limit patched down to m + extra values: in_ptr and
        # out_deg, whose values lie in [0, m], widen when m + 1 exceeds it;
        # the ids, of n = 5,000 < m, stay int32, and every value is the same
        g = generate(spec_for(n=5_000, seed=12))
        limit = g.m + extra
        narrow = lambda n: np.dtype(np.int32 if n <= limit else np.int64)
        monkeypatch.setattr(synth_mod, "_id_dtype", narrow)
        monkeypatch.setattr(graph_mod, "_id_dtype", narrow)
        h = generate(spec_for(n=5_000, seed=12))
        assert (h.in_ptr.dtype, h.out_deg.dtype) == (width, width)
        assert h.in_src.dtype == h.orig_ids.dtype == np.int32
        for name in ("in_ptr", "in_src", "out_deg", "orig_ids"):
            assert getattr(h, name).tolist() == getattr(g, name).tolist()

    def test_graph_digest_pinned(self):
        # digests taken before the in-degree law moved into InDegreeLaw, at
        # the README's histogram; they pin the draws (on numpy 2.4, x86-64).
        # They hash the values as int64, the width every array had then
        g = generate(SynthSpec(n=20_000, alpha=1.5, d=8.0,
                               outdeg_hist={0: 0.1, 4: 0.68, 24: 0.22}, seed=1))
        digests = {name: hashlib.sha256(getattr(g, name).astype(np.int64).tobytes()).hexdigest()
                   for name in ("in_ptr", "in_src", "out_deg")}
        assert digests == {
            "in_ptr": "e335fbf4538ff97e203b95e87564e9a1320c87233b4c811e8cc35712d0e27960",
            "in_src": "2c5fda7930a8671d691292f072417573f8182e7b5c476bd2bdf0f89f819ae02b",
            "out_deg": "256d40bac425642612d8f06285b0417e30b8facc668f4c5c2b90287be2e29b9c",
        }


def searchsorted_reference(spec):
    """The generator with each source found by a binary search of the uniform
    draw in the cumulative out-capacities, on the same rng calls in the same
    order, the in-degrees drawn through the spec's own law; also returns how
    many self-loop redraw rounds drew anything."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    indeg = spec.indegree.sample(rng, n)
    classes_j = np.array(sorted(spec.outdeg_hist), dtype=np.int64)
    class_p = np.array([spec.outdeg_hist[int(j)] for j in classes_j])
    assigned = classes_j[rng.choice(classes_j.size, size=n, p=class_p / class_p.sum())]
    weights = np.cumsum(assigned.astype(float))
    capacity = weights[-1]
    dst = np.repeat(np.arange(n, dtype=np.int64), indeg)
    src = np.searchsorted(weights, rng.random(dst.size) * capacity, side="right")
    rounds = 0
    for _ in range(100):
        loops = np.flatnonzero(src == dst)
        if loops.size == 0:
            break
        rounds += 1
        src[loops] = np.searchsorted(weights, rng.random(loops.size) * capacity,
                                     side="right")
    return Graph.from_edges(src, dst, n), rounds


class UnitInDegree:
    """Stands in for a spec's ``indegree`` law: one in-stub per node, drawn
    with no rng call."""

    def sample(self, rng, size):
        return np.ones(size, dtype=np.int64)


def unit_indegree_spec(**kw):
    spec = SynthSpec(**kw)
    object.__setattr__(spec, "indegree", UnitInDegree())
    return spec


@pytest.mark.parametrize("make_spec, redraws", [
    *[(lambda seed=seed: spec_for(n=20_000, seed=seed), None) for seed in (0, 1, 5, 12)],
    (lambda: SynthSpec(n=20_000, alpha=1.3, d=11.2, outdeg_hist={0: 0.2, 8: 0.65, 40: 0.15},
                       seed=3), None),
    (lambda: SynthSpec(n=5_000, alpha=2.5, d=3.0, outdeg_hist={3: 1.0}, seed=4), None),
    # every node has one in-stub and one or two nodes own every out-stub, so
    # the owners' in-stubs are self-loops until redrawn: a lone owner's
    # never goes away and runs the redraws to their cap
    (lambda: unit_indegree_spec(n=1_000, alpha=1.5, d=1.0,
                                outdeg_hist={0: 0.999, 1_000: 0.001}, seed=0), 100),
    (lambda: unit_indegree_spec(n=1_000, alpha=1.5, d=1.0,
                                outdeg_hist={0: 0.999, 1_000: 0.001}, seed=1), 6),
], ids=["seed0", "seed1", "seed5", "seed12", "class0", "single-class", "redraw-cap",
        "redraws"])
def test_same_graph_as_searchsorted_wiring(make_spec, redraws):
    spec = make_spec()
    expected, rounds = searchsorted_reference(spec)
    g = generate(spec)
    assert g.m == expected.m > 0
    for name in ("in_ptr", "in_src", "out_deg"):
        assert np.array_equal(getattr(g, name), getattr(expected, name)), name
    if redraws is not None:
        assert rounds == redraws


@pytest.mark.parametrize("chunk", [1_000, 4_097])
def test_sources_drawn_in_chunks_give_the_same_graph(monkeypatch, chunk):
    # sources are drawn _DRAW_PIECE edges at a time and placed and checked
    # for self-loops on every CPU; pieces that cut in-lists give the graph of
    # one whole-array draw, on any CPU count
    monkeypatch.setattr(synth_mod, "_DRAW_PIECE", chunk)
    for spec in (spec_for(n=20_000, seed=1),
                 unit_indegree_spec(n=3_000, alpha=1.5, d=1.0,
                                    outdeg_hist={0: 0.999, 1_000: 0.001}, seed=1)):
        expected, _ = searchsorted_reference(spec)
        for workers in (1, 2, 3):
            monkeypatch.setattr(blocks, "_cpu_count", lambda: workers)
            g = generate(spec)
            for name in ("in_ptr", "in_src", "out_deg"):
                assert np.array_equal(getattr(g, name), getattr(expected, name)), name


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
