import hashlib
import importlib
import io
import sys
import threading

import numpy as np
import pytest

from oracles import dense_pagerank, random_small_graph
from ranktail import blocks as blocks_mod
from ranktail.graph import Graph, load_edge_list
from ranktail.pagerank import PageRankParams, export_scores, pagerank, pagerank_series

# the package re-exports the function ``pagerank`` under the module's name
pagerank_mod = importlib.import_module("ranktail.pagerank")


def graph_from_text(text):
    return load_edge_list(io.BytesIO(text.encode()))


def path_graph():
    # 0 -> 1 -> 2 with node 2 dangling
    return graph_from_text("0 1\n1 2\n")


def hub_graph(rng):
    """About 190k edges in rows of 0-3 edges, with empty rows at both ends, a
    hub row longer than a block and a row starting exactly at edge 2 * block."""
    block = pagerank_mod._BLOCK_EDGES
    n = 40_000
    deg = rng.integers(0, 4, size=n)      # about a quarter of the rows empty
    deg[:3] = 0                           # empty rows at the start
    deg[-5:] = 0                          # and at the end
    deg[3] = block + 34_464               # a hub longer than one block
    deg[4] = 2 * block - deg[3]           # row 5 starts exactly at a block cut
    dst = np.repeat(np.arange(n), deg)
    src = rng.integers(0, n, size=dst.size)
    g = Graph.from_edges(src, dst, n)
    assert 2 * block in g.in_ptr and g.m > 150_000
    return g


def same_results(a, b):
    """Whether two pagerank_series results agree bit for bit."""
    return all(
        x.iters_run == y.iters_run and x.converged == y.converged
        and np.array_equal(x.scores, y.scores) and np.array_equal(x.residuals, y.residuals)
        and sorted(x.snapshots) == sorted(y.snapshots)
        and all(np.array_equal(x.snapshots[k], y.snapshots[k]) for k in x.snapshots)
        for x, y in zip(a, b, strict=True))


def rows_graph(rng, deg, n_src=None):
    """A graph whose row i holds deg[i] in-edges from uniform sources among
    the first n_src nodes (all of them by default); the others dangle."""
    n = deg.size
    dst = np.repeat(np.arange(n), deg)
    return Graph.from_edges(rng.integers(0, n_src or n, dst.size), dst, n)


def pinned_graph(case):
    """The graphs of `PINNED`, for kernel blocks of 256 edges."""
    rng = np.random.default_rng(11)
    if case == "dangling":  # a third of the nodes have no out-edge
        return rows_graph(rng, rng.integers(0, 8, 3_000), n_src=2_000)
    if case == "run boundaries":
        # 32 blocks of 32 rows of 8 edges, each followed by 3 empty rows: every
        # run starts after empty rows, at any CPU count, as does the graph
        block = np.concatenate([np.full(32, 8), np.zeros(3, np.int64)])
        return rows_graph(rng, np.concatenate([np.zeros(5, np.int64), np.tile(block, 32)]))
    if case == "hub":  # row 10 is longer than a block
        deg = rng.integers(0, 6, 3_000)
        deg[10] = 1_000
        return rows_graph(rng, deg)
    if case == "pieces":  # n is not a multiple of any power of two
        return rows_graph(rng, rng.integers(0, 6, 100_003))
    assert case == "no edge"
    return Graph.from_edges(np.array([], np.int64), np.array([], np.int64), 5)


def series_digest(results):
    """SHA-256 of pagerank_series results: stops, scores, residuals, snapshots."""
    digest = hashlib.sha256()
    for res in results:
        digest.update(repr((res.iters_run, res.converged, sorted(res.snapshots))).encode())
        for vector in (res.scores, res.residuals, *(res.snapshots[k] for k in sorted(res.snapshots))):
            digest.update(np.ascontiguousarray(vector, np.float64).tobytes())
    return digest.hexdigest()


# series_digest of pagerank_series(pinned_graph(case), [0.85, 0.2, 0.5], tol=1e-9,
# snapshot_iters={1, 2, 5}) with blocks of 256 edges, as the series computed
# it with whole-vector elementwise passes on the calling thread
PINNED = {
    "dangling": "a24f44fa555472e722215b0dc89f81099fe3f71b090b166db6855b45f6e0f691",
    "run boundaries": "d8519e6c0039cdb8a7ab195909508172f3da64afa7077a5f0162dacdd4b03209",
    "hub": "0670df12eb0fde02754d91b3a93e5cb82583b52ae7f85ba160e9bb781df0386d",
    "pieces": "01e647a175e1d10da792facd7a6282d6a24c34641d9d30c3bd2ad77db082c5ef",
    "no edge": "9d85ceb6882eb06ab66c3a2c2ef2f3a20c380672f2df860534ded1081196105f",
}


class TestParams:
    @pytest.mark.parametrize("c", [0.0, 1.0, -0.2, 1.7])
    def test_damping_range(self, c):
        with pytest.raises(ValueError):
            PageRankParams(c=c)

    def test_tol_and_iters(self):
        with pytest.raises(ValueError):
            PageRankParams(tol=0.0)
        with pytest.raises(ValueError, match="tol must be positive"):
            PageRankParams(tol=float("nan"))
        with pytest.raises(ValueError):
            PageRankParams(max_iters=0)

    def test_infinite_tol_refused(self):
        # every residual is below an infinite tol: one step would read as converged
        with pytest.raises(ValueError, match="tol must be positive and finite, got inf"):
            PageRankParams(tol=float("inf"))

    @pytest.mark.parametrize("max_iters", [2.5, 3.0, True])
    def test_max_iters_must_be_an_integer(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be >= 1 and an integer"):
            PageRankParams(max_iters=max_iters)

    @pytest.mark.parametrize("snapshots", [[1.5], [True], [2, 1.0]])
    def test_snapshot_indices_must_be_integers(self, snapshots):
        with pytest.raises(ValueError, match="snapshot iterations must be integers"):
            PageRankParams(snapshot_iters=snapshots)

    def test_numpy_integers_accepted(self):
        params = PageRankParams(max_iters=np.int32(5), snapshot_iters=[np.int64(2), 3])
        assert params.snapshot_iters == frozenset({2, 3})


class TestFixedPoints:
    def test_single_dangling_node(self):
        g = Graph.from_edges(np.array([], dtype=np.int64),
                             np.array([], dtype=np.int64), 1)
        res = pagerank(g, PageRankParams(c=0.85))
        assert res.scores == pytest.approx([1.0])
        assert res.converged and res.iters_run == 1

    def test_two_cycle_symmetry(self):
        g = graph_from_text("0 1\n1 0\n")
        res = pagerank(g, PageRankParams(c=0.5))
        assert res.scores == pytest.approx([1.0, 1.0])

    def test_path_graph_against_dense_solve(self):
        g = path_graph()
        res = pagerank(g, PageRankParams(c=0.5, tol=1e-14, max_iters=500))
        oracle = dense_pagerank(g, 0.5)
        assert res.scores == pytest.approx(oracle, abs=1e-10)
        # hand solution of the 3x3 system: R = (21/17) at the dangling end
        assert res.scores[2] == pytest.approx(21.0 / 17.0, abs=1e-9)

    def test_oracle_equivalence_n_le_8(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            g = random_small_graph(rng, n_max=8)
            c = rng.choice([0.2, 0.5, 0.85, 0.95])
            res = pagerank(g, PageRankParams(c=float(c), tol=1e-13, max_iters=2000))
            oracle = dense_pagerank(g, float(c))
            assert np.abs(res.scores - oracle).max() <= 1e-8


class TestIterationStructure:
    def test_mean_one_at_every_snapshot(self):
        g = graph_from_text("0 1\n1 2\n2 0\n0 2\n3 1\n")
        res = pagerank(g, PageRankParams(c=0.85, snapshot_iters={1, 2, 3, 7}))
        for k in sorted(res.snapshots):
            assert res.snapshots[k].mean() == pytest.approx(1.0, abs=1e-9)
        assert res.scores.mean() == pytest.approx(1.0, abs=1e-9)

    def test_residual_contraction(self, rng):
        for _ in range(5):
            g = random_small_graph(rng, n_max=8)
            c = 0.85
            res = pagerank(g, PageRankParams(c=c, tol=1e-15, max_iters=60))
            r = res.residuals
            assert (r[1:] <= c * r[:-1] + 1e-12).all()

    def test_first_iteration_closed_form_star(self):
        # 4 leaves pointing at a dangling hub; with unit start the dangling
        # mass is exactly p0, so iteration 1 is c*sum(1/d_j) + 1 - c*(1-p0)
        g = graph_from_text("1 0\n2 0\n3 0\n4 0\n")
        c = 0.85
        res = pagerank(g, PageRankParams(c=c, snapshot_iters={1}))
        snap = res.snapshots[1]
        base = 1 - c * (1 - 0.2)
        assert snap[0] == pytest.approx(4 * c + base)      # hub gathers 4 in-links
        assert snap[1:] == pytest.approx(np.full(4, base))  # leaves have none
        assert snap.mean() == pytest.approx(1.0, abs=1e-12)

    def test_max_iters_cap_reported(self):
        g = graph_from_text("0 1\n1 0\n1 2\n2 0\n")
        res = pagerank(g, PageRankParams(c=0.95, tol=1e-16, max_iters=5))
        assert not res.converged
        assert res.iters_run == 5

    def test_scores_lower_bounds(self, rng):
        # every score is at least (1-c) + c * realized dangling mass
        for _ in range(10):
            g = random_small_graph(rng, n_max=8)
            c = 0.85
            res = pagerank(g, PageRankParams(c=c, tol=1e-13, max_iters=2000))
            dm = res.scores[g.out_deg == 0].sum() / g.n
            assert res.scores.min() >= (1 - c) + c * dm - 1e-9
            assert res.scores.min() >= (1 - c) - 1e-12


class TestSeries:
    DAMPINGS = [0.85, 0.2, 0.5]  # unsorted on purpose

    def test_each_damping_matches_its_own_run(self, rng):
        graphs = [path_graph(), graph_from_text("0 1\n1 0\n1 2\n2 0\n3 3\n")]
        graphs += [random_small_graph(rng, n_max=8) for _ in range(10)]
        for g in graphs:
            results = pagerank_series(g, self.DAMPINGS, tol=1e-12, max_iters=500,
                                      snapshot_iters={1, 2})
            assert len(results) == len(self.DAMPINGS)
            for c, res in zip(self.DAMPINGS, results):
                alone = pagerank(g, PageRankParams(c=c, tol=1e-12, max_iters=500,
                                                   snapshot_iters={1, 2}))
                assert res.iters_run == alone.iters_run
                assert res.converged == alone.converged
                assert sorted(res.snapshots) == sorted(alone.snapshots)
                assert np.abs(res.scores - alone.scores).max() <= 1e-12
                for k in res.snapshots:
                    assert np.abs(res.snapshots[k] - alone.snapshots[k]).max() <= 1e-12

    def test_scores_match_dense_solve(self, rng):
        for _ in range(20):
            g = random_small_graph(rng, n_max=8)
            results = pagerank_series(g, self.DAMPINGS, tol=1e-13, max_iters=2000)
            for c, res in zip(self.DAMPINGS, results):
                assert res.converged
                assert np.abs(res.scores - dense_pagerank(g, c)).max() <= 1e-8

    def test_residual_contraction_for_every_damping(self, rng):
        for _ in range(5):
            g = random_small_graph(rng, n_max=8)
            results = pagerank_series(g, self.DAMPINGS, tol=1e-15, max_iters=60)
            for c, res in zip(self.DAMPINGS, results):
                r = res.residuals
                assert r.size == res.iters_run
                assert (r[1:] <= c * r[:-1] + 1e-12).all()

    def test_capped_damping_stops_alone(self):
        g = graph_from_text("0 1\n1 0\n1 2\n2 0\n")
        fast, slow = pagerank_series(g, [0.2, 0.95], tol=1e-6, max_iters=12)
        assert fast.converged and fast.iters_run < 12
        assert not slow.converged and slow.iters_run == 12

    def test_no_dampings(self):
        assert pagerank_series(path_graph(), []) == []
        with pytest.raises(ValueError):
            pagerank_series(path_graph(), [], tol=-1.0)
        with pytest.raises(ValueError):
            pagerank_series(path_graph(), [], max_iters=0)

    def test_each_damping_validated(self):
        with pytest.raises(ValueError):
            pagerank_series(path_graph(), [0.5, 1.0])

    def test_repeated_damping_refused(self):
        with pytest.raises(ValueError, match="distinct"):
            pagerank_series(path_graph(), [0.85, 0.5, 0.85])

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_results_equal_for_every_worker_count(self, rng, monkeypatch, spy_pool, block):
        monkeypatch.setattr(pagerank_mod, "_BLOCK_EDGES", block)
        for _ in range(5):
            g = random_small_graph(rng, n_max=12)
            runs = []
            for workers in (1, 2, 3, g.m + 2):  # the last exceeds the block count
                monkeypatch.setattr(blocks_mod, "_cpu_count", lambda: workers)
                spy_pool.made.clear()
                runs.append(pagerank_series(g, self.DAMPINGS, tol=1e-12, max_iters=500,
                                            snapshot_iters={1, 2}))
                assert {pool.max_workers for pool in spy_pool.made} == {max(workers - 1, 1)}
            assert all(same_results(runs[0], other) for other in runs[1:])

    def test_hub_graph_results_equal_for_every_worker_count(self, rng, monkeypatch):
        g = hub_graph(rng)
        runs = []
        for workers in (1, 2, 3, 8):  # 8 exceeds the block count
            monkeypatch.setattr(blocks_mod, "_cpu_count", lambda: workers)
            runs.append(pagerank_series(g, self.DAMPINGS, tol=1e-9, snapshot_iters={1, 2}))
        assert all(same_results(runs[0], other) for other in runs[1:])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_results_for_every_cpu_count(self, monkeypatch, case, workers):
        monkeypatch.setattr(pagerank_mod, "_BLOCK_EDGES", 256)
        monkeypatch.setattr(blocks_mod, "_cpu_count", lambda: workers)
        g = pinned_graph(case)
        pieces = pagerank_mod._PIECE_NODES
        shaped = {"dangling": (g.out_deg == 0).sum() > 900,
                  "run boundaries": g.in_deg[-3:].sum() == 0,
                  "hub": g.in_deg.max() > 256,
                  "pieces": g.n > 2 * pieces and g.n % pieces > 0,
                  "no edge": g.m == 0}
        assert shaped[case]
        results = pagerank_series(g, self.DAMPINGS, tol=1e-9, snapshot_iters={1, 2, 5})
        assert series_digest(results) == PINNED[case]

    def test_kept_snapshots_are_not_written_over(self):
        # the series lends each snapshot; pagerank_series keeps a copy, equal
        # to the final scores of a run capped at its iteration, also when it
        # is taken at its damping's stopping iteration
        g = pinned_graph("dangling")
        stops = [res.iters_run for res in pagerank_series(g, self.DAMPINGS, tol=1e-9)]
        taken = {1, 2, *stops}
        results = pagerank_series(g, self.DAMPINGS, tol=1e-9, snapshot_iters=taken)
        for c, res, stop in zip(self.DAMPINGS, results, stops, strict=True):
            assert sorted(res.snapshots) == sorted(k for k in taken if k <= stop)
            for k, snapshot in res.snapshots.items():
                capped = pagerank_series(g, [c], tol=1e-9, max_iters=k)[0]
                assert np.array_equal(snapshot, capped.scores)
            assert np.array_equal(res.snapshots[stop], res.scores)
        vectors = [v for res in results for v in (res.scores, *res.snapshots.values())]
        assert len({id(v) for v in vectors}) == len(vectors)

    def test_pool_shut_down_after_return(self, monkeypatch, spy_pool):
        monkeypatch.setattr(pagerank_mod, "_BLOCK_EDGES", 1)
        monkeypatch.setattr(blocks_mod, "_cpu_count", lambda: 3)
        before = set(threading.enumerate())
        pagerank_series(graph_from_text("0 1\n1 2\n2 0\n3 1\n"), self.DAMPINGS)
        assert sum(pool.submits for pool in spy_pool.made) > 0
        assert all(pool.shut_down for pool in spy_pool.made)
        assert set(threading.enumerate()) <= before

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_pool_shut_down_after_exception(self, monkeypatch, spy_pool, where):
        monkeypatch.setattr(pagerank_mod, "_BLOCK_EDGES", 1)
        monkeypatch.setattr(blocks_mod, "_cpu_count", lambda: 3)

        def fail(*args, **kwargs):
            raise RuntimeError("boom")

        if where == "worker":
            submit = spy_pool.submit
            monkeypatch.setattr(spy_pool, "submit",
                                lambda self, fn, *args: submit(self, fail, *args))
        else:  # raised on the calling thread when the first damping stops
            monkeypatch.setattr(pagerank_mod, "PageRankResult", fail)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="boom"):
            pagerank_series(graph_from_text("0 1\n1 2\n2 0\n3 1\n"), self.DAMPINGS)
        assert sum(pool.submits for pool in spy_pool.made) > 0
        assert all(pool.shut_down for pool in spy_pool.made)
        assert set(threading.enumerate()) <= before


def _kernel_sums(g, w, workers=1):
    out = np.full(g.n, np.nan)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blocks_mod, "_cpu_count", lambda: workers)
        pagerank_mod._in_edge_kernel(g)(w, out)
    return out


# in-degrees of the graphs of TestInEdgeKernel.test_every_empty_row_is_zeroed,
# for blocks of 8 edges, and the shape each must have: the kernel's blocks
# (e0, e1, r0, r1) end at their last non-empty row
EMPTY_ROWS = {
    # rows 0-1 open block 0, row 3 is inside it, rows 11-12 end block 1
    "block start, middle and end": (
        [0, 0, 3, 0, 5, 0, 0, 2, 2, 0, 4, 0, 0, 20, 3],
        lambda deg, blocks: (deg[blocks[0][2]] == 0 and deg[3] == 0 < deg[4]
                             and blocks[1][3] == 11 and blocks[2][2] == 13)),
    # row 3's 20 edges are a block of their own, after the empty row 2
    "hub after an empty row": (
        [2, 3, 0, 20, 1, 2],
        lambda deg, blocks: (5, 25, 3, 4) in blocks and deg[2] == 0),
    "last rows empty": ([3, 5, 2, 4, 0, 0, 0, 0],
                        lambda deg, blocks: blocks[-1][3] == 4 < deg.size),
    "no edge": ([0, 0, 0, 0], lambda deg, blocks: blocks == []),
}


class TestInEdgeKernel:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(EMPTY_ROWS))
    def test_every_empty_row_is_zeroed(self, monkeypatch, case, workers):
        # reduceat gives an empty row the value at its offset; the kernel
        # zeroes it wherever it lies, and sets every row of out, which
        # starts as NaN here.  Integer-valued w makes every sum exact
        monkeypatch.setattr(pagerank_mod, "_BLOCK_EDGES", 8)
        deg, shaped = EMPTY_ROWS[case]
        deg = np.array(deg)
        rng = np.random.default_rng(5)
        g = rows_graph(rng, deg)
        mapped = []

        def spy(fn, items):
            items = list(items)
            mapped.append(items)
            return blocks_mod._map_ordered(fn, items)

        monkeypatch.setattr(pagerank_mod, "_map_ordered", spy)
        w = rng.integers(1, 1000, g.n).astype(float)
        expected = np.bincount(np.repeat(np.arange(g.n), deg), weights=w[g.in_src],
                               minlength=g.n)
        assert _kernel_sums(g, w, workers).tolist() == expected.tolist()
        [runs] = mapped
        assert shaped(deg, [block for _, _, run in runs for block in run])
        w = rng.random(g.n)
        assert np.array_equal(_kernel_sums(g, w, workers), _kernel_sums(g, w))

    def test_blocks_against_bincount(self, rng, monkeypatch):
        monkeypatch.setattr(blocks_mod, "_cpu_count", lambda: 2)
        g = hub_graph(rng)
        src, dst = g.in_src, np.repeat(np.arange(g.n), g.in_deg)
        kernel = pagerank_mod._in_edge_kernel(g)
        out = np.empty(g.n)
        for _ in range(2):  # one kernel serves every call
            w = rng.random(g.n)
            kernel(w, out)
            expected = np.bincount(dst, weights=w[src], minlength=g.n)
            np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0)
            assert (out[g.in_deg == 0] == 0).all()

    def test_hub_graph_sums_equal_for_every_worker_count(self, rng):
        g = hub_graph(rng)
        w = rng.random(g.n)
        alone = _kernel_sums(g, w)
        for workers in (2, 3, 8):  # 8 exceeds the block count
            assert np.array_equal(_kernel_sums(g, w, workers), alone)

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_small_blocks(self, rng, monkeypatch, block):
        # with one-edge blocks every block starts a row, and CPUs outnumber blocks
        monkeypatch.setattr(pagerank_mod, "_BLOCK_EDGES", block)
        for _ in range(10):
            g = random_small_graph(rng, n_max=12)
            src, dst = g.in_src, np.repeat(np.arange(g.n), g.in_deg)
            w = rng.random(g.n)
            expected = np.bincount(dst, weights=w[src], minlength=g.n)
            alone = _kernel_sums(g, w)
            np.testing.assert_allclose(alone, expected, rtol=1e-12, atol=0)
            for workers in (2, 3, g.m + 2):
                assert np.array_equal(_kernel_sums(g, w, workers), alone)

    def test_more_workers_than_cores_under_fast_switching(self, rng, monkeypatch):
        monkeypatch.setattr(pagerank_mod, "_BLOCK_EDGES", 64)
        n = 2_000
        g = Graph.from_edges(rng.integers(0, n, 20_000), rng.integers(0, n, 20_000), n)
        w = rng.random(n)
        alone = _kernel_sums(g, w)
        outs = []
        caller = threading.Thread(target=lambda: outs.extend(_kernel_sums(g, w, 8)
                                                              for _ in range(20)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive() and len(outs) == 20
        assert all(np.array_equal(out, alone) for out in outs)

    def test_no_edges(self):
        g = Graph.from_edges(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 3)
        for workers in (1, 2, 3, 8):
            assert (_kernel_sums(g, np.ones(3), workers) == 0).all()

    def test_one_run_of_blocks_per_cpu(self, rng, monkeypatch):
        # the blocks, in order, are grouped into runs of about m / CPUs
        # edges, one mapped item each; the hub's block (100,000 edges) is
        # longer than m / 2 and m / 3, so it is a run of its own
        g = hub_graph(rng)
        w = rng.random(g.n)
        mapped = []

        def spy(fn, items):
            items = list(items)
            mapped.append(items)
            return blocks_mod._map_ordered(fn, items)

        monkeypatch.setattr(pagerank_mod, "_map_ordered", spy)
        alone = _kernel_sums(g, w)
        [[(lo, hi, blocks)]] = mapped
        assert (lo, hi) == (0, g.n)
        hub = [block for block in blocks if block[1] - block[0] == g.in_deg[3]]
        assert len(hub) == 1
        for workers in (2, 3):
            mapped.clear()
            assert np.array_equal(_kernel_sums(g, w, workers), alone)
            [runs] = mapped
            assert [block for _, _, run in runs for block in run] == blocks
            assert hub in [run for _, _, run in runs] and len(runs) <= 2 * workers
            # the runs' node ranges tile [0, n) in order
            bounds = [0] + [hi for _, hi, _ in runs]
            assert [(lo, hi) for lo, hi, _ in runs] == list(zip(bounds, bounds[1:]))
            assert bounds[-1] == g.n

    def test_no_empty_block_after_a_long_last_row(self, monkeypatch):
        # the last in-list starts before the last multiple of the block size
        # and is longer than a block: it is a block of its own, and no empty
        # block follows it.  The mapped items are runs of blocks
        monkeypatch.setattr(pagerank_mod, "_BLOCK_EDGES", 4)
        g = Graph.from_edges(np.array([0, 1] + [0] * 10), np.array([0, 1] + [2] * 10), 3)
        mapped = []

        def spy(fn, items):
            items = list(items)
            mapped.extend(items)
            return blocks_mod._map_ordered(fn, items)

        monkeypatch.setattr(pagerank_mod, "_map_ordered", spy)
        assert _kernel_sums(g, np.array([1.0, 2.0, 0.5])).tolist() == [1.0, 2.0, 10.0]
        assert mapped == [(0, 3, [(0, 2, 0, 2), (2, 12, 2, 3)])]


def test_export_scores_uses_original_ids(tmp_path):
    g = graph_from_text("10 20\n20 10\n")
    res = pagerank(g, PageRankParams(c=0.5))
    out = tmp_path / "scores.csv"
    export_scores(g, res.scores, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "node_id,score"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["10", "20"]
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0)
