import io

import numpy as np
import pytest

from oracles import dense_pagerank, random_small_graph
from ranktail.graph import Graph, load_edge_list
from ranktail.pagerank import PageRankParams, export_scores, pagerank


def graph_from_text(text):
    return load_edge_list(io.StringIO(text))


def path_graph():
    # 0 -> 1 -> 2 with node 2 dangling
    return graph_from_text("0 1\n1 2\n")


class TestParams:
    @pytest.mark.parametrize("c", [0.0, 1.0, -0.2, 1.7])
    def test_damping_range(self, c):
        with pytest.raises(ValueError):
            PageRankParams(c=c)

    def test_tol_and_iters(self):
        with pytest.raises(ValueError):
            PageRankParams(tol=0.0)
        with pytest.raises(ValueError):
            PageRankParams(max_iters=0)


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
            dm = res.scores[g.dangling].sum() / g.n
            assert res.scores.min() >= (1 - c) + c * dm - 1e-9
            assert res.scores.min() >= (1 - c) - 1e-12


def test_export_scores_uses_original_ids(tmp_path):
    g = graph_from_text("10 20\n20 10\n")
    res = pagerank(g, PageRankParams(c=0.5))
    out = tmp_path / "scores.csv"
    export_scores(g, res.scores, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "node_id,score"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["10", "20"]
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0)
