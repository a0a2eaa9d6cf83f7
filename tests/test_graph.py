import gzip
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranktail.graph import (DegreeProfile, EdgeListParseError, degree_profile,
                            load_edge_list, write_edge_list)
from ranktail.simulate import EffectiveOutdegreeSampler


def graph_from_text(text, **kw):
    return load_edge_list(io.StringIO(text), **kw)


def effective_outdegree_law(profile):
    """{j: q_j} of the size-biased out-degree law q_j = j*p_j/d of a profile."""
    sampler = EffectiveOutdegreeSampler(profile.p_hist, profile.d)
    return dict(zip(sampler.values.tolist(), sampler.probabilities.tolist()))


class TestLoadEdgeList:
    def test_basic_triangle(self):
        g = graph_from_text("0 1\n1 0\n2 1\n")
        assert (g.n, g.m) == (3, 3)
        assert sorted(g.in_neighbors(1)) == [0, 2]
        assert list(g.out_deg) == [1, 1, 1]

    def test_multi_edge_kept(self):
        g = graph_from_text("0 1\n0 1\n")
        assert g.m == 2
        assert g.out_deg[0] == 2
        assert list(g.in_neighbors(1)) == [0, 0]

    def test_tabs_comments_blank_lines(self):
        g = graph_from_text("# header\n0\t1\n\n1\t2\n")
        assert (g.n, g.m) == (3, 2)

    def test_sparse_ids_remapped_dense(self):
        g = graph_from_text("10 700\n700 42\n")
        assert g.n == 3
        assert sorted(g.orig_ids) == [10, 42, 700]
        # all dense ids in range
        assert g.in_src.max() < g.n

    def test_self_loop_kept_by_default(self):
        g = graph_from_text("3 3\n3 4\n")  # ids remap to 0, 1
        assert g.m == 2
        assert list(g.in_neighbors(0)) == [0]
        assert g.out_deg[0] == 2

    def test_drop_self_loops_flag(self):
        g = graph_from_text("0 0\n0 1\n", drop_self_loops=True)
        assert g.m == 1

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            graph_from_text("0 1\nnot an edge\n")

    def test_non_integer_token(self):
        with pytest.raises(EdgeListParseError, match="non-integer"):
            graph_from_text("0 x\n")

    def test_negative_id_rejected(self):
        with pytest.raises(EdgeListParseError, match="negative"):
            graph_from_text("0 -1\n")

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            graph_from_text("# only a comment\n")

    def test_gzip_round_trip(self, tmp_path):
        path = tmp_path / "edges.txt.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("0 1\n1 2\n")
        g = load_edge_list(path)
        assert (g.n, g.m) == (3, 2)
        out = tmp_path / "copy.txt.gz"
        write_edge_list(g, out)
        assert degree_profile(load_edge_list(out)) == degree_profile(g)

    def test_immutable_arrays(self):
        g = graph_from_text("0 1\n")
        with pytest.raises(ValueError):
            g.out_deg[0] = 5


class TestDegreeProfile:
    def test_three_cycle(self):
        g = graph_from_text("0 1\n1 2\n2 0\n")
        p = degree_profile(g)
        assert (p.d, p.p0) == (1.0, 0.0)
        assert p.p_hist == {1: 1.0}

    def test_star_with_dangling_hub(self):
        g = graph_from_text("1 0\n2 0\n3 0\n4 0\n")
        p = degree_profile(g)
        assert (p.n, p.m) == (5, 4)
        assert p.d == pytest.approx(0.8)
        assert p.p0 == pytest.approx(0.2)
        assert p.p_hist == {0: pytest.approx(0.2), 1: pytest.approx(0.8)}
        assert p.in_hist[4] == pytest.approx(0.2)

    def test_json_round_trip(self):
        g = graph_from_text("0 1\n1 0\n2 1\n")
        p = degree_profile(g)
        assert DegreeProfile.from_json(p.to_json()) == p


class TestEffectiveOutdegree:
    def test_single_support_point(self):
        prof = DegreeProfile(n=5, m=4, d=0.8, p0=0.2,
                             p_hist={0: 0.2, 1: 0.8}, in_hist={})
        assert effective_outdegree_law(prof) == {1: pytest.approx(1.0)}

    def test_two_atoms(self):
        prof = DegreeProfile(n=4, m=8, d=2.0, p0=0.0,
                             p_hist={1: 0.5, 3: 0.5}, in_hist={})
        q = effective_outdegree_law(prof)
        assert q[1] == pytest.approx(0.25)
        assert q[3] == pytest.approx(0.75)

    def test_edgeless_graph_rejected(self):
        prof = DegreeProfile(n=3, m=0, d=0.0, p0=1.0, p_hist={0: 1.0}, in_hist={})
        with pytest.raises(ValueError):
            effective_outdegree_law(prof)


edge_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=1, max_size=80)


@given(edges=edge_lists)
@settings(max_examples=80, deadline=None)
def test_edge_counts_consistent(edges):
    text = "\n".join(f"{s} {t}" for s, t in edges)
    g = graph_from_text(text)
    assert g.m == len(edges)
    assert int(g.in_deg.sum()) == g.m
    assert int(g.out_deg.sum()) == g.m


@given(edges=edge_lists)
@settings(max_examples=60, deadline=None)
def test_mass_consistency_and_round_trip(edges):
    text = "\n".join(f"{s} {t}" for s, t in edges)
    g = graph_from_text(text)
    p = degree_profile(g)
    assert sum(p.p_hist.values()) == pytest.approx(1.0, abs=1e-12)
    assert sum(j * q for j, q in p.p_hist.items()) == pytest.approx(p.d, rel=1e-9)
    buf = io.StringIO()
    write_edge_list(g, buf)
    assert degree_profile(graph_from_text(buf.getvalue())) == p


@given(weights=st.dictionaries(st.integers(0, 40),
                               st.floats(0.01, 1.0, allow_nan=False),
                               min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_inverse_degree_identity(weights):
    # E(1/D) under q_j = j*p_j/d equals (1-p0)/d for any histogram
    total = sum(weights.values())
    p_hist = {j: w / total for j, w in weights.items()}
    d = sum(j * p for j, p in p_hist.items())
    if d <= 0:
        return
    prof = DegreeProfile(n=100, m=int(100 * d), d=d, p0=p_hist.get(0, 0.0),
                         p_hist=p_hist, in_hist={})
    q = effective_outdegree_law(prof)
    assert sum(val / j for j, val in q.items()) == pytest.approx(
        (1.0 - prof.p0) / d, abs=1e-12, rel=1e-12)
    assert sum(q.values()) == pytest.approx(1.0, abs=1e-12)
