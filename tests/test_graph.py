import gzip
import io
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranktail.graph import (DegreeProfile, EdgeListParseError, Graph, _parse_lines,
                            _parse_table, degree_profile, load_edge_list, parse_hist,
                            read_json, write_edge_list, write_json)
from ranktail.simulate import EffectiveOutdegreeSampler


def graph_from_text(text, **kw):
    return load_edge_list(io.StringIO(text), **kw)


def per_line_graph(text, drop_self_loops=False):
    """The reference loader: the per-line parser, then np.unique for the
    dense ids."""
    src, dst = _parse_lines(text, drop_self_loops)
    if not src.size:
        raise ValueError("empty edge list")
    uniq, inverse = np.unique(np.concatenate([src, dst]), return_inverse=True)
    m = src.size
    return Graph.from_edges(inverse[:m], inverse[m:], n=int(uniq.size), orig_ids=uniq)


def outcome(load, *args, **kw):
    """A graph's arrays, or the class and message of what loading raised."""
    try:
        g = load(*args, **kw)
    except ValueError as exc:
        return type(exc), str(exc)
    return [a.tolist() for a in (g.in_ptr, g.in_src, g.out_deg, g.orig_ids)]


def effective_outdegree_law(profile):
    """{j: q_j} of the size-biased out-degree law q_j = j*p_j/d of a profile."""
    sampler = EffectiveOutdegreeSampler(profile.p_hist, profile.d)
    return dict(zip(sampler.values.tolist(), sampler.probabilities.tolist()))


class TestLoadEdgeList:
    def test_basic_triangle(self):
        g = graph_from_text("0 1\n1 0\n2 1\n")
        assert (g.n, g.m) == (3, 3)
        assert sorted(g.in_src[g.in_ptr[1]:g.in_ptr[2]]) == [0, 2]
        assert list(g.out_deg) == [1, 1, 1]

    def test_multi_edge_kept(self):
        g = graph_from_text("0 1\n0 1\n")
        assert g.m == 2
        assert g.out_deg[0] == 2
        assert list(g.in_src[g.in_ptr[1]:g.in_ptr[2]]) == [0, 0]

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
        assert list(g.in_src[g.in_ptr[0]:g.in_ptr[1]]) == [0]
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
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "input contained no data" stays inside
            for text in ("# only a comment\n", "", " \n\n", "#\n# two\n"):
                with pytest.raises(ValueError, match="^empty edge list$"):
                    graph_from_text(text)

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

    @pytest.mark.parametrize("names", [[0, 1, 2, 3], [7, 1000, 10**12, 2**63 - 1]])
    def test_table_and_sort_remaps_agree(self, names):
        # ids below twice the id count take the presence table, larger ones np.unique
        edges = [(0, 1), (1, 2), (2, 0), (3, 3), (1, 2)]
        text = "".join(f"{names[s]} {names[t]}\n" for s, t in edges)
        g = graph_from_text(text)
        assert outcome(graph_from_text, text) == outcome(per_line_graph, text)
        assert g.orig_ids.tolist() == names
        assert g.in_ptr.tolist() == [0, 1, 2, 4, 5]
        assert g.in_src.tolist() == [2, 0, 1, 1, 3]
        assert g.out_deg.tolist() == [1, 2, 1, 1]

    def test_comment_lines_mid_file_take_the_array_pass(self):
        text = "# head\n0 1\n# mid\n#\n1 2\n\n2 0\n# tail"
        assert _parse_table(text.encode()) is not None
        g = graph_from_text(text)
        assert (g.n, g.m) == (3, 3)

    def test_trailing_comment_still_fails_with_its_line(self):
        text = "0 1\n1 2 # x\n"
        assert _parse_table(text.encode()) is None
        with pytest.raises(EdgeListParseError, match="^line 2: expected 'src dst', got '1 2 # x'$"):
            graph_from_text(text)

    @pytest.mark.parametrize("eol", [b"\r\n", b"\r"])
    def test_crlf_and_lone_cr_files(self, tmp_path, eol):
        path = tmp_path / "edges.txt"
        path.write_bytes(eol.join([b"# c", b"0 1", b"1 2", b"2 0"]) + eol)
        g = load_edge_list(path)
        assert (g.n, g.m) == (3, 3)
        assert g.in_src.tolist() == [2, 0, 1]
        path.write_bytes(eol.join([b"0 1", b"1 2", b"oops"]) + eol)
        with pytest.raises(EdgeListParseError, match="^line 3: "):
            load_edge_list(path)

    def test_drop_self_loops_on_the_array_pass(self):
        text = "5 5\n0 1\n1 1\n"
        assert _parse_table(text.encode()) is not None
        g = graph_from_text(text, drop_self_loops=True)
        # 5 only occurs in a dropped loop, so it is no node at all
        assert (g.n, g.m) == (2, 1)
        assert g.orig_ids.tolist() == [0, 1]
        assert outcome(graph_from_text, text, drop_self_loops=True) == outcome(
            per_line_graph, text, drop_self_loops=True)

    def test_id_beyond_int64_fails_with_its_line(self):
        with pytest.raises(EdgeListParseError,
                           match="^line 2: node id out of range in '99999999999999999999 1'$"):
            graph_from_text("0 1\n99999999999999999999 1\n")
        # a dropped self-loop is never stored, so its ids need not fit
        g = graph_from_text("99999999999999999999 99999999999999999999\n0 1\n",
                            drop_self_loops=True)
        assert g.orig_ids.tolist() == [0, 1]
        assert graph_from_text(f"{2**63 - 1} 0\n").orig_ids.tolist() == [0, 2**63 - 1]

    @pytest.mark.parametrize("text", [
        "# c\n5 7\n7 5\n9 7\n",
        "5 7\r\n7 5\r\n# c\r\n9 7\r\n",
        "5 7\r7 5\r# c\r9 7",
        "5 7\r\n7 5\r9 7\n\r\n",
        "5 5\r0 1\r\n1 1\n",
        "# café\r\n5 7\r7 5\n９ 7\n",
        "5 7\r\n7 x\r9 7\n",
        "5 7\r\né 5\n",
        "5 7\r\n7 5 # x\r\n",
        "\r\n\r",
    ])
    @pytest.mark.parametrize("target", ["path", "gz", "binary stream"])
    @pytest.mark.parametrize("drop", [False, True])
    def test_bytes_match_per_line_parser(self, tmp_path, text, target, drop):
        raw = text.encode("utf-8")
        if target == "path":
            source = tmp_path / "edges.txt"
            source.write_bytes(raw)
        elif target == "gz":
            source = tmp_path / "edges.txt.gz"
            with gzip.open(source, "wb") as fh:
                fh.write(raw)
        else:
            source = io.BytesIO(raw)
        # text mode reads CRLF and a lone CR as one line end
        universal = text.replace("\r\n", "\n").replace("\r", "\n")
        assert outcome(load_edge_list, source, drop_self_loops=drop) == outcome(
            per_line_graph, universal, drop_self_loops=drop)

    def test_invalid_utf8_raises(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(b"0 1\n\xff 2\n")
        with pytest.raises(UnicodeDecodeError):
            load_edge_list(path)


def two_cycle_fields(**changes):
    """The fields of the graph 0 -> 1 -> 0, with ``changes`` applied."""
    fields = {"n": 2, "m": 2, "in_ptr": [0, 1, 2], "in_src": [1, 0], "out_deg": [1, 1],
              "orig_ids": [0, 1], **changes}
    return {key: np.asarray(val) if isinstance(val, list) else val
            for key, val in fields.items()}


class TestGraphConstructor:
    def test_valid_arrays_frozen(self):
        g = Graph(**two_cycle_fields())
        assert not any(a.flags.writeable for a in (g.in_ptr, g.in_src, g.out_deg, g.orig_ids))

    @pytest.mark.parametrize("changes, message", [
        ({"in_src": [7, 0]}, "in_src"),
        ({"in_src": [1, -1]}, "in_src"),
        ({"in_src": [1]}, "in_src"),
        ({"in_ptr": [0, 2]}, "in_ptr"),
        ({"in_ptr": [1, 1, 2]}, "in_ptr"),
        ({"in_ptr": [0, 1, 1]}, "in_ptr"),
        ({"in_ptr": [0, 3, 2]}, "in_ptr"),
        ({"n": -1, "in_ptr": [], "out_deg": [], "orig_ids": []}, "in_ptr"),
        ({"out_deg": [3, -1]}, "out_deg"),
        ({"out_deg": [1, 0]}, "out_deg"),
        ({"out_deg": [2]}, "out_deg"),
        # edges 0 -> 0 and 0 -> 1, whose out-degrees are [2, 0]
        ({"in_src": [0, 0]}, "out_deg"),
        ({"orig_ids": [0]}, "orig_ids"),
        ({"orig_ids": [0, -1]}, "orig_ids must hold n non-negative ids"),
        ({"in_ptr": [0.0, 1.0, 2.0]}, "integer"),
        ({"out_deg": (1, 1)}, "integer"),
        ({"in_src": [[1, 0]]}, "integer"),
        ({"in_src": np.array([1, 0], dtype=np.uint64)}, "signed"),
    ], ids=["src-beyond-n", "src-negative", "src-length", "ptr-length", "ptr-start",
            "ptr-end", "ptr-decreasing", "negative-n", "outdeg-negative", "outdeg-sum",
            "outdeg-length", "outdeg-not-in-src", "orig-ids-length", "orig-ids-negative",
            "float-array", "tuple", "2-d", "unsigned"])
    def test_malformed_arrays_refused(self, changes, message):
        with pytest.raises(ValueError, match=message):
            Graph(**two_cycle_fields(**changes))

    def test_out_deg_and_orig_ids_may_be_left_out(self):
        fields = two_cycle_fields()
        del fields["out_deg"], fields["orig_ids"]
        g = Graph(**fields)
        assert g.out_deg.tolist() == [1, 1] and g.orig_ids.tolist() == [0, 1]
        assert g.out_deg.dtype == g.orig_ids.dtype == np.int64
        assert not any(a.flags.writeable for a in (g.out_deg, g.orig_ids))

    def test_from_edges_counts_out_degrees(self, rng):
        src, dst = rng.integers(0, 50, 400), rng.integers(0, 50, 400)
        g = Graph.from_edges(src, dst, 60)
        assert g.out_deg.dtype == np.int64 and not g.out_deg.flags.writeable
        assert np.array_equal(g.out_deg, np.bincount(src, minlength=60))
        assert np.array_equal(g.orig_ids, np.arange(60))

    @pytest.mark.parametrize("src, dst", [([0, 2], [1, 0]), ([0, 1], [1, 2]),
                                          ([0, 1], [-1, 0])])
    def test_from_edges_refuses_ids_beyond_n(self, src, dst):
        with pytest.raises(ValueError, match=r"\[0, n\)"):
            Graph.from_edges(src, dst, 2)


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
        buf = io.StringIO()
        write_json(p.to_dict(), buf)
        buf.seek(0)
        assert DegreeProfile.from_dict(read_json(buf)) == p


class TestParseHist:
    def test_canonical_keys(self):
        assert parse_hist({"0": 0.1, "7": 0.4, "10": 0.5}) == {0: 0.1, 7: 0.4, 10: 0.5}

    @pytest.mark.parametrize("key", ["1_0", " 4", "4 ", "+4", "-1", "04", "00", "4.0",
                                     "", "\u0664", "0x4"])
    def test_noncanonical_key_is_named(self, key):
        with pytest.raises(ValueError, match=re.escape(f"histogram key {key!r}")):
            parse_hist({key: 1.0})

    def test_padded_duplicate_is_refused_not_merged(self):
        with pytest.raises(ValueError, match="'04'"):
            parse_hist({"4": 0.5, "04": 0.5})


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


# characters on which numpy's text parser and int()/str.split() may disagree
HOSTILE = "0123456789 \t\r\n#-+._x\x0c\xa0\uff11"


@st.composite
def edge_texts(draw):
    """Edge lists that are mostly well-formed, with hostile characters spliced in."""
    rows = draw(st.lists(st.tuples(st.integers(0, 40), st.sampled_from([" ", "\t", " \t "]),
                                   st.integers(0, 40),
                                   st.sampled_from(["\n", "\r\n", "\n\n", "\n# c\n"])),
                         min_size=1, max_size=8))
    text = "".join(f"{s}{sep}{t}{eol}" for s, sep, t, eol in rows)
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.text(HOSTILE, max_size=3)) + text[at:]


@given(text=st.one_of(st.text(HOSTILE, max_size=40), edge_texts()), drop=st.booleans())
@settings(max_examples=400, deadline=None)
def test_array_pass_matches_per_line_parser(text, drop):
    assert outcome(graph_from_text, text, drop_self_loops=drop) == outcome(
        per_line_graph, text, drop_self_loops=drop)
