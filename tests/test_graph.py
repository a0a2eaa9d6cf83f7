import gzip
import io
import re
import threading
import time
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ranktail import graph as graph_mod
from ranktail.graph import (DegreeProfile, EdgeListParseError, Graph, _id_dtype,
                            _map_ordered, _parse_fast, _parse_lines, _segment_blocks,
                            _segment_counts, degree_profile, load_edge_list, parse_hist,
                            read_json, write_edge_list, write_json)
from ranktail.pagerank import pagerank_series
from ranktail.simulate import EffectiveOutdegreeSampler


def graph_from_text(text, **kw):
    return load_edge_list(io.BytesIO(text.encode()), **kw)


def per_line_graph(text, drop_self_loops=False):
    """The reference loader: the per-line parser, self-loops dropped after
    it when drop_self_loops is set, then np.unique for the dense ids."""
    src, dst, _ = _parse_lines(text.encode())
    if drop_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    if not src.size:
        raise EdgeListParseError(None, "empty edge list")
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
            warnings.simplefilter("error")  # an input with no edges warns of nothing
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
        assert _parse_fast(text.encode()) is not None
        g = graph_from_text(text)
        assert (g.n, g.m) == (3, 3)

    def test_trailing_comment_still_fails_with_its_line(self):
        text = "0 1\n1 2 # x\n"
        assert _parse_fast(text.encode()) is None
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
        assert _parse_fast(text.encode()) is not None
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
        assert graph_from_text(f"{2**63 - 1} 0\n").orig_ids.tolist() == [0, 2**63 - 1]

    @pytest.mark.parametrize("drop", [False, True])
    @pytest.mark.parametrize("first", ["0 1", "+5 6"], ids=["plain", "fallback"])
    def test_self_loop_ids_are_checked_before_the_loop_is_dropped(self, monkeypatch,
                                                                   first, drop):
        # 5-byte chunks: "0 1\n" alone takes the fast path, "+5 6\n" the per-line
        # parser, and the loop line is a chunk of its own after either
        monkeypatch.setattr(graph_mod, "_CHUNK_BYTES", 5)
        loop = f"{2**63} {2**63}"
        assert (_parse_fast(f"{first}\n".encode()) is None) == first.startswith("+")
        with pytest.raises(EdgeListParseError,
                           match=f"^line 2: node id out of range in '{loop}'$"):
            graph_from_text(f"{first}\n{loop}\n0 1\n", drop_self_loops=drop)

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
        "5 7\n7 \n5\n",  # a blank ends a line whose id pairs with the next line's
        "1 2 3\n7\n",  # four ids on two lines, in pairs but not in lines
        "5 7 9 7\n",
        "7\n5\n",
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

    def test_text_stream_refused(self):
        with pytest.raises(TypeError, match="a path, a .gz path or a binary stream"):
            load_edge_list(io.StringIO("0 1\n"))

    def test_invalid_utf8_raises(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(b"0 1\n\xff 2\n")
        with pytest.raises(UnicodeDecodeError):
            load_edge_list(path)

    # a cut-off sequence before the line's LF is an invalid continuation, and
    # one that ends the data an unexpected end of it
    @pytest.mark.parametrize("raw, line, start, end, reason", [
        (b"0 1\n1 \xe2\x82 2\n", b"1 \xe2\x82 2", 2, 4, "invalid continuation byte"),
        (b"0 1\n1 2\xe2\x82\n3 4\n", b"1 2\xe2\x82", 3, 5, "invalid continuation byte"),
        (b"0 1\n1 2 \xf0\x9f\x98\n", b"1 2 \xf0\x9f\x98", 4, 7, "invalid continuation byte"),
        (b"0 1\n1 2\xe2\x82", b"1 2\xe2\x82", 3, 5, "unexpected end of data"),
        (b"+5 6\n1 \xf0\x9f\x98", b"1 \xf0\x9f\x98", 2, 5, "unexpected end of data"),
    ], ids=["mid-line", "line-end", "4-byte", "data-end", "data-end-4-byte"])
    def test_cut_off_utf8_sequence_is_placed_in_its_line(self, raw, line, start, end, reason):
        with pytest.raises(UnicodeDecodeError) as info:
            load_edge_list(io.BytesIO(raw))
        exc = info.value
        assert (exc.object, exc.start, exc.end) == (line, start, end)
        assert exc.reason == f"{reason} in line 2"


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

    @pytest.mark.parametrize("dst", [
        [0, 0, 1, 3, 3, 3, 4],    # sorted, with runs of ties: no sort is made
        [3, 0, 3, 1, 0, 4, 3],    # unsorted, with ties: the stable sort keeps their order
        [4, 3, 3, 3, 1, 0, 0],    # descending
        [2, 2, 2, 2, 2, 2, 2],    # one run
    ], ids=["sorted", "unsorted", "descending", "all-tied"])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_from_edges_equals_the_stable_sort(self, dst, dtype):
        src = np.array([6, 1, 5, 0, 2, 4, 3])
        dst = np.array(dst, dtype=dtype)
        g = Graph.from_edges(src, dst, 7)
        order = np.argsort(dst, kind="stable")
        in_ptr = np.concatenate([[0], np.cumsum(np.bincount(dst, minlength=7))])
        expected = (in_ptr, src[order], np.bincount(src, minlength=7), np.arange(7))
        for got, want in zip((g.in_ptr, g.in_src, g.out_deg, g.orig_ids), expected):
            width = np.int32 if got is g.in_src else np.int64  # in_src at the id width
            assert got.dtype == width and got.tolist() == want.tolist()

    @pytest.mark.parametrize("arrays", [
        (np.array([0.9, 1.7]), np.array([1.2, 0.99]), None),
        (np.array([True, False]), np.array([False, True]), None),
        (np.array([0, 1]), np.array([1, 0]), np.array([5.0, 7.0])),
    ], ids=["float", "bool", "float-orig-ids"])
    def test_from_edges_refuses_ids_of_no_integer_type(self, arrays):
        # a cast would truncate 0.9 -> 1.7 to the edge 0 -> 1 without a word
        with pytest.raises(ValueError, match="must be arrays of an integer type"):
            Graph.from_edges(*arrays[:2], 2, orig_ids=arrays[2])

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.uint64])
    def test_from_edges_takes_every_integer_type(self, dtype):
        src, dst = np.array([1, 0], dtype=dtype), np.array([0, 1], dtype=dtype)
        g = Graph.from_edges(src, dst, 2, orig_ids=np.array([4, 9], dtype=dtype))
        assert g.in_src.tolist() == [1, 0] and g.orig_ids.tolist() == [4, 9]
        assert Graph.from_edges([1, 0], [0, 1], 2).in_src.tolist() == [1, 0]
        assert Graph.from_edges([], [], 2).m == 0  # numpy reads [] as float: no id to cut

    def test_sorted_dst_keeps_src_as_in_src(self):
        # an int32 src is of the id width at n = 3: kept in place, not widened
        src, dst = np.array([2, 0, 1], dtype=np.int32), np.array([0, 1, 1])
        g = Graph.from_edges(src, dst, 3)
        assert g.in_src is src and not src.flags.writeable


class TestIdWidth:
    @pytest.mark.parametrize("n, width", [(2**31 - 1, np.int32), (2**31, np.int32),
                                          (2**31 + 1, np.int64)])
    def test_width_rule_at_the_int32_limit(self, n, width):
        # the ids of an n-node graph are 0..n-1: at n = 2**31 the largest is
        # int32's largest
        assert _id_dtype(n) == width

    def test_both_widths_give_the_same_results(self, rng):
        n, m = 20_000, 200_000
        orig_ids = np.arange(n, dtype=np.int64) * 1_000_003 + 2**33
        g32 = Graph.from_edges(rng.integers(0, n, m), np.sort(rng.integers(0, n, m)), n,
                               orig_ids=orig_ids)
        g64 = Graph(n=n, m=m, in_ptr=g32.in_ptr.copy(), in_src=g32.in_src.astype(np.int64),
                    orig_ids=orig_ids.copy())
        assert (g32.in_src.dtype, g64.in_src.dtype) == (np.int32, np.int64)
        results = [pagerank_series(g, [0.5, 0.85], tol=1e-12, snapshot_iters=[1, 3])
                   for g in (g32, g64)]
        for a, b in zip(*results):
            assert a.scores.tobytes() == b.scores.tobytes()
            assert a.residuals.tobytes() == b.residuals.tobytes()
            assert {k: v.tobytes() for k, v in a.snapshots.items()} == \
                   {k: v.tobytes() for k, v in b.snapshots.items()}
        written = []
        for g in (g32, g64):
            out = io.StringIO()
            write_edge_list(g, out)
            written.append(out.getvalue())
        assert written[0] == written[1]
        assert degree_profile(g32) == degree_profile(g64)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_builders_in_pieces_equal_the_whole_array_results(self, monkeypatch, rng, chunk):
        # the counts, the order check, the counting sort and the id remap
        # work _ID_CHUNK ids at a time; pieces of any size give the results of
        # bincount, a stable argsort and np.unique on the whole arrays
        n, m = 50, 500
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
        text = "".join(f"{3 * s} {3 * t}\n" for s, t in zip(src, dst))
        monkeypatch.setattr(graph_mod, "_ID_CHUNK", chunk)
        for d in (dst, np.sort(dst), np.sort(dst)[::-1]):
            g = Graph.from_edges(src, d, n)
            order = np.argsort(d, kind="stable")
            assert g.in_src.tolist() == src[order].tolist()
            assert g.in_ptr.tolist() == [0, *np.cumsum(np.bincount(d, minlength=n))]
            assert g.out_deg.tolist() == np.bincount(src, minlength=n).tolist()
        assert outcome(graph_from_text, text) == outcome(per_line_graph, text)

    def test_ids_beyond_int32_load_at_the_id_width(self):
        text = f"{2**31} {2**40}\n{2**40} 5\n5 {2**31}\n"
        g = graph_from_text(text)
        assert g.in_src.dtype == np.int32
        assert g.orig_ids.tolist() == [5, 2**31, 2**40]
        out = io.StringIO()
        write_edge_list(g, out)
        assert out.getvalue() == f"{2**40}\t5\n5\t{2**31}\n{2**31}\t{2**40}\n"


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

    def test_matches_a_counter_with_a_large_hub(self):
        # node 0 takes a link from every other node; 50,000 more edges land anywhere
        n = 200_001
        rng = np.random.default_rng(3)
        src = np.concatenate([np.arange(1, n), rng.integers(0, n, 50_000)])
        dst = np.concatenate([np.zeros(n - 1, dtype=np.int64), rng.integers(0, n, 50_000)])
        g = Graph.from_edges(src, dst, n)
        p = degree_profile(g)
        assert max(p.in_hist) >= 10 ** 5
        for hist, degrees in ((p.p_hist, g.out_deg), (p.in_hist, g.in_deg)):
            counts = Counter(degrees.tolist())
            expected = {k: counts[k] / n for k in sorted(counts)}
            assert list(hist.items()) == list(expected.items())
            assert all(type(k) is int and type(f) is float for k, f in hist.items())

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
    assert outcome(graph_from_text, text, drop_self_loops=drop) == reference_outcome(
        text.encode(), drop)


# -- the chunked loader --------------------------------------------------------

def reference_outcome(raw: bytes, drop: bool):
    """What loading the bytes ``raw`` must give: the per-line parser on their
    text-mode lines, up to the first line that is not UTF-8.  That line's
    decode error is raised unless a malformed line comes before it."""
    lines = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    text = []
    for line_no, line in enumerate(lines, 1):
        try:
            text.append(line.decode("utf-8"))
        except UnicodeDecodeError:
            try:
                per_line_graph("\n".join(text + [""]), drop)
            except EdgeListParseError as exc:
                if exc.line_no is not None:  # a malformed line, not "empty edge list"
                    return type(exc), str(exc)
            return UnicodeDecodeError, line_no
    return outcome(per_line_graph, "\n".join(text), drop_self_loops=drop)


def load_outcome(source, drop: bool):
    """outcome() of load_edge_list, a decode error given as its line number."""
    got = outcome(load_edge_list, source, drop_self_loops=drop)
    if got[0] is UnicodeDecodeError:
        return UnicodeDecodeError, int(re.search(r"in line (\d+)$", got[1])[1])
    return got


# ids around the 18-digit limit of the fast path and the int64 limit
EDGE_IDS = st.one_of(st.integers(0, 40), st.integers(0, 10**20),
                     st.sampled_from([10**9 - 1, 10**9, 2**31, 10**18 - 1, 10**18,
                                      2**63 - 2, 2**63 - 1, 2**63, 10**19, 10**20 - 1]))
BLANKS = st.sampled_from([" ", "\t", "  ", " \t", "\t \t"])
EDGE_LINES = st.one_of(
    st.builds(lambda s, sep, t: f"{s}{sep}{t}", EDGE_IDS, BLANKS, EDGE_IDS),
    st.builds(lambda lead, s, sep, t, trail: f"{lead}{s}{sep}{t}{trail}",
              st.sampled_from(["", " ", "\t"]), EDGE_IDS, BLANKS, EDGE_IDS,
              st.sampled_from(["", " ", "\t", " # x"])),
    st.sampled_from(["", " ", "\t", "#", "# c", "#0 1", "# 1 2 # x", "#é", "0 1 #",
                     "1 2 3", "7", "7 ", " 7", "x 1", "-1 2", "+3 4", "1_0 2", "１ 2", "0\x0c1",
                     "0\xa01", "0 0", "5 5", "00 007", "0x1 2"]),
)


@st.composite
def edge_bytes(draw):
    """Edge-list bytes: lines of every kind, each ended by LF, CRLF or a lone
    CR, and now and then an undecodable byte."""
    lines = draw(st.lists(st.tuples(EDGE_LINES, st.sampled_from(["\n", "\n", "\r\n", "\r"])),
                          min_size=1, max_size=12))
    raw = "".join(line + eol for line, eol in lines).encode("utf-8")
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    if draw(st.booleans()):  # the last line end is left out
        raw = raw.rstrip(b"\r\n")
    return raw


@given(raw=edge_bytes(), chunk=st.integers(1, 24), workers=st.integers(1, 3),
       drop=st.booleans())
@settings(max_examples=400, deadline=None)
def test_chunked_loader_matches_per_line_parser(raw, chunk, workers, drop):
    # chunks of a few bytes, so cuts land on every kind of line
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_mod, "_CHUNK_BYTES", chunk)
        mp.setattr(graph_mod, "_cpu_count", lambda: workers)
        assert load_outcome(io.BytesIO(raw), drop) == reference_outcome(raw, drop)


def numbered_lines(count: int, eol: str = "\n") -> list[str]:
    return [f"{i} {(i * 7919) % count}{eol}" for i in range(count)]


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_malformed_line_chunks_in_reports_its_line(tmp_path, eol):
    lines = numbered_lines(300_000, eol)  # about 4 MB: four chunks and more
    lines[250_000 - 1] = "250 oops" + eol
    path = tmp_path / "edges.txt"
    path.write_bytes("".join(lines).encode())
    assert path.stat().st_size > 3 * graph_mod._CHUNK_BYTES
    with pytest.raises(EdgeListParseError, match="^line 250000: non-integer node id"):
        load_edge_list(path)


@pytest.mark.parametrize("first", ["malformed", "undecodable"])
def test_first_fault_in_file_order_wins(tmp_path, first):
    lines = [line.encode() for line in numbered_lines(200_000)]
    early, late = (60_000, 180_000)
    malformed, undecodable = (early, late) if first == "malformed" else (late, early)
    lines[malformed - 1] = b"1 2 3\n"
    lines[undecodable - 1] = b"\xff 2\n"
    path = tmp_path / "edges.txt"
    path.write_bytes(b"".join(lines))
    if first == "malformed":
        with pytest.raises(EdgeListParseError, match=f"^line {early}: "):
            load_edge_list(path)
    else:
        with pytest.raises(UnicodeDecodeError, match=f"in line {early}$"):
            load_edge_list(path)


def test_loaded_arrays_equal_for_every_worker_count(monkeypatch, tmp_path, rng):
    # several chunks: one of 9-digit ids, one of 12-digit ids, one the per-line
    # parser takes (a '+' sign), and the rest small ids
    rows = 150_000
    src, dst = rng.integers(0, 50_000, rows), rng.integers(0, 50_000, rows)
    src[20_000:40_000] += 10**8
    dst[60_000:80_000] += 10**11
    lines = [f"{s}\t{t}\n" for s, t in zip(src.tolist(), dst.tolist())]
    lines[100_000] = f"+{src[100_000]} {dst[100_000]}\n"
    path = tmp_path / "edges.txt"
    path.write_text("".join(lines))
    loaded = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(graph_mod, "_cpu_count", lambda: workers)
        g = load_edge_list(path)
        loaded.append([g.in_ptr, g.in_src, g.out_deg, g.orig_ids])
    expected = per_line_graph(path.read_text())
    for arrays in loaded:
        for got, want in zip(arrays, (expected.in_ptr, expected.in_src, expected.out_deg,
                                      expected.orig_ids)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


# -- the ordered map over every CPU --------------------------------------------

@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_ordered_order_and_caller_share(monkeypatch, workers):
    monkeypatch.setattr(graph_mod, "_cpu_count", lambda: workers)
    caller = threading.get_ident()

    def fn(i):
        time.sleep((i * 7 % 5) / 1000)  # later items often finish first
        return i, threading.get_ident() == caller

    results = list(_map_ordered(fn, range(40)))
    assert [i for i, _ in results] == list(range(40))
    assert [on_caller for _, on_caller in results] == [i % workers == 0 for i in range(40)]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_ordered_draws_at_most_two_items_per_cpu_ahead(monkeypatch, workers):
    monkeypatch.setattr(graph_mod, "_cpu_count", lambda: workers)
    drawn = 0

    def items():
        nonlocal drawn
        for i in range(30):
            drawn += 1
            yield i

    ahead = [drawn - taken for taken, _ in enumerate(_map_ordered(lambda i: i, items()))]
    assert max(ahead) == 2 * workers  # the item yielded is drawn, not yet yielded


def fail_at(index):
    """An fn for _map_ordered that raises at ``index`` and returns every other
    item; on 3 CPUs the caller runs it when ``index`` is a multiple of 3."""
    def fn(i):
        if i == index:
            raise RuntimeError(f"boom at {i}")
        return i
    return fn


@pytest.mark.parametrize("how", ["return", "pool thread raises", "caller raises",
                                 "consumer stops"])
def test_map_ordered_shuts_every_pool_down(monkeypatch, spy_pool, how):
    monkeypatch.setattr(graph_mod, "_cpu_count", lambda: 3)
    before = set(threading.enumerate())
    if how == "return":
        assert list(_map_ordered(lambda i: i, range(20))) == list(range(20))
    elif how == "consumer stops":
        results = _map_ordered(lambda i: i, range(20))
        assert next(results) == 0
        results.close()
    else:
        index = 4 if how == "pool thread raises" else 6
        got = []
        with pytest.raises(RuntimeError, match=f"^boom at {index}$"):
            got.extend(_map_ordered(fail_at(index), range(20)))
        assert got == list(range(index))  # the items before it, in order
    [pool] = spy_pool.made
    assert pool.submits > 0 and pool.shut_down
    assert set(threading.enumerate()) <= before


# -- segment blocks and clipped segment counts ---------------------------------

# segment lengths with zeros, and with segments longer than every small size
SEGMENT_COUNTS = st.lists(st.one_of(st.just(0), st.integers(0, 4), st.integers(5, 40)),
                          max_size=30)


def block_starts(counts, size):
    """Where blocks must start, element by element: at the first segment that
    starts at or after each multiple of size, and at both ends of every
    segment longer than size."""
    firsts = np.cumsum([0, *counts])
    total = int(firsts[-1])
    starts = {int(firsts[np.searchsorted(firsts, x)]) for x in range(0, total, size)}
    for first, count in zip(firsts.tolist(), counts):
        if count > size:
            starts |= {first, first + count}
    return sorted(starts - {total})


@given(counts=SEGMENT_COUNTS, size=st.integers(1, 12))
@example(counts=[], size=1)
@example(counts=[0, 0, 0], size=3)  # a total of 0: no block
@settings(max_examples=400, deadline=None)
def test_segment_blocks_match_brute_force(counts, size):
    firsts = np.cumsum([0, *counts]).tolist()
    blocks = _segment_blocks(np.array(counts, dtype=np.int64), size)
    assert all(e0 < e1 for e0, e1, _, _ in blocks)  # no block is empty
    # the blocks tile 0..total once, in order, each holding whole segments
    bounds = [0] + [e1 for _, e1, _, _ in blocks]
    assert [e0 for e0, *_ in blocks] == bounds[:-1] and bounds[-1] == firsts[-1]
    assert all((firsts[s0], firsts[s1]) == (e0, e1) for e0, e1, s0, s1 in blocks)
    assert all(s0 < s1 for _, _, s0, s1 in blocks)
    assert [e0 for e0, *_ in blocks] == block_starts(counts, size)
    # a segment longer than size is a block of its own
    own = {s0 for _, _, s0, s1 in blocks if s1 == s0 + 1}
    assert all(i in own for i, count in enumerate(counts) if count > size)


@given(counts=SEGMENT_COUNTS.filter(any), data=st.data())
@settings(max_examples=400, deadline=None)
def test_segment_counts_match_owner_lookup(counts, data):
    ends = np.cumsum(counts)
    stop = data.draw(st.integers(1, int(ends[-1])))
    start = data.draw(st.integers(0, stop - 1))
    lo, clipped = _segment_counts(ends, start, stop)
    assert clipped.sum() == stop - start
    owners = np.searchsorted(ends, np.arange(start, stop), side="right")
    assert (owners[0], owners[-1]) == (lo, lo + clipped.size - 1)
    assert clipped.tolist() == np.bincount(owners - lo, minlength=clipped.size).tolist()
