"""Exact bytes of every text writer, to a path, a .gz path and an open stream."""

import csv
import gzip
import io
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranktail import blocks as blocks_mod
from ranktail import formats as formats_mod
from ranktail.formats import write_csv
from ranktail.graph import Graph, load_edge_list, write_edge_list
from ranktail.pagerank import export_scores
from ranktail.tails import ccdf, decimate_ccdf, write_ccdf_csv

EDGES = "5\t7\n7\t5\n9\t7\n"


def three_edge_graph():
    return load_edge_list(io.BytesIO(EDGES.encode()))


WRITERS = {
    # in-adjacency order: the edge into 5, then the two into 7
    "edges": (write_edge_list, "7\t5\n5\t7\n9\t7\n"),
    "scores": (lambda g, dest: export_scores(g, np.array([0.5, 1.25, 1.0]), dest),
               "node_id,score\r\n5,0.5\r\n7,1.25\r\n9,1.0\r\n"),
    "ccdf": (lambda g, dest: write_ccdf_csv(ccdf(g.in_deg), dest),
             "x,ccdf\r\n1.0,0.3333333333333333\r\n"),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("target", ["path", "gz", "stream"])
def test_writer_bytes(tmp_path, writer, target):
    write, expected = WRITERS[writer]
    g = three_edge_graph()
    if target == "stream":
        buf = io.BytesIO()
        write(g, buf)
        assert not buf.closed
        assert buf.getvalue() == expected.encode("utf-8")
    elif target == "gz":
        path = tmp_path / "out.gz"
        write(g, path)
        with gzip.open(path, "rb") as fh:
            assert fh.read() == expected.encode("utf-8")
    else:
        path = tmp_path / "out.txt"
        write(g, path)
        assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("stream", [io.StringIO, lambda: io.TextIOWrapper(io.BytesIO())],
                         ids=["StringIO", "TextIOWrapper"])
def test_text_stream_refused(writer, stream):
    # rows are written as bytes, to a path or a binary stream
    write, _ = WRITERS[writer]
    with stream() as dest, pytest.raises(TypeError, match="binary stream, not"):
        write(three_edge_graph(), dest)


def csv_reference(header, rows, **dialect):
    """Rows as the csv module writes them, with int ids and repr(float) values:
    the format every writer keeps."""
    buf = io.StringIO()
    writer = csv.writer(buf, **dialect)
    if header:
        writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def written(write, *args):
    buf = io.BytesIO()
    write(*args, buf)
    return buf.getvalue().decode("utf-8")


def test_edge_list_over_one_chunk(rng):
    # more edges than one 65,536-row chunk, with sparse 12-digit original ids
    n, m = 5_000, 70_001
    g = Graph.from_edges(rng.integers(0, n, m), rng.integers(0, n, m), n=n,
                         orig_ids=np.arange(n) * 7_919 + 10**11)
    src, dst = g.in_src, np.repeat(np.arange(g.n), g.in_deg)
    expected = csv_reference(None, zip(g.orig_ids[src].tolist(), g.orig_ids[dst].tolist()),
                             delimiter="\t", lineterminator="\n")
    assert expected.count("\n") == m
    assert written(write_edge_list, g) == expected


def fstring_rows(header, first, second, sep, eol):
    """The rows as one f-string per row writes them: the reference format."""
    head = "" if header is None else header + eol
    return head + "".join(f"{a}{sep}{b}{eol}" for a, b in zip(first.tolist(), second.tolist()))


# every cell written is an int >= 0 or a positive finite float
FLOATS = [5e-324, 1e16, 0.1, 2 / 3, 1e-05, 123456789.0, 1.5e300, 1.7976931348623157e+308]
INT64 = np.iinfo(np.int64)
INT64_EXTREMES = [0, 1, 9, 10, 9_999, 10_000, 2**31 - 1, 2**31, 10**18, INT64.max]
# integer columns are encoded at the width they arrive in: (dtype, bound
# of the second column's values, the last of which it holds)
INT_KINDS = {"int": (np.int64, 2**63 - 1), "int64_below_2**31": (np.int64, 2**31),
             "int32": (np.int32, 2**31), "uint64": (np.uint64, 2**64)}


@pytest.mark.parametrize("size", [0, 1, 65_535, 65_536, 65_537])
@pytest.mark.parametrize("kind", [*INT_KINDS, "float"])
def test_write_rows_matches_fstring_rows(rng, size, kind):
    # write_csv's rows: a header, then "a,b" rows with CRLF endings
    first = rng.integers(0, 10**15, size)
    first[:len(INT64_EXTREMES)] = INT64_EXTREMES[:size]
    if kind in INT_KINDS:
        dtype, bound = INT_KINDS[kind]
        second = rng.integers(0, bound, size, dtype=dtype)
        second[-1:] = bound - 1
    else:
        second = np.resize(np.array(FLOATS), size)
    expected = fstring_rows("a,b", first, second, ",", "\r\n")
    assert written(lambda dest: write_csv(dest, "a,b", first, second)) == expected


def test_write_rows_to_gz_matches_fstring_rows(tmp_path, rng):
    first = np.arange(70_000)
    second = np.resize(np.array(FLOATS), first.size)
    path = tmp_path / "rows.csv.gz"
    write_csv(path, "x,y", first, second)
    with gzip.open(path, "rb") as fh:
        assert fh.read() == fstring_rows("x,y", first, second, ",", "\r\n").encode("utf-8")


def id_pairs_graph(first, second):
    """A graph with one edge per row, from a node whose original id is first[i]
    to one whose original id is second[i]; its edge list keeps the row order."""
    k = len(first)
    return Graph.from_edges(np.arange(k), np.arange(k, 2 * k), n=2 * k,
                            orig_ids=np.concatenate([first, second]))


# every digit count from 1 to 19, and each side of 2**31, past which ids are int64
EDGE_IDS = sorted({0, *(10**k - 1 for k in range(1, 19)), *(10**k for k in range(19)),
                   2**31 - 1, 2**31, 2**63 - 1})


@pytest.mark.parametrize("top", [9, 2**31 - 1, 2**31, 2**63 - 1])
def test_edge_ids_at_the_extremes(top):
    ids = np.array([v for v in EDGE_IDS if v <= top], dtype=np.int64)
    repeated = np.resize(ids, 3 * ids.size)
    for first, second in [(ids, ids[::-1]), (ids[:1], ids[-1:]), (repeated, repeated[::-1])]:
        expected = fstring_rows(None, first, second, "\t", "\n")
        assert written(write_edge_list, id_pairs_graph(first, second)) == expected


@given(rows=st.lists(st.tuples(st.integers(0, INT64.max), st.integers(0, INT64.max)),
                     max_size=50))
@settings(max_examples=200, deadline=None)
def test_edge_ids_match_fstring_rows(rows):
    first = np.array([a for a, _ in rows], dtype=np.int64)
    second = np.array([b for _, b in rows], dtype=np.int64)
    expected = fstring_rows(None, first, second, "\t", "\n")
    assert written(write_edge_list, id_pairs_graph(first, second)) == expected


def test_int_rows_equal_for_every_worker_count(rng, monkeypatch, spy_pool, tmp_path):
    # edge-list rows: the encoder's chunks split across 1, 2 and 3 CPUs
    size = 5 * 65_536 + 17
    # every digit count from 1 to 19; the first chunk's sources below 2**31
    first = rng.integers(0, 10, size) * 10 ** rng.integers(0, 19, size)
    first[:65_536] %= 2**31
    second = rng.integers(0, 2**63 - 1, size, dtype=np.int64)
    g = id_pairs_graph(first, second)
    expected = fstring_rows(None, first, second, "\t", "\n").encode()
    for workers in (1, 2, 3):
        monkeypatch.setattr(blocks_mod, "_cpu_count", lambda: workers)
        spy_pool.made.clear()
        write_edge_list(g, tmp_path / f"{workers}.txt")
        assert [pool.max_workers for pool in spy_pool.made] == [max(workers - 1, 1)]
        write_edge_list(g, tmp_path / f"{workers}.txt.gz")
        assert (tmp_path / f"{workers}.txt").read_bytes() == expected
        with gzip.open(tmp_path / f"{workers}.txt.gz", "rb") as fh:
            assert fh.read() == expected


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_edge_list_chunks_cut_inside_and_between_in_lists(monkeypatch, chunk, workers):
    # empty rows at both ends and inside, an in-list of 10 edges (longer than
    # every chunk), in-lists that end at edges 3, 14, 21 and 24 (multiples of
    # 3 or 7, so on chunk boundaries), and sparse 12-digit original ids
    in_deg = np.array([0, 3, 0, 0, 10, 1, 3, 0, 4, 3, 2, 0, 0])
    n = in_deg.size
    g = Graph.from_edges(np.arange(in_deg.sum()) * 5 % n, np.repeat(np.arange(n), in_deg),
                         n=n, orig_ids=np.arange(n) * 7_919_113 + 10**11)
    monkeypatch.setattr(formats_mod, "_CHUNK_ROWS", chunk)
    monkeypatch.setattr(blocks_mod, "_cpu_count", lambda: workers)
    expected = fstring_rows(None, g.orig_ids[g.in_src],
                            g.orig_ids[np.repeat(np.arange(n), g.in_deg)], "\t", "\n")
    assert expected.count("\n") == g.m == 26
    assert written(write_edge_list, g) == expected


class FailingStream(io.BytesIO):
    """A binary stream whose writes raise once it holds a byte."""

    def write(self, data):
        if self.tell():
            raise OSError("disk full")
        return super().write(data)


def test_pool_shut_down_when_write_raises(monkeypatch, spy_pool):
    monkeypatch.setattr(blocks_mod, "_cpu_count", lambda: 3)
    column = np.arange(10 * 65_536)
    g = id_pairs_graph(column, column)
    before = set(threading.enumerate())
    with pytest.raises(OSError, match="disk full"):
        write_edge_list(g, FailingStream())
    [pool] = spy_pool.made
    assert pool.submits > 0 and pool.shut_down
    assert set(threading.enumerate()) <= before


SCORES = [1e-05, 1e+16, 0.1, 123456789.0, 1.0, 2 / 3]


@pytest.mark.parametrize("scores", [
    np.array([1, 7, 123456789, 10**16]),
    np.array(SCORES, dtype=np.float32),
    np.array(SCORES, dtype=np.float64),
], ids=["int", "float32", "float64"])
def test_score_formats(scores):
    g = Graph.from_edges([], [], n=scores.size, orig_ids=np.arange(scores.size) * 3 + 5)
    expected = csv_reference(["node_id", "score"],
                             [(int(o), repr(float(s))) for o, s in zip(g.orig_ids, scores)])
    assert written(lambda dest: export_scores(g, scores, dest)) == expected


def test_short_score_vector_rejected(tmp_path):
    path = tmp_path / "scores.csv"
    with pytest.raises(ValueError, match="length"):
        export_scores(three_edge_graph(), np.array([0.5, 1.25]), path)
    assert not path.exists()


def test_ccdf_capped_at_4096_points(rng):
    series = ccdf(rng.pareto(1.2, 20_000) + 1.0)
    assert series.xs.size > 4_096
    thin = decimate_ccdf(series)
    rows = written(write_ccdf_csv, series).split("\r\n")[1:-1]
    assert len(rows) <= 4_096
    assert float(rows[0].split(",")[0]) == series.xs[0]
    assert written(write_ccdf_csv, series) == csv_reference(
        ["x", "ccdf"], [(repr(float(x)), repr(float(f))) for x, f in zip(thin.xs, thin.fractions)])


# write_csv prints each float as repr does, from numpy alone: the shortest
# digits that read back as the float, nearest to it, positional for decimal
# exponents -4 <= e < 16 and else "d.ddde±XX"
EDGE_FLOATS = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e+308, 1e16,
               9999999999999998.0, 1e-05, 0.0001, 0.1, 2 / 3]


def float_cells(values):
    """(write_csv's rows, the f-string rows) of an index column and values."""
    x = np.asarray(values, dtype=np.float64)
    i = np.arange(x.size)
    return (written(lambda dest: write_csv(dest, "i,x", i, x)),
            fstring_rows("i,x", i, x, ",", "\r\n"))


def test_float_cells_at_the_edges():
    got, expected = float_cells(EDGE_FLOATS)
    assert got == expected
    assert expected.split("\r\n")[1:-1] == [
        "0,5e-324", "1,2.2250738585072014e-308", "2,1.7976931348623157e+308", "3,1e+16",
        "4,9999999999999998.0", "5,1e-05", "6,0.0001", "7,0.1", "8,0.6666666666666666"]


def test_float_cells_at_every_binary_exponent():
    # each power of two, where the rounding interval is narrower below, and
    # its neighbours, from the least subnormal to the largest power, less the
    # 0.0 below the least subnormal
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    got, expected = float_cells(values[values > 0])
    assert got == expected


@given(st.lists(st.floats(min_value=5e-324, allow_infinity=False), max_size=50))
@settings(max_examples=300, deadline=None)
def test_float_cells_match_repr(values):
    got, expected = float_cells(values)
    assert got == expected


def test_cells_of_another_kind_refused(tmp_path):
    # the check comes before the file is opened, so no header is left behind
    for path in (tmp_path / "t.csv", tmp_path / "t.csv.gz"):
        with pytest.raises(TypeError, match="integers or floats"):
            write_csv(path, "a,b", np.array(["x"]), np.array([1.0]))
        assert not path.exists()


# a negative int, and a float that is zero, negative, infinite or NaN: the
# first bad cell is named, and no file is opened
@pytest.mark.parametrize("first, second, message", [
    ([3, -1, -5], [1.0, 2.0, 3.0], "column 'a' holds -1;"),
    ([0, 1, 2], [1.0, 0.0, -2.0], "column 'b' holds 0.0;"),
    ([0, 1, 2], [1.0, -0.0, -2.0], "column 'b' holds -0.0;"),
    ([0, 1, 2], [1.0, -1.5, -2.0], "column 'b' holds -1.5;"),
    ([0, 1, 2], [1.0, np.inf, -2.0], "column 'b' holds inf;"),
    ([0, 1, 2], [1.0, -np.inf, -2.0], "column 'b' holds -inf;"),
    ([0, 1, 2], [1.0, np.nan, -2.0], "column 'b' holds nan;"),
], ids=["negative-int", "zero", "negative-zero", "negative", "inf", "negative-inf", "nan"])
def test_cells_out_of_range_refused(tmp_path, first, second, message):
    for path in (tmp_path / "t.csv", tmp_path / "t.csv.gz"):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            write_csv(path, "a,b", np.array(first), np.array(second))
        assert not path.exists()


@pytest.mark.slow
def test_float_cells_match_repr_on_random_bit_patterns():
    # 1e7 uniform 64-bit patterns taken as absolute values: every exponent
    # and subnormals, about 4,900 of each exponent; the few that are
    # infinite, NaN or zero are left out
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = np.abs(rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64))
        got, expected = float_cells(x[np.isfinite(x) & (x > 0)])
        assert got == expected
