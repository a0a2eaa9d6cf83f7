"""Exact bytes of every text writer, to a path, a .gz path and an open stream."""

import csv
import gzip
import io

import numpy as np
import pytest

from ranktail.graph import Graph, load_edge_list, write_edge_list
from ranktail.pagerank import export_scores
from ranktail.tails import ccdf, decimate_ccdf, write_ccdf_csv

EDGES = "5\t7\n7\t5\n9\t7\n"


def three_edge_graph():
    return load_edge_list(io.StringIO(EDGES))


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
        buf = io.StringIO()
        write(g, buf)
        assert not buf.closed
        assert buf.getvalue() == expected
    elif target == "gz":
        path = tmp_path / "out.gz"
        write(g, path)
        with gzip.open(path, "rb") as fh:
            assert fh.read() == expected.encode("utf-8")
    else:
        path = tmp_path / "out.txt"
        write(g, path)
        assert path.read_bytes() == expected.encode("utf-8")


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
    buf = io.StringIO()
    write(*args, buf)
    return buf.getvalue()


def test_edge_list_over_one_chunk(rng):
    # more edges than one 65,536-row chunk, with sparse 12-digit original ids
    n, m = 5_000, 70_001
    g = Graph.from_edges(rng.integers(0, n, m), rng.integers(0, n, m), n=n,
                         orig_ids=np.arange(n) * 7_919 + 10**11)
    src, dst = g.edge_arrays()
    expected = csv_reference(None, zip(g.orig_ids[src].tolist(), g.orig_ids[dst].tolist()),
                             delimiter="\t", lineterminator="\n")
    assert expected.count("\n") == m
    assert written(write_edge_list, g) == expected


SCORES = [1e-05, 1e+16, 0.1, 123456789.0, 1.0, 2 / 3, -0.0, float("inf")]


@pytest.mark.parametrize("scores", [
    np.array([0, 1, 7, 123456789, 10**16]),
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
