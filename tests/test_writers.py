"""Exact bytes of every text writer, to a path, a .gz path and an open stream."""

import gzip
import io

import numpy as np
import pytest

from ranktail.graph import load_edge_list, write_edge_list
from ranktail.pagerank import export_scores
from ranktail.tails import ccdf, write_ccdf_csv

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
