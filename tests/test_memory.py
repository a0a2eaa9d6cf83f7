"""Peak memory of the graph builders, of a pool generation and of the
analysis, counted by tracemalloc, which sees numpy's allocations (not RSS,
which moves with the allocator).  Each builder's bound is in bytes per edge
above its inputs, at about 2M edges; an int64 copy of one id column alone
is 8 B/edge.  The generation's bound is in bytes per pool sample above the
previous pool, and the analysis' bounds are in bytes per node or value
above the graph or the input."""

import tracemalloc

import numpy as np
import pytest

from oracles import solved_histogram
from ranktail import blocks
from ranktail.graph import Graph, _dense_ids
from ranktail.report import AnalysisOptions, analyze_graph
from ranktail.simulate import ModelSpec, initial_pool, iterate_pool
from ranktail.synth import SynthSpec, generate
from ranktail.tails import ccdf

M = 1 << 21


def peak_bytes(build) -> int:
    """The most bytes that build() held at once above what was held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def sorted_columns():
    """int32 (src, dst) of M edges over 2**16 nodes, dst non-decreasing, as
    ranktail writes edge lists."""
    rng = np.random.default_rng(3)
    n = 1 << 16
    src = rng.integers(0, n, M).astype(np.int32)
    dst = np.sort(rng.integers(0, n, M)).astype(np.int32)
    return src, dst, n


def test_from_edges_on_a_sorted_int32_list(sorted_columns):
    # the graph keeps src as in_src and adds arrays of n entries only; the
    # rest is one piece of the counts.  Kept to 8 B/edge, which an int64
    # copy of src, or of dst for bincount, exceeds.
    src, dst, n = sorted_columns
    assert peak_bytes(lambda: Graph.from_edges(src, dst, n)) / M < 8.0


def test_from_edges_on_a_shuffled_int32_list():
    # dst in no order, as in a crawl file sorted by source: the edges are
    # grouped by a counting sort of pieces of dst.  The graph keeps in_src
    # (4 B/edge) and arrays of n entries; counting the ids copies a piece
    # of 2**20 of them to intp (4 B/edge here).  Kept to 12 B/edge, which
    # sorted pieces of 2**20 keys (about 44 B a key, 22 B/edge here) exceed.
    rng = np.random.default_rng(4)
    n = 1 << 16
    src = rng.integers(0, n, M).astype(np.int32)
    dst = rng.integers(0, n, M).astype(np.int32)
    graphs = []
    assert peak_bytes(lambda: graphs.append(Graph.from_edges(src, dst, n))) / M < 12.0
    assert np.array_equal(graphs[0].in_src, src[np.argsort(dst, kind="stable")])


def test_dense_ids_remaps_in_place(sorted_columns):
    # the presence table and ranks are of the id range; each column is
    # remapped a piece at a time.  Kept to 6 B/edge, which an intp copy of
    # a column (8 B/edge) exceeds.
    src, dst, _ = sorted_columns
    columns = [src.copy(), dst.copy()]
    assert peak_bytes(lambda: _dense_ids(columns)) / M < 6.0


def test_generate_holds_no_edge_sized_temporary():
    # what generate keeps is in_src (4 B/edge at int32) and arrays of n
    # entries; it also holds the out-stub table (about 4 B/edge) and one
    # chunk of draws.  Kept to 24 B/edge, which three int64 arrays of one
    # entry per edge exceed.
    spec = SynthSpec(n=1 << 18, alpha=1.5, d=8.0, outdeg_hist={0: 0.1, 4: 0.68, 24: 0.22},
                     seed=1)
    graphs = []
    peak = peak_bytes(lambda: graphs.append(generate(spec)))
    m = graphs[0].m
    assert 1.8e6 < m < 2.4e6
    assert peak / m < 24.0


def test_pool_generation_holds_blocks_not_a_chunk_of_draws(monkeypatch):
    # crit3 at M = 1e6 draws about 5.3M children.  A generation holds the
    # in-degrees, the sums and, on two CPUs, the draws and work of at most
    # four blocks of at most 2**18 children.  Kept to 64 B/sample, which
    # 2**22 children's draws held at once (uniforms and pool indices,
    # 67 B/sample) would exceed alone.
    monkeypatch.setattr(blocks, "_cpu_count", lambda: 2)
    spec = ModelSpec(c=0.85, alpha=1.1, d=8.2,
                     outdeg_hist=solved_histogram(1.1, 8.2, 0.006, 0.8558),
                     pool_size=1_000_000, seed=5)
    pool = initial_pool(spec)
    assert peak_bytes(lambda: iterate_pool(pool, spec)) / spec.pool_size < 64.0


def test_ccdf_compacts_its_points_into_its_sorted_copy():
    # 2**20 values, a tenth of them zero and the rest distinct: the ccdf holds
    # the positive-value mask (1 B/value), their sorted copy and the
    # fractions (7.2 B/value each), whose points xs are compacted into the
    # copy, plus one piece's temporaries: about 16 B/value.  Kept to 18
    # B/value, which a ccdf that holds the run-end indices and xs beside the
    # sorted copy exceeds: that reads about 21.6 B/value here.
    x = np.random.default_rng(1).random(1 << 20) + 0.5
    x[::10] = 0.0
    assert peak_bytes(lambda: ccdf(x)) / x.size < 18.0


def test_analyze_graph_holds_one_score_vector_at_a_time(monkeypatch):
    # 3 dampings x (final + 2 snapshots) on a generated graph of n = 2**18
    # nodes, on two CPUs.  The series holds x_k, x_{k+1}, w = x_k/out-degree
    # and one accumulator per damping (48 B/node), and the kernel the ids of
    # the dangling nodes and of the empty rows (under 1 B/node here), but no
    # table of rows or offsets.  A snapshot is analysed in the series' own
    # x_k and a final vector is its accumulator, so only the CCDF's sorted
    # copy, into which its points are compacted, its fractions and masks
    # (about 19 B/node), the fit's masks and the decimated CCDFs kept (2.5
    # B/node) come on top: about 76 B/node.  Kept to 80 B/node, which a
    # kernel with row tables and a CCDF that holds its run-end indices and
    # points beside its sorted copy exceed: that reads about 85 B/node here.
    monkeypatch.setattr(blocks, "_cpu_count", lambda: 2)
    spec = SynthSpec(n=1 << 18, alpha=1.5, d=8.0, outdeg_hist={0: 0.1, 4: 0.68, 24: 0.22},
                     seed=3)
    g = generate(spec)
    options = AnalysisOptions(dampings=[0.2, 0.5, 0.85], snapshot_iters=[1, 2], tol=1e-9)
    reports = []
    peak = peak_bytes(lambda: reports.append(analyze_graph(g, options)))
    assert len(reports[0][1]) == 10  # the in-degree CCDF and nine score CCDFs
    assert peak / g.n < 80.0
