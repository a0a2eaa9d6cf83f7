import json

import numpy as np
import pytest

from oracles import solved_histogram
from ranktail import report as report_mod
from ranktail import tails
from ranktail.pagerank import pagerank_series
from ranktail.report import AnalysisOptions, analyze_graph, write_analysis
from ranktail.synth import SynthSpec, generate


@pytest.fixture(scope="module")
def small_graph():
    spec = SynthSpec(n=20_000, alpha=1.5, d=8.0,
                     outdeg_hist=solved_histogram(1.5, 8.0, 0.1, 0.45, atoms=(1, 8, 64)),
                     seed=42)
    return generate(spec)


def test_full_pipeline_schema(small_graph, tmp_path):
    options = AnalysisOptions(dampings=[0.85], snapshot_iters=[1, 2], tol=1e-9)
    report, dists = analyze_graph(small_graph, options)
    assert report["schema_version"] == 1
    assert report["indegree_fit"] is not None
    entry = report["pagerank"]["0.85"]
    assert entry["converged"]
    assert set(entry["snapshot_fits"]) == {"1", "2"}
    coeffs = report["coefficients"]["0.85"]
    assert set(coeffs["C_k"]) == {"1", "2"}
    assert coeffs["C_k"]["1"] < coeffs["C_k"]["2"] < coeffs["C_limit"]
    assert coeffs["C_lower_bound"] <= coeffs["C_limit"]

    alpha_hat = report["indegree_fit"]["alpha"]
    assert report["predicted_lines"]
    for line in report["predicted_lines"]:
        assert line["slope"] == -alpha_hat
    ks = {(r["c"], r["k"]) for r in report["residuals"]}
    assert (0.85, "limit") in ks and (0.85, "1") in ks

    assert "ccdf_indegree" in dists
    assert "ccdf_pagerank_c0.85" in dists
    assert "ccdf_pagerank_c0.85_iter1" in dists

    path = write_analysis(report, dists, tmp_path)
    assert path.exists()
    assert (tmp_path / "ccdf_indegree.csv").read_text().startswith("x,ccdf")
    reloaded = json.loads(path.read_text())
    assert reloaded["degree_profile"]["n"] == small_graph.n


def test_each_vector_is_sorted_in_full_once(small_graph, monkeypatch):
    # the in-degree and 3 dampings x (final + 2 snapshots): 10 vectors; the
    # fit's own ccdf call sorts only the tail, below x_min it sees zeros
    real = tails.ccdf
    sorted_sizes = []

    def spy(values):
        sorted_sizes.append(int(np.count_nonzero(np.asarray(values) > 0)))
        return real(values)

    monkeypatch.setattr(tails, "ccdf", spy)
    monkeypatch.setattr(report_mod, "ccdf", spy)
    analyze_graph(small_graph, AnalysisOptions(dampings=[0.2, 0.5, 0.85],
                                               snapshot_iters=[1, 2], tol=1e-9))
    full = {int(np.count_nonzero(small_graph.in_deg)), small_graph.n}
    assert sum(size in full for size in sorted_sizes) == 10
    assert len(sorted_sizes) == 20


def test_distributions_hold_only_written_points(small_graph):
    _, dists = analyze_graph(small_graph, AnalysisOptions(dampings=[0.85], tol=1e-9))
    assert all(series.xs.size <= tails._MAX_CCDF_POINTS for series in dists.values())
    # the full score CCDF is longer than the cap, so it was thinned
    [result] = pagerank_series(small_graph, [0.85], tol=1e-9)
    full = tails.ccdf(result.scores)
    assert full.xs.size > tails._MAX_CCDF_POINTS
    thin, written = tails.decimate_ccdf(full), dists["ccdf_pagerank_c0.85"]
    assert np.array_equal(written.xs, thin.xs)
    assert np.array_equal(written.fractions, thin.fractions)


def test_no_dampings_gives_stats_and_indegree_only(small_graph):
    report, dists = analyze_graph(small_graph, AnalysisOptions(dampings=[]))
    assert report["pagerank"] == {}
    assert report["coefficients"] == {}
    assert report["indegree_fit"] is not None
    assert list(dists) == ["ccdf_indegree"]


def test_tiny_tail_yields_partial_report():
    # a 3-cycle has constant degrees: no fit is possible, but stats survive
    from ranktail.graph import Graph
    g = Graph.from_edges(np.array([0, 1, 2]), np.array([1, 2, 0]), 3)
    with pytest.warns(UserWarning):
        report, _ = analyze_graph(g, AnalysisOptions(dampings=[0.5]))
    assert report["indegree_fit"] is None
    assert report["warnings"]
    assert report["pagerank"]["0.5"]["iters_run"] >= 1


def test_refused_coefficients_are_a_warning_per_damping(small_graph):
    # at c = 1e-300, (c(1-p0)/d)^alpha underflows, so C = 0.0 is refused when
    # the coefficients are built; that damping warns and the next one is kept.
    # Its scores are all 1.0, a CCDF of no point
    with pytest.warns(UserWarning, match="degenerate CCDF"):
        report, _ = analyze_graph(small_graph, AnalysisOptions(dampings=[1e-300, 0.85]))
    assert set(report["pagerank"]) == {"1e-300", "0.85"}
    assert list(report["coefficients"]) == ["0.85"]
    assert {row["c"] for row in report["predicted_lines"]} == {0.85}
    skipped = [w for w in report["warnings"] if w.startswith("c=1e-300: coefficients skipped")]
    assert len(skipped) == 1 and "limit coefficient C = " in skipped[0]


def test_snapshot_after_the_stop_is_named_in_a_warning(small_graph):
    # at tol 1e-6, c = 0.5 stops at iteration 10 and c = 0.85 at 15
    options = AnalysisOptions(dampings=[0.5, 0.85], tol=1e-6, snapshot_iters=[2, 12, 150])
    report, dists = analyze_graph(small_graph, options)
    stops = {key: entry["iters_run"] for key, entry in report["pagerank"].items()}
    assert stops == {"0.5": 10, "0.85": 15}
    assert [w for w in report["warnings"] if "snapshot" in w] == [
        "c=0.5: snapshot iterations [12, 150] not taken; the damping stopped at iteration 10",
        "c=0.85: snapshot iterations [150] not taken; the damping stopped at iteration 15"]
    assert set(report["pagerank"]["0.5"]["snapshot_fits"]) == {"2"}
    assert set(report["coefficients"]["0.85"]["C_k"]) == {"2", "12"}
    assert "ccdf_pagerank_c0.85_iter150" not in dists


def test_alpha_override_guard():
    AnalysisOptions(alpha=2.1)  # plausible cumulative exponent: accepted
    with pytest.raises(ValueError, match="density"):
        AnalysisOptions(alpha=3.2)
    with pytest.raises(ValueError, match="density"):
        AnalysisOptions(alpha=0.4)


@pytest.mark.parametrize("xmin", [0.0, -1.0, float("nan"), float("inf")])
def test_xmin_override_guard(xmin):
    AnalysisOptions(xmin=2.0)
    with pytest.raises(ValueError, match="xmin must be a positive finite number"):
        AnalysisOptions(xmin=xmin)


@pytest.mark.parametrize("changes, message", [
    ({"dampings": [0.5, 0.5]}, "dampings must be distinct"),
    ({"tol": 0}, "tol must be positive"),
    ({"snapshot_iters": [0]}, "snapshot iterations must lie in"),
    # the PageRank options are checked before the alpha override
    ({"dampings": [0.5, 0.5], "alpha": 3.2}, "dampings must be distinct"),
], ids=["repeated-damping", "tol-0", "snapshot-0", "before-alpha"])
def test_pagerank_options_checked_when_built(changes, message):
    with pytest.raises(ValueError, match=message):
        AnalysisOptions(**changes)


def test_report_is_deterministic(small_graph):
    options = AnalysisOptions(dampings=[0.5], snapshot_iters=[1])
    a, _ = analyze_graph(small_graph, options)
    b, _ = analyze_graph(small_graph, options)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _assert_same_tree(actual, expected, path=""):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and set(actual) == set(expected), path
        for key in expected:
            _assert_same_tree(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_same_tree(a, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-9, abs=1e-12), path
    else:
        assert actual == expected, path


def test_golden_report(small_graph):
    # schema and values are frozen: any change must be deliberate and bump
    # the schema version
    import pathlib
    golden = json.loads((pathlib.Path(__file__).parent
                         / "data" / "golden_report.json").read_text())
    report, _ = analyze_graph(
        small_graph, AnalysisOptions(dampings=[0.85], snapshot_iters=[1, 2], tol=1e-9))
    _assert_same_tree(report, golden)
