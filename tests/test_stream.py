"""The streamed consumers of the PageRank series against the collected
reference of tests/collected.py: `analyze_graph`'s report, distributions and
warning order, and the files and output of ``ranktail analyze`` and
``ranktail pagerank``, are the reference's."""

import numpy as np
import pytest

from collected import collected_analysis, collected_scores
from ranktail.cli import main
from ranktail.graph import load_edge_list, write_edge_list
from ranktail.report import AnalysisOptions, analyze_graph, write_analysis
from ranktail.synth import SynthSpec, generate


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("stream")
    spec = SynthSpec(n=5_000, alpha=1.5, d=8.0, outdeg_hist={0: 0.1, 4: 0.68, 24: 0.22},
                     seed=7)
    write_edge_list(generate(spec), root / "edges.txt")
    # every in-degree and every score is 1: CCDFs of no point
    (root / "cycle.txt").write_text("0 1\n1 2\n2 0\n")
    return root


# name -> (graph file, analysis options, what the case must show)
CASES = {
    "stops_apart": ("edges.txt", dict(dampings=[0.2, 0.5, 0.85], snapshot_iters=[1, 2],
                                      tol=1e-9), None),
    "snapshot_past_a_stop": ("edges.txt", dict(dampings=[0.2, 0.5, 0.85],
                                               snapshot_iters=[1, 20], tol=1e-9),
                             "c=0.2: snapshot iterations [20] not taken"),
    "capped": ("edges.txt", dict(dampings=[0.85, 0.2], snapshot_iters=[3, 12], max_iters=12),
               "c=0.85 not converged after 12 iterations"),
    "degenerate_damping": ("edges.txt", dict(dampings=[1e-300, 0.85], snapshot_iters=[1]),
                           "pagerank c=1e-300 final: tail fit skipped"),
    "degenerate_graph": ("cycle.txt", dict(dampings=[0.5], snapshot_iters=[1, 5]),
                         "pagerank c=0.5 1: tail fit skipped"),
    "xmin_and_alpha": ("edges.txt", dict(dampings=[0.5, 0.3], snapshot_iters=[2], xmin=3.0,
                                         alpha=1.2), None),
}


def argv(command, path, options, outdir):
    args = [command, str(path)]
    for c in options["dampings"]:
        args += ["--damping", repr(c)]
    args += ["--snapshots", *map(str, options["snapshot_iters"]), "--output-dir", str(outdir)]
    for key in ("tol", "max_iters", "xmin", "alpha"):
        if key in options and (command == "analyze" or key in ("tol", "max_iters")):
            args += [f"--{key.replace('_', '-')}", repr(options[key])]
    return args


def files(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


@pytest.mark.parametrize("case", CASES)
def test_analyze_graph_equals_the_collected_analysis(graph_files, case):
    name, kwargs, shown = CASES[case]
    g = load_edge_list(graph_files / name)
    options = AnalysisOptions(**kwargs)
    report, dists = analyze_graph(g, options)
    ref_report, ref_dists = collected_analysis(g, options)
    assert report == ref_report
    assert report["warnings"] == ref_report["warnings"]  # in order
    assert list(dists) == list(ref_dists)
    for stem, series in dists.items():
        assert np.array_equal(series.xs, ref_dists[stem].xs), stem
        assert np.array_equal(series.fractions, ref_dists[stem].fractions), stem
    if shown is not None:
        assert any(line.startswith(shown) for line in report["warnings"])
    if case == "stops_apart":
        assert len({entry["iters_run"] for entry in report["pagerank"].values()}) == 3


@pytest.mark.parametrize("case", CASES)
def test_cli_output_equals_the_collected_run(graph_files, tmp_path, capsys, case):
    name, kwargs, _ = CASES[case]
    path = graph_files / name
    g = load_edge_list(path)

    code = main(argv("pagerank", path, kwargs, tmp_path / "pagerank"))
    out, err = capsys.readouterr()
    options = AnalysisOptions(**kwargs)
    ref_err, ref_code = collected_scores(g, options.dampings, options.tol, options.max_iters,
                                         options.snapshot_iters, tmp_path / "ref_pagerank")
    assert (code, out, err) == (ref_code, "", ref_err)
    assert files(tmp_path / "pagerank") == files(tmp_path / "ref_pagerank")

    code = main(argv("analyze", path, kwargs, tmp_path / "analyze"))
    out, err = capsys.readouterr()
    ref_report, ref_dists = collected_analysis(g, options)
    write_analysis(ref_report, ref_dists, tmp_path / "ref_analyze")
    assert out == f"report written to {tmp_path / 'analyze' / 'report.json'}\n"
    assert err == "".join(f"warning: {line}\n" for line in ref_report["warnings"])
    assert code == (0 if all(e["converged"] for e in ref_report["pagerank"].values()) else 4)
    assert files(tmp_path / "analyze") == files(tmp_path / "ref_analyze")
