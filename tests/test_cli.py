import argparse
import gzip
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ranktail.cli import _OPTIONS, _resolve_options, build_parser, main


def numbered_edges(count: int) -> bytes:
    return "".join(f"{i} {i * 7919 % count}\n" for i in range(count)).encode()


def damaged_gzip(raw: bytes, damage: str) -> bytes:
    """The gzip bytes of ``raw`` cut in half ("truncated"), or with the first
    deflate block given the reserved block type 3 ("corrupt"), which zlib
    refuses."""
    data = bytearray(gzip.compress(raw))
    if damage == "truncated":
        return bytes(data[:len(data) // 2])
    data[10] |= 0b110  # after the 10-byte header: bits 1-2 of a block are its type
    return bytes(data)


def assert_single_error_line(err: str) -> None:
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.txt"
    path.write_text("1 0\n2 0\n3 0\n4 0\n")
    return path


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "synth"
    hist = json.dumps({"0": 0.1, "1": 0.3, "8": 0.5, "16": 0.1})
    code = main(["generate", "--nodes", "5000", "--alpha", "1.5",
                 "--mean-degree", "5.9", "--outdeg-hist", hist,
                 "--seed", "3", "--output-dir", str(out)])
    assert code == 0
    return out


class TestStats:
    def test_star_profile(self, star_file, capsys):
        assert main(["stats", str(star_file)]) == 0
        profile = json.loads(capsys.readouterr().out)
        assert profile["n"] == 5 and profile["m"] == 4
        assert profile["d"] == pytest.approx(0.8)
        assert profile["p0"] == pytest.approx(0.2)
        assert profile["p_hist"] == {"0": pytest.approx(0.2), "1": pytest.approx(0.8)}

    def test_gz_output_is_gzipped(self, star_file, tmp_path, capsys):
        out = tmp_path / "profile.json.gz"
        assert main(["stats", str(star_file), "--output", str(out)]) == 0
        main(["stats", str(star_file)])
        assert gzip.decompress(out.read_bytes()).decode() == capsys.readouterr().out

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.txt")]) == 3
        assert "error" in capsys.readouterr().err

    def test_parse_error_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\noops\n")
        assert main(["stats", str(bad)]) == 3
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("text, flags", [
        ("", []), ("# a comment\n\n# another\n", []), ("3 3\n7\t7\n", ["--drop-self-loops"]),
    ], ids=["empty", "comments-only", "self-loops-dropped"])
    def test_edge_list_with_no_edge_is_data_error(self, tmp_path, capsys, text, flags):
        bad = tmp_path / "empty.txt"
        bad.write_text(text)
        assert main(["stats", str(bad), *flags]) == 3
        assert capsys.readouterr().err == "error: empty edge list\n"

    def test_unknown_flag_is_usage_error(self, star_file):
        assert main(["stats", str(star_file), "--bogus"]) == 2

    def test_id_beyond_int64_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "big.txt"
        bad.write_text("0 1\n99999999999999999999 1\n")
        assert main(["stats", str(bad)]) == 3
        assert "line 2: node id out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("drop", [[], ["--drop-self-loops"]], ids=["kept", "dropped"])
    def test_id_beyond_int64_in_a_self_loop_is_data_error(self, tmp_path, capsys, drop):
        bad = tmp_path / "loop.txt"
        bad.write_text(f"0 1\n{2**63} {2**63}\n")
        assert main(["stats", str(bad), *drop]) == 3
        assert capsys.readouterr().err == (
            f"error: line 2: node id out of range in '{2**63} {2**63}'\n")

    @pytest.mark.parametrize("raw, message", [
        (b"0 1\n1 \xe2\x82 2\n", "bytes in position 2-3: invalid continuation byte"),
        (b"0 1\n1 2\xe2\x82", "bytes in position 3-4: unexpected end of data"),
    ], ids=["mid-line", "end-of-data"])
    def test_cut_off_utf8_sequence_is_data_error(self, tmp_path, capsys, raw, message):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(raw)
        assert main(["stats", str(bad)]) == 3
        assert capsys.readouterr().err == (
            f"error: 'utf-8' codec can't decode {message} in line 2\n")

    @pytest.mark.parametrize("name", ["bad.txt", "bad.txt.gz"])
    def test_invalid_utf8_is_data_error(self, tmp_path, capsys, name):
        bad = tmp_path / name
        raw = b"0 1\r\n\xff 2\n"
        bad.write_bytes(gzip.compress(raw) if name.endswith(".gz") else raw)
        assert main(["stats", str(bad)]) == 3
        assert "'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stats", "analyze"])
    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_damaged_gz_is_data_error(self, tmp_path, monkeypatch, capsys, command, damage):
        monkeypatch.chdir(tmp_path)  # analyze writes to the working directory
        bad = tmp_path / "edges.txt.gz"
        bad.write_bytes(damaged_gzip(numbered_edges(20_000), damage))
        assert main([command, str(bad)]) == 3
        assert_single_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("raw, message", [
        (b"0 1\noops\n\xff 2\n", "error: line 2: expected 'src dst', got 'oops'"),
        (b"0 1\n\xff 2\noops\n", "error: 'utf-8' codec can't decode byte 0xff in position 0: "
                                 "invalid start byte in line 2"),
    ], ids=["malformed-first", "undecodable-first"])
    def test_first_data_fault_in_file_order_is_reported(self, tmp_path, capsys, raw, message):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(raw)
        assert main(["stats", str(bad)]) == 3
        assert capsys.readouterr().err == message + "\n"


class TestPagerankCmd:
    def test_writes_scores_and_snapshots(self, star_file, tmp_path):
        out = tmp_path / "scores"
        code = main(["pagerank", str(star_file), "--damping", "0.5",
                     "--snapshots", "1", "--output-dir", str(out)])
        assert code == 0
        body = (out / "scores_c0.5.csv").read_text().splitlines()
        assert body[0] == "node_id,score"
        assert len(body) == 6
        assert (out / "scores_c0.5_iter1.csv").exists()

    def test_snapshot_after_the_stop_is_named_on_stderr(self, star_file, tmp_path, capsys):
        # on the star, c = 0.5 stops at iteration 26 with the default tol
        out = tmp_path / "scores"
        assert main(["pagerank", str(star_file), "--damping", "0.5",
                     "--snapshots", "1", "150", "--output-dir", str(out)]) == 0
        assert capsys.readouterr().err == ("warning: c=0.5: snapshot iterations [150] not taken; "
                                           "the damping stopped at iteration 26\n")
        assert sorted(p.name for p in out.iterdir()) == ["scores_c0.5.csv",
                                                         "scores_c0.5_iter1.csv"]

    def test_nonconvergence_exit_code(self, tmp_path):
        path = tmp_path / "path.txt"
        path.write_text("0 1\n1 2\n")
        code = main(["pagerank", str(path), "--damping", "0.95",
                     "--tol", "1e-30", "--max-iters", "3",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 4

    def test_config_key_the_command_lacks_is_ignored(self, star_file, tmp_path):
        # pagerank takes no --alpha, so a mistyped alpha is never checked
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": "2.0"}))
        assert main(["pagerank", str(star_file), "--config", str(cfg),
                     "--output-dir", str(tmp_path / "o")]) == 0

    def test_mistyped_config_fails_before_the_graph_is_read(self, tmp_path, capsys):
        # a missing graph would exit 3: the config is checked first
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": "x"}))
        assert main(["pagerank", str(tmp_path / "missing.txt"), "--config", str(cfg)]) == 2
        assert "config key 'tol'" in capsys.readouterr().err


class TestAnalyzeCmd:
    def test_report_written(self, synth_dir, tmp_path):
        out = tmp_path / "rep"
        code = main(["analyze", str(synth_dir / "edges.txt"), "--damping", "0.85",
                     "--snapshots", "1", "--output-dir", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["pagerank"]["0.85"]["converged"]
        assert (out / "ccdf_indegree.csv").exists()
        assert (out / "ccdf_pagerank_c0.85.csv").exists()

    def test_config_file_defaults_and_flag_precedence(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"damping": [0.5], "max_iters": 150}))
        out = tmp_path / "rep2"
        code = main(["analyze", str(synth_dir / "edges.txt"),
                     "--config", str(cfg), "--output-dir", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert list(report["pagerank"]) == ["0.5"]  # config used
        out2 = tmp_path / "rep3"
        code = main(["analyze", str(synth_dir / "edges.txt"),
                     "--config", str(cfg), "--damping", "0.2",
                     "--output-dir", str(out2)])
        assert code == 0
        report2 = json.loads((out2 / "report.json").read_text())
        assert list(report2["pagerank"]) == ["0.2"]  # flag wins

    def test_empty_dampings_via_config(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"damping": []}))
        out = tmp_path / "rep"
        code = main(["analyze", str(synth_dir / "edges.txt"),
                     "--config", str(cfg), "--output-dir", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pagerank"] == {}
        assert report["indegree_fit"] is not None

    def test_density_exponent_rejected(self, synth_dir, tmp_path):
        code = main(["analyze", str(synth_dir / "edges.txt"), "--alpha", "3.2",
                     "--output-dir", str(tmp_path / "x")])
        assert code == 2

    def test_bad_alpha_fails_before_the_graph_is_read(self, tmp_path, capsys):
        # a missing graph would exit 3: the options are checked first
        assert main(["analyze", str(tmp_path / "missing.txt"), "--alpha", "5"]) == 2
        assert "density" in capsys.readouterr().err

    @pytest.mark.parametrize("xmin", ["-1", "0", "nan", "inf"])
    def test_bad_xmin_fails_before_the_graph_is_read(self, tmp_path, capsys, xmin):
        # a missing graph would exit 3: the options are checked first
        assert main(["analyze", str(tmp_path / "missing.txt"), f"--xmin={xmin}"]) == 2
        assert "xmin must be a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [{"alpha": "2.0"}, {"xmin": "1"}, {"damping": 0.5},
                                        {"max_iters": 100.5}])
    def test_mistyped_config_value_is_usage_error(self, star_file, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["analyze", str(star_file), "--config", str(cfg),
                     "--output-dir", str(tmp_path / "x")]) == 2
        assert f"config key {next(iter(config))!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "pagerank"])
def test_repeated_damping_is_usage_error(tmp_path, capsys, command):
    graph, out = tmp_path / "g.txt", tmp_path / "o"
    graph.write_text("0 1\n0 2\n1 2\n2 0\n3 2\n3 1\n4 2\n")
    assert main([command, str(graph), "--damping", "0.85", "--damping", "0.5",
                 "--damping", "0.85", "--output-dir", str(out)]) == 2
    assert "distinct" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "pagerank"])
def test_repeated_damping_refused_before_the_graph_is_read(tmp_path, capsys, command):
    # the edge list does not exist, so reading it first would exit 3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"damping": [0.5, 0.5]}))
    for flags in (["--damping", "0.5", "--damping", "0.5"], ["--config", str(cfg)]):
        assert main([command, str(tmp_path / "missing.txt"), *flags]) == 2
        assert "dampings must be distinct, got [0.5, 0.5]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "pagerank"])
@pytest.mark.parametrize("flags, message", [
    (["--tol", "0"], "tol must be positive"),
    (["--tol", "nan"], "tol must be positive"),
    (["--damping", "1.5"], "damping factor must be in (0, 1)"),
    (["--max-iters", "0"], "max_iters must be >= 1"),
    (["--snapshots", "0"], "snapshot iterations must lie in [1, max_iters = 200]"),
    (["--snapshots", "1", "500"], "snapshot iterations must lie in [1, max_iters = 200]"),
    (["--max-iters", "5", "--snapshots", "6"], "[1, max_iters = 5], got [6]"),
], ids=["tol", "tol-nan", "damping", "max-iters", "snapshot-0", "snapshot-500",
        "snapshot-beyond-cap"])
def test_bad_pagerank_options_refused_before_the_graph_is_read(tmp_path, capsys, command,
                                                               flags, message):
    # the edge list does not exist, so reading it first would exit 3
    assert main([command, str(tmp_path / "missing.txt"), *flags]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "pagerank"])
def test_infinite_tol_refused_before_the_graph_is_read(tmp_path, capsys, command):
    # an infinite tol stopped every damping after one step, reported as converged
    assert main([command, str(tmp_path / "missing.txt"), "--tol", "inf"]) == 2
    assert capsys.readouterr().err == "error: tol must be positive and finite, got inf\n"


class TestPredictCmd:
    def test_small_web_sample_golden(self, capsys):
        code = main(["predict", "--alpha", "1.1", "--d", "8.2032", "--p0", "0.006",
                     "--b", "0.8558", "--damping", "0.85", "--k-max", "2",
                     "--indegree-intercept", "0.08"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        table = out["coefficients"]["0.85"]
        assert math.log10(table["C_k"][0]) == pytest.approx(-1.08, abs=0.01)
        assert math.log10(table["C_k"][1]) == pytest.approx(-0.85, abs=0.01)
        assert math.log10(table["C_limit"]) == pytest.approx(-0.54, abs=0.01)
        lines = {(l["c"], l["k"]): l["intercept"] for l in out["predicted_lines"]}
        assert lines[(0.85, "limit")] == pytest.approx(-0.46, abs=0.01)

    def test_profile_input(self, star_file, tmp_path, capsys):
        prof = tmp_path / "profile.json"
        assert main(["stats", str(star_file), "--output", str(prof)]) == 0
        code = main(["predict", "--alpha", "1.5", "--profile", str(prof),
                     "--damping", "0.5", "--k-max", "1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        # all non-dangling nodes have out-degree 1, so b = 1 - p0
        assert out["coefficients"]["0.5"]["b"] == pytest.approx(0.8)

    def test_gzipped_profile_and_config(self, star_file, tmp_path, capsys):
        prof = tmp_path / "profile.json.gz"
        assert main(["stats", str(star_file), "--output", str(prof)]) == 0
        cfg = tmp_path / "cfg.json.gz"
        cfg.write_bytes(gzip.compress(json.dumps({"k_max": 1}).encode()))
        assert main(["predict", "--alpha", "1.5", "--profile", str(prof),
                     "--damping", "0.5", "--config", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["coefficients"]["0.5"]["b"] == pytest.approx(0.8)
        assert len(out["coefficients"]["0.5"]["C_k"]) == 1

    def test_repeated_damping_is_usage_error(self, capsys):
        # a repeated damping printed every predicted line twice
        assert main(["predict", "--alpha", "1.5", "--d", "8", "--b", "0.5",
                     "--damping", "0.85", "--damping", "0.85",
                     "--indegree-intercept", "0.3", "--k-max", "1"]) == 2
        assert capsys.readouterr() == ("", "error: dampings must be distinct, got [0.85, 0.85]\n")

    def test_missing_inputs_usage_error(self):
        assert main(["predict", "--alpha", "1.2", "--damping", "0.5"]) == 2

    def test_density_exponent_rejected(self, capsys):
        assert main(["predict", "--alpha", "5", "--d", "8", "--b", "0.5"]) == 2
        assert "density" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--d", "nan", "--b", "0.5"], "mean degree must be positive"),
        (["--d", "8", "--b", "nan"], "b must be non-negative"),
    ], ids=["d", "b"])
    def test_nan_parameter_is_usage_error(self, capsys, flags, message):
        assert main(["predict", "--alpha", "1.5", *flags]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--indegree-intercept", "nan", "in-degree intercept must be finite, got nan"),
        ("--indegree-intercept", "inf", "in-degree intercept must be finite, got inf"),
        ("--d", "inf", "mean degree must be positive and finite, got inf"),
        ("--d", "1e-320", "limit coefficient C = (c*(1-p0)/d)^alpha / (1 - c^alpha*b) is not "
                          "a positive finite float at c=0.85, p0=0.1, d=1e-320, alpha=1.5, b=0.5"),
        ("--d", "3e-206", "limit coefficient C = (c*(1-p0)/d)^alpha / (1 - c^alpha*b) is not "
                          "a positive finite float at c=0.85, p0=0.1, d=3e-206, alpha=1.5, b=0.5"),
        ("--d", "1e300", "limit coefficient C = (c*(1-p0)/d)^alpha / (1 - c^alpha*b) is not "
                         "a positive finite float at c=0.85, p0=0.1, d=1e+300, alpha=1.5, b=0.5"),
    ], ids=["intercept-nan", "intercept-inf", "d-inf", "d-tiny", "C-overflow", "C-underflow"])
    def test_non_finite_input_is_usage_error(self, capsys, flag, value, message):
        # a NaN or infinite intercept is not JSON, an infinite d read every
        # coefficient as 0, a tiny d overflows (c(1-p0)/d)^alpha, and at
        # d = 3e-206 that is a float, 1.3e308, but C = 1.64 times it is not;
        # at d = 1e300, (c(1-p0)/d)^alpha underflows to C = 0.0
        given = {"--d": "8", "--indegree-intercept": "-0.2", flag: value}
        assert main(["predict", "--alpha", "1.5", "--p0", "0.1", "--b", "0.5",
                     "--damping", "0.85", "--k-max", "2",
                     *[a for kv in given.items() for a in kv]]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_vanishing_damping_is_its_own_lower_bound(self, capsys):
        # c^alpha and d * c1 underflow to 0, so C = C_J = C_1 = 1e-290; the
        # constant-out-degree b, d^(1-alpha) = 1e380, is never formed
        assert main(["predict", "--alpha", "2.9", "--d", "1e-200", "--b", "0.5",
                     "--damping", "1e-300", "--k-max", "1"]) == 0
        table = json.loads(capsys.readouterr().out)["coefficients"]["1e-300"]
        assert table["C_lower_bound"] == table["C_limit"] == table["C_k"][0]
        assert table["C_limit"] == pytest.approx(1e-290, rel=1e-12)

    @pytest.mark.parametrize("k_max", ["0", "-3"])
    def test_nonpositive_k_max_is_usage_error(self, capsys, k_max):
        assert main(["predict", "--alpha", "1.5", "--d", "8", "--b", "0.5",
                     "--damping", "0.5", "--k-max", k_max]) == 2
        assert "k_max must be >= 1" in capsys.readouterr().err

    def test_k_max_above_the_ceiling_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k_max": 10_001}))
        for flags in (["--k-max", "10001"], ["--config", str(cfg)]):
            assert main(["predict", "--alpha", "1.5", "--d", "8", "--b", "0.5",
                         "--damping", "0.5", "--indegree-intercept", "-0.2", *flags]) == 2
            assert capsys.readouterr().err == (
                "error: k_max must be >= 1 and <= 10000, got 10001\n")

    def test_k_max_at_the_ceiling(self, capsys):
        assert main(["predict", "--alpha", "1.5", "--d", "8", "--b", "0.5",
                     "--damping", "0.5", "--k-max", "10000"]) == 0
        assert len(json.loads(capsys.readouterr().out)["coefficients"]["0.5"]["C_k"]) == 10_000


class TestSimulateCmd:
    def spec_file(self, tmp_path, **kw):
        spec = dict(c=0.5, alpha=2.5, d=2.5,
                    outdeg_hist={"0": 0.2, "1": 0.3, "2": 0.2, "4": 0.2, "10": 0.1},
                    pool_size=20_000, seed=1)
        spec.update(kw)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_degenerate_zero_damping(self, tmp_path):
        path = self.spec_file(tmp_path, c=0.0)
        out = tmp_path / "sim"
        with pytest.warns(UserWarning, match="degenerate CCDF"):  # every sample is 1.0
            assert main(["simulate", str(path), "--iters", "2",
                         "--output-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["degenerate"] is True
        assert summary["pool_mean"] == 1.0
        assert (out / "pool_ccdf.csv").exists()

    @pytest.mark.parametrize("alpha", [2.5, 1.5])
    def test_fixed_iterations_summary(self, tmp_path, alpha):
        path = self.spec_file(tmp_path, alpha=alpha)
        out = tmp_path / "sim"
        assert main(["simulate", str(path), "--iters", "3",
                     "--output-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["generations"] == 3
        invariants = summary["invariants"]
        assert invariants["values_at_least_baseline"] is True
        # the 5/sqrt(M) band on the pool mean is a CLT statement, which needs
        # a finite variance (alpha > 2); below that the flag is null
        if alpha > 2.0:
            assert isinstance(invariants["mean_within_5_over_sqrt_M"], bool)
        else:
            assert invariants["mean_within_5_over_sqrt_M"] is None
        assert "tail_ratios" in summary

    def test_gzipped_spec(self, tmp_path):
        spec = self.spec_file(tmp_path).read_bytes()
        path = tmp_path / "spec.json.gz"
        path.write_bytes(gzip.compress(spec))
        out = tmp_path / "sim"
        assert main(["simulate", str(path), "--iters", "2", "--output-dir", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["generations"] == 2

    def test_truncated_gzipped_spec_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "spec.json.gz"
        path.write_bytes(damaged_gzip(self.spec_file(tmp_path).read_bytes(), "truncated"))
        assert main(["simulate", str(path), "--output-dir", str(tmp_path / "sim")]) == 3
        assert_single_error_line(capsys.readouterr().err)

    def test_malformed_json_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        assert main(["simulate", str(path)]) == 3

    def test_invalid_spec_lists_fields(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"c": 0.5, "d": 2.5}))
        assert main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "alpha" in err and "outdeg_hist" in err

    def test_nonconvergence_exit_code(self, tmp_path):
        path = self.spec_file(tmp_path, c=0.999, outdeg_hist={"1": 0.5, "4": 0.5},
                              pool_size=10_000)
        assert main(["simulate", str(path), "--iters", "converged",
                     "--output-dir", str(tmp_path / "x")]) == 4

    @pytest.mark.parametrize("flags, config, seed", [
        ([], {"seed": 7}, 7),
        (["--seed", "3"], {"seed": 7}, 3),
        ([], {}, 1),
    ])
    def test_seed_flag_over_config_over_spec(self, tmp_path, flags, config, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "sim"
        assert main(["simulate", str(self.spec_file(tmp_path)), "--iters", "1",
                     "--config", str(cfg), "--output-dir", str(out), *flags]) == 0
        assert json.loads((out / "summary.json").read_text())["spec"]["seed"] == seed

    @pytest.mark.parametrize("flags, config, spec_seed", [
        (["--seed", "-1"], {}, 1),
        ([], {"seed": -1}, 1),
        ([], {}, -1),
    ], ids=["flag", "config", "spec"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, flags, config, spec_seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "sim"
        assert main(["simulate", str(self.spec_file(tmp_path, seed=spec_seed)), "--iters", "1",
                     "--config", str(cfg), "--output-dir", str(out), *flags]) == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", ["2.5", "true", "0"])
    def test_iters_flag_other_than_a_count_is_usage_error(self, tmp_path, capsys, text):
        out = tmp_path / "sim"
        assert main(["simulate", str(self.spec_file(tmp_path)), "--iters", text,
                     "--output-dir", str(out)]) == 2
        assert ("error: argument --iters: expected 'converged' or a positive integer, "
                f"got '{text}'\n") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [2.5, True, 0, "2.0"])
    def test_iters_config_other_than_a_count_is_usage_error(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iters": value}))
        out = tmp_path / "sim"
        assert main(["simulate", str(self.spec_file(tmp_path)), "--config", str(cfg),
                     "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: config key 'iters': expected 'converged' or a positive integer, "
            f"got {value!r}\n")
        assert not out.exists()

    def test_integral_iters_config_reads_as_a_count(self, tmp_path):
        # an int option takes an integral JSON number, as max_iters does
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iters": 2.0}))
        out = tmp_path / "sim"
        assert main(["simulate", str(self.spec_file(tmp_path)), "--config", str(cfg),
                     "--output-dir", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["generations"] == 2

    def test_default_iters_converge(self, tmp_path):
        # c*(1-p0) = 0.4: 2 * 0.4^9 = 5.2e-4 <= 1e-3 after 9 generations
        out = tmp_path / "sim"
        assert main(["simulate", str(self.spec_file(tmp_path)),
                     "--output-dir", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["generations"] == 9


class TestGenerateCmd:
    def test_sidecar_and_reload(self, synth_dir):
        sidecar = json.loads((synth_dir / "synth.json").read_text())
        assert sidecar["spec"]["n"] == 5000
        realized = sidecar["realized_profile"]
        assert realized["n"] == 5000
        code = main(["stats", str(synth_dir / "edges.txt")])
        assert code == 0

    @pytest.mark.parametrize("flag, message", [
        ("--alpha", "tail index alpha must exceed 1"),
        ("--mean-degree", "mean degree must be positive"),
    ])
    def test_nan_law_parameter_is_usage_error(self, tmp_path, capsys, flag, message):
        law = {"--alpha": "1.5", "--mean-degree": "1", flag: "nan"}
        assert main(["generate", "--nodes", "1000", *[a for kv in law.items() for a in kv],
                     "--outdeg-hist", '{"1": 1.0}', "--output-dir", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag, message", [
        ("--alpha", "tail index alpha must exceed 1 (finite mean in-degree) and be finite, "
                    "got inf"),
        ("--mean-degree", "mean degree must be positive and finite, got inf"),
    ], ids=["alpha", "mean-degree"])
    def test_infinite_law_parameter_is_usage_error(self, tmp_path, capsys, flag, message):
        law = {"--alpha": "1.5", "--mean-degree": "1", flag: "inf"}
        assert main(["generate", "--nodes", "1000", *[a for kv in law.items() for a in kv],
                     "--outdeg-hist", '{"1": 1.0}', "--output-dir", str(tmp_path / "g")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "g").exists()

    def test_mismatched_mean_refused_as_simulate_refuses_it(self, tmp_path, capsys):
        # one histogram rule: the mean must be d within 1e-9 relative
        hist = {"0": 0.5, "2": 0.3, "5": 0.2}
        assert main(["generate", "--nodes", "3000", "--alpha", "1.5", "--mean-degree", "3",
                     "--outdeg-hist", json.dumps(hist),
                     "--output-dir", str(tmp_path / "g")]) == 2
        generate_err = capsys.readouterr().err
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"c": 0.5, "alpha": 1.5, "d": 3.0, "outdeg_hist": hist,
                                    "pool_size": 10_000}))
        assert main(["simulate", str(spec), "--output-dir", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err == generate_err == (
            "error: histogram mean degree 1.6 differs from d=3.0\n")
        assert not (tmp_path / "g").exists() and not (tmp_path / "s").exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        # refused by name when the spec is built, not by numpy when it draws
        assert main(GENERATE_1K + ["--outdeg-hist", '{"1": 1.0}', "--seed", "-3",
                                   "--output-dir", str(tmp_path / "g")]) == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -3\n"
        assert not (tmp_path / "g").exists()

    def test_fixed_indegree_flag_is_gone(self, tmp_path):
        assert main(["generate", "--nodes", "1000", "--alpha", "1.5", "--mean-degree", "1",
                     "--outdeg-hist", '{"1": 1.0}', "--fixed-indegree", "1",
                     "--output-dir", str(tmp_path)]) == 2

    def test_histogram_from_gzipped_file(self, tmp_path):
        hist = tmp_path / "hist.json.gz"
        hist.write_bytes(gzip.compress(json.dumps({"0": 0.2, "2": 0.8}).encode()))
        out = tmp_path / "g"
        assert main(["generate", "--nodes", "1000", "--alpha", "1.5", "--mean-degree", "1.6",
                     "--outdeg-hist", f"@{hist}", "--gzip", "--output-dir", str(out)]) == 0
        sidecar = json.loads((out / "synth.json").read_text())
        assert sidecar["spec"]["outdeg_hist"] == {"0": 0.2, "2": 0.8}
        assert main(["stats", str(out / "edges.txt.gz")]) == 0

    def test_gzip_output_is_byte_deterministic(self, tmp_path, monkeypatch):
        # two runs a clock apart: the gzip header keeps mtime 0 (bytes 4-7),
        # so the files are equal byte for byte
        outputs = []
        for run, clock in enumerate((1e9, 2e9)):
            monkeypatch.setattr(time, "time", lambda: clock)
            out = tmp_path / f"run{run}"
            assert main(GENERATE_1K + ["--outdeg-hist", '{"1": 1.0}', "--seed", "2",
                                       "--gzip", "--output-dir", str(out)]) == 0
            outputs.append((out / "edges.txt.gz").read_bytes())
        assert outputs[0][:2] == b"\x1f\x8b"
        assert outputs[0][4:8] == bytes(4)
        assert outputs[0] == outputs[1]


PROFILE = {"n": 4, "m": 4, "d": 1.0, "p0": 0.2, "p_hist": {"0": 0.2, "1": 0.6, "2": 0.2}}
SPEC = {"c": 0.5, "alpha": 2.5, "d": 2.5, "pool_size": 10_000,
        "outdeg_hist": {"0": 0.2, "1": 0.3, "2": 0.2, "4": 0.2, "10": 0.1}}
GENERATE = ["generate", "--nodes", "100", "--alpha", "1.5", "--mean-degree", "1"]
GENERATE_1K = ["generate", "--nodes", "1000", "--alpha", "1.5", "--mean-degree", "1"]


@pytest.mark.parametrize("command, document", [
    (["predict", "--alpha", "1.5", "--profile"], {}),
    (["predict", "--alpha", "1.5", "--profile"], []),
    (["predict", "--alpha", "1.5", "--profile"], {**PROFILE, "n": None}),
    (["simulate"], {**SPEC, "outdeg_hist": [1]}),
    (["simulate"], {**SPEC, "c": None}),
    (["simulate"], {**SPEC, "outdeg_hist": {"1": None}}),
    ([*GENERATE, "--outdeg-hist"], [1]),
    ([*GENERATE, "--outdeg-hist"], {"1": None}),
    # a number is an int or float that is not a bool, and finite where an int belongs
    ([*GENERATE_1K, "--outdeg-hist"], {"0": False, "1": True}),
    ([*GENERATE_1K, "--outdeg-hist"], {"0": "0", "1": "1"}),
    (["simulate"], {**SPEC, "pool_size": "10000"}),
    (["simulate"], {**SPEC, "alpha": "2.5"}),
    (["simulate"], {**SPEC, "pool_size": float("inf")}),
    (["predict", "--alpha", "1.5", "--profile"], {**PROFILE, "n": "4"}),
    (["predict", "--alpha", "1.5", "--profile"], {**PROFILE, "d": True}),
    (["pagerank", "missing.txt", "--config"], {"max_iters": float("inf")}),
    # an int field takes an integral number (1e6 is one) and refuses a fraction
    (["simulate"], {**SPEC, "pool_size": 10000.9}),
    (["predict", "--alpha", "1.5", "--profile"], {**PROFILE, "n": 4.5}),
    (["pagerank", "missing.txt", "--config"], {"max_iters": 100.5}),
    # a histogram key is a canonical decimal degree
    ([*GENERATE, "--outdeg-hist"], {"1_0": 1.0}),
    ([*GENERATE, "--outdeg-hist"], {"4": 0.5, "04": 0.5}),
    (["simulate"], {**SPEC, "outdeg_hist": {"0": 0.5, "+2": 0.5}}),
    (["predict", "--alpha", "1.5", "--profile"],
     {**PROFILE, "p_hist": {"0": 0.2, " 1": 0.6, "2": 0.2}}),
], ids=["profile-empty", "profile-list", "profile-null-n", "spec-hist-list",
        "spec-null-c", "spec-null-fraction", "generate-hist-list",
        "generate-null-fraction", "generate-bool-fractions", "generate-string-fractions",
        "spec-string-pool-size", "spec-string-alpha", "spec-infinite-pool-size",
        "profile-string-n", "profile-bool-d", "config-infinite-int",
        "spec-fractional-pool-size", "profile-fractional-n", "config-fractional-int",
        "generate-underscore-key", "generate-leading-zero-key", "spec-plus-sign-key",
        "profile-space-key"])
def test_malformed_json_input_is_usage_error(tmp_path, monkeypatch, capsys, command,
                                             document):
    monkeypatch.chdir(tmp_path)  # outputs, if any, land in tmp_path
    arg = json.dumps(document)
    if command[0] != "generate":
        (tmp_path / "input.json").write_text(arg)
        arg = "input.json"
    assert main([*command, arg]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("command, document, message", [
    (["simulate"], {**SPEC, "alpha": float("nan")},
     "model spec field 'alpha': expected float, got nan"),
    (["predict", "--alpha", "1.5", "--profile"], {**PROFILE, "d": float("inf")},
     "degree profile field 'd': expected float, got inf"),
    ([*GENERATE_1K, "--outdeg-hist"], {"0": float("nan"), "1": 1.0},
     "bad histogram entry '0': nan"),
    (["pagerank", "missing.txt", "--config"], {"tol": float("nan")},
     "config key 'tol': expected float, got nan"),
], ids=["spec", "profile", "outdeg-hist", "config"])
def test_non_finite_json_number_is_usage_error(tmp_path, monkeypatch, capsys, command,
                                               document, message):
    # Python's json reads NaN and Infinity; every JSON input refuses them
    monkeypatch.chdir(tmp_path)
    arg = json.dumps(document)
    if command[0] != "generate":
        (tmp_path / "input.json").write_text(arg)
        arg = "input.json"
    assert main([*command, arg]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_every_json_document_is_canonical(tmp_path, capsys):
    # sorted keys at every level, a two-space indent and a final newline
    def canonical(text):
        return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    hist = '{"0": 0.1, "4": 0.68, "24": 0.22}'
    assert main(["generate", "--nodes", "3000", "--alpha", "1.5", "--mean-degree", "8",
                 "--outdeg-hist", hist, "--seed", "1", "--output-dir", str(tmp_path)]) == 0
    edges = str(tmp_path / "edges.txt")
    assert main(["analyze", edges, "--damping", "0.5", "--damping", "0.85", "--snapshots", "1",
                 "--output-dir", str(tmp_path / "report")]) == 0
    texts = {name: (tmp_path / name).read_text() for name in ("synth.json", "report/report.json")}
    for suffix in ("", ".gz"):
        stats, predict = tmp_path / f"stats.json{suffix}", tmp_path / f"predict.json{suffix}"
        assert main(["stats", edges, "--output", str(stats)]) == 0
        assert main(["predict", "--alpha", "1.5", "--profile", str(stats), "--damping", "0.5",
                     "--indegree-intercept", "-0.2", "--output", str(predict)]) == 0
        for path in (stats, predict):
            data = path.read_bytes()
            texts[path.name] = (gzip.decompress(data) if suffix else data).decode()
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"c": 0.5, "alpha": 2.5, "d": 2.5, "pool_size": 10_000, "seed": 1,
                                "outdeg_hist": {"0": 0.2, "1": 0.3, "2": 0.2, "4": 0.2,
                                                "10": 0.1}}))
    capsys.readouterr()
    assert main(["simulate", str(spec), "--iters", "2", "--output-dir", str(tmp_path / "sim")]) == 0
    texts["stdout"] = capsys.readouterr().out
    texts["summary.json"] = (tmp_path / "sim" / "summary.json").read_text()
    assert len(texts) == 8
    for name, text in texts.items():
        assert text == canonical(text), name


# the positional arguments and required flags each subcommand is parsed with
REQUIRED = {
    "stats": ["g.txt"], "pagerank": ["g.txt"], "analyze": ["g.txt"], "predict": [],
    "simulate": ["spec.json"],
    "generate": ["--nodes", "1000", "--alpha", "1.5", "--mean-degree", "1",
                 "--outdeg-hist", "{}"],
}

# each _OPTIONS key: its flags, the same value as JSON, and its resolved default
OPTION_VALUES = {
    "damping": (["--damping", "0.5", "--damping", "0.2"], [0.5, 0.2], [0.85]),
    "tol": (["--tol", "1e-06"], 1e-06, 1e-10),
    "max_iters": (["--max-iters", "7"], 7, 200),
    "snapshots": (["--snapshots", "1", "3"], [1, 3], []),
    "xmin": (["--xmin", "2.5"], 2.5, None),
    "alpha": (["--alpha", "1.5"], 1.5, None),
    "seed": (["--seed", "3"], 3, None),
    "output_dir": (["--output-dir", "out"], "out", "."),
    "iters": (["--iters", "4"], 4, "converged"),
    "k_max": (["--k-max", "5"], 5, None),
    "drop_self_loops": (["--drop-self-loops"], True, False),
}


def by_dest(*options, **renamed):
    """{dest: option string}, each dest read off its option as argparse does."""
    return {**{o.lstrip("-").replace("-", "_"): o for o in options}, **renamed}


PAGERANK_OPTIONS = ("graph", "--drop-self-loops", "--damping", "--tol", "--max-iters",
                    "--snapshots", "--output-dir", "--config")
OPTION_STRINGS = {
    "stats": by_dest("graph", "--drop-self-loops", "--output", "--config"),
    "pagerank": by_dest(*PAGERANK_OPTIONS),
    "analyze": by_dest(*PAGERANK_OPTIONS, "--xmin", "--alpha"),
    "predict": by_dest("--damping", "--alpha", "--k-max", "--profile", "--d", "--p0", "--b",
                       "--indegree-intercept", "--output", "--config"),
    "simulate": by_dest("spec", "--iters", "--seed", "--output-dir", "--config"),
    "generate": by_dest("--nodes", "--mean-degree", "--outdeg-hist", "--seed", "--gzip",
                        "--output-dir", "--config", alpha_gen="--alpha"),
}


def resolved(argv):
    """The parsed and resolved options of argv, less --config, in a form that
    tells 7 from 7.0 and "4" from 4."""
    args = build_parser().parse_args(argv)
    _resolve_options(args)
    return repr(sorted((k, v) for k, v in vars(args).items() if k != "config"))


def test_option_values_cover_the_table():
    assert set(OPTION_VALUES) == set(_OPTIONS)


@pytest.mark.parametrize("key", list(OPTION_VALUES))
@pytest.mark.parametrize("command", list(REQUIRED))
def test_option_set_by_flag_or_config_reads_the_same(tmp_path, command, key):
    flags, value, _ = OPTION_VALUES[key]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    by_config = resolved([command, *REQUIRED[command], "--config", str(cfg)])
    if key in OPTION_STRINGS[command]:
        assert resolved([command, *REQUIRED[command], *flags]) == by_config
    else:  # the key is ignored: the options read as with no config at all
        assert resolved([command, *REQUIRED[command]]) == by_config


@pytest.mark.parametrize("command", list(REQUIRED))
def test_each_subcommand_keeps_its_option_strings_and_defaults(command):
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    actions = [a for a in subparsers.choices[command]._actions if a.dest != "help"]
    assert {a.dest: "/".join(a.option_strings) or a.dest for a in actions} == (
        OPTION_STRINGS[command])
    args = build_parser().parse_args([command, *REQUIRED[command]])
    _resolve_options(args)
    defaults = {key: default for key, (_, _, default) in OPTION_VALUES.items()
                if key in OPTION_STRINGS[command]}
    assert {key: getattr(args, key) for key in defaults} == defaults


# Freeing a mapped 16 MiB array raises glibc's mapping threshold to its size,
# so the 8 MiB arrays after it come from the heap; freeing every other one
# leaves holes between live arrays, which the heap cannot shrink away.
HEAP_SCRIPT = """
import ctypes, sys
import numpy as np
from ranktail.cli import main
try:
    ctypes.CDLL(None).malloc_trim
except AttributeError:
    sys.exit(77)

def rss_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))

np.ones(1 << 21)
blocks = [np.ones(1 << 20) for _ in range(8)]
del blocks[::2]
before = rss_kb()
assert main(["predict", "--alpha", "1.5", "--d", "8", "--b", "0.5", "--k-max", "2"]) == 0
print(before - rss_kb())
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS")
def test_main_hands_freed_heap_back():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", HEAP_SCRIPT],
                         capture_output=True, text=True, env=env)
    if run.returncode == 77:
        pytest.skip("no glibc malloc_trim")
    assert run.returncode == 0, run.stderr
    assert int(run.stdout.split()[-1]) > 24 * 1024  # of the 32 MiB freed
