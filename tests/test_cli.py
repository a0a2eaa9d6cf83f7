import gzip
import json
import math
import time

import pytest

from ranktail.cli import main


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

    def test_unknown_flag_is_usage_error(self, star_file):
        assert main(["stats", str(star_file), "--bogus"]) == 2

    def test_id_beyond_int64_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "big.txt"
        bad.write_text("0 1\n99999999999999999999 1\n")
        assert main(["stats", str(bad)]) == 3
        assert "line 2: node id out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["bad.txt", "bad.txt.gz"])
    def test_invalid_utf8_is_data_error(self, tmp_path, capsys, name):
        bad = tmp_path / name
        raw = b"0 1\r\n\xff 2\n"
        bad.write_bytes(gzip.compress(raw) if name.endswith(".gz") else raw)
        assert main(["stats", str(bad)]) == 3
        assert "'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err


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
    (["--damping", "1.5"], "damping factor must be in (0, 1)"),
    (["--max-iters", "0"], "max_iters must be >= 1"),
    (["--snapshots", "0"], "snapshot iterations must lie in [1, max_iters = 200]"),
    (["--snapshots", "1", "500"], "snapshot iterations must lie in [1, max_iters = 200]"),
    (["--max-iters", "5", "--snapshots", "6"], "[1, max_iters = 5], got [6]"),
], ids=["tol", "damping", "max-iters", "snapshot-0", "snapshot-500", "snapshot-beyond-cap"])
def test_bad_pagerank_options_refused_before_the_graph_is_read(tmp_path, capsys, command,
                                                               flags, message):
    # the edge list does not exist, so reading it first would exit 3
    assert main([command, str(tmp_path / "missing.txt"), *flags]) == 2
    assert message in capsys.readouterr().err


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

    def test_missing_inputs_usage_error(self):
        assert main(["predict", "--alpha", "1.2", "--damping", "0.5"]) == 2

    def test_density_exponent_rejected(self, capsys):
        assert main(["predict", "--alpha", "5", "--d", "8", "--b", "0.5"]) == 2
        assert "density" in capsys.readouterr().err

    @pytest.mark.parametrize("k_max", ["0", "-3"])
    def test_nonpositive_k_max_is_usage_error(self, capsys, k_max):
        assert main(["predict", "--alpha", "1.5", "--d", "8", "--b", "0.5",
                     "--damping", "0.5", "--k-max", k_max]) == 2
        assert "k_max must be >= 1" in capsys.readouterr().err


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
