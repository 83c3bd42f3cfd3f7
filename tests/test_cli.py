"""Command-line interface: methods, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import zest
from zest.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def run_json(runner, args, **kwargs):
    result = runner.invoke(main, args, **kwargs)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestGenerate:
    def test_smc_awrs_reversal_fixture(self, runner):
        out = run_json(
            runner,
            ["generate", "--model", "example-a1", "--language", "{aa,ba}",
             "--method", "smc-awrs", "--n", "1500", "--seed", "7"],
        )
        assert set(out["posterior_estimate"]) == {"aa", "ba"}
        assert abs(out["posterior_estimate"]["ba"] - 0.917) < 0.05
        assert out["eval_counts"] and out["wall_time"] > 0

    def test_builtin_language_name(self, runner):
        out = run_json(
            runner,
            ["generate", "--language", "example-a1", "--method", "is", "--n", "500", "--seed", "1"],
        )
        assert abs(out["g_hat"] - 0.108) < 0.02

    def test_raw_model_method(self, runner):
        out = run_json(runner, ["generate", "--method", "lm", "--n", "400", "--seed", "3"])
        assert out["g_hat"] == 1.0
        assert abs(sum(out["posterior_estimate"].values()) - 1.0) < 1e-9

    def test_top_p_truncates_the_model(self, runner):
        # At p = 0.5 the nucleus keeps only 'a' at the root, and only 'b' after it.
        out = run_json(runner, ["generate", "--method", "lm", "--top-p", "0.5", "--n", "200", "--seed", "3"])
        assert out["posterior_estimate"] == {"ab": pytest.approx(1.0)}

    def test_lcd_variants_agree(self, runner):
        a = run_json(
            runner,
            ["generate", "--language", "{aa,ba}", "--method", "lcd-ars", "--n", "2000", "--seed", "5"],
        )
        b = run_json(
            runner,
            ["generate", "--language", "{aa,ba}", "--method", "lcd-mask", "--n", "2000", "--seed", "6"],
        )
        keys = set(a["posterior_estimate"]) | set(b["posterior_estimate"])
        tv = 0.5 * sum(
            abs(a["posterior_estimate"].get(k, 0) - b["posterior_estimate"].get(k, 0)) for k in keys
        )
        assert tv < 0.05

    def test_twist_method(self, runner):
        out = run_json(
            runner,
            ["generate", "--language", "{aa,ba}", "--method", "smc-twist", "--n", "2000", "--seed", "8"],
        )
        assert abs(out["posterior_estimate"]["ba"] - 0.917) < 0.06

    def test_model_file_and_language_file(self, runner, tmp_path):
        from zest.toylm import random_lm

        lm = random_lm(2, alphabet_size=2, k=1, max_len=3)
        model_path = tmp_path / "m.json"
        model_path.write_text(lm.to_json(), encoding="utf-8")
        strings = [s for s, _ in sorted(lm.enumerate_support(), key=lambda sp: -sp[1])[:2]]
        lang_path = tmp_path / "lang.txt"
        lang_path.write_text("\n".join(strings) + "\n", encoding="utf-8")
        out = run_json(
            runner,
            ["generate", "--model", str(model_path), "--language-file", str(lang_path),
             "--method", "smc-awrs", "--n", "300", "--seed", "2"],
        )
        assert set(out["posterior_estimate"]) <= set(strings)

    def test_dfa_pattern_constraint(self, runner, tmp_path):
        doc = {
            "states": ["s0", "s1"],
            "alphabet": ["a", "b"],
            "transitions": {"s0": {"a": "s0", "b": "s1"}, "s1": {}},
            "accepting": ["s1"],
        }
        path = tmp_path / "dfa.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = run_json(
            runner,
            ["generate", "--pattern", str(path), "--method", "smc-awrs", "--n", "400", "--seed", "4"],
        )
        assert all(s.endswith("b") for s in out["posterior_estimate"])

    def test_sampler_variants_and_params(self, runner):
        out = run_json(
            runner,
            ["generate", "--language", "{aa,ba}", "--method", "smc-awrs", "--sampler", "cawrs",
             "--theta0", "0.4", "--theta1", "0.8", "--n", "300", "--seed", "9"],
        )
        assert set(out["posterior_estimate"]) <= {"aa", "ba"}

    def test_seed_determinism(self, runner):
        args = ["generate", "--language", "{aa,ba}", "--method", "smc-awrs", "--n", "300", "--seed", "11"]
        a, b = run_json(runner, args), run_json(runner, args)
        a.pop("wall_time"), b.pop("wall_time")
        assert a == b

    def test_smc_output_independent_of_hash_seed(self, tmp_path):
        # Many prefix groups per step: if grouping order followed string
        # hashes, the streams would land on different groups.
        from zest.toylm import random_lm

        lm = random_lm(5, alphabet_size=6, k=1, max_len=4)
        model_path = tmp_path / "m.json"
        model_path.write_text(lm.to_json(), encoding="utf-8")
        strings = [s for s, _ in sorted(lm.enumerate_support(), key=lambda sp: -sp[1])[:40]]
        lang_path = tmp_path / "lang.txt"
        lang_path.write_text("\n".join(strings) + "\n", encoding="utf-8")
        args = [sys.executable, "-m", "zest.cli", "generate", "--model", str(model_path),
                "--language-file", str(lang_path), "--method", "smc-awrs", "--n", "2000", "--seed", "12"]
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(Path(zest.__file__).parents[1]))
            proc = subprocess.run(args, env=env, capture_output=True, check=True, timeout=120)
            assert len(json.loads(proc.stdout)["posterior_estimate"]) > 1
            outputs.append([ln for ln in proc.stdout.splitlines() if b'"wall_time"' not in ln])
        assert outputs[0] == outputs[1]

    def test_output_file(self, runner, tmp_path):
        out_path = tmp_path / "res.json"
        result = runner.invoke(
            main,
            ["generate", "--language", "{aa,ba}", "--method", "is", "--n", "100",
             "--seed", "1", "--out", str(out_path)],
        )
        assert result.exit_code == 0
        assert json.loads(out_path.read_text())["n"] == 100

    def test_run_descriptor_config(self, runner, tmp_path):
        desc = {
            "model": "example-a1", "language": "{aa,ba}", "method": "smc-awrs",
            "N": 300, "tau": 0.5, "L": 1, "seed": 13, "max_steps": 16,
        }
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(desc), encoding="utf-8")
        out = run_json(runner, ["generate", "--config", str(cfg)])
        assert out["n"] == 300 and out["seed"] == 13
        # Explicit flags override descriptor values.
        out2 = run_json(runner, ["generate", "--config", str(cfg), "--seed", "14"])
        assert out2["seed"] == 14
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bogus_key": 1}), encoding="utf-8")
        assert runner.invoke(main, ["generate", "--config", str(bad)]).exit_code == 2

    def test_lcd_variants_exactness_at_scale(self, runner):
        # Both local-decoding paths sample the identical distribution:
        # total variation under 0.01 at 1e5 rollouts each.
        a = run_json(
            runner,
            ["generate", "--language", "{aa,ba}", "--method", "lcd-ars",
             "--n", "100000", "--seed", "21"],
        )
        b = run_json(
            runner,
            ["generate", "--language", "{aa,ba}", "--method", "lcd-mask",
             "--n", "100000", "--seed", "22"],
        )
        keys = set(a["posterior_estimate"]) | set(b["posterior_estimate"])
        tv = 0.5 * sum(
            abs(a["posterior_estimate"].get(k, 0) - b["posterior_estimate"].get(k, 0)) for k in keys
        )
        assert tv < 0.01


class TestExitCodes:
    def test_config_error_is_two(self, runner):
        result = runner.invoke(main, ["generate", "--method", "smc-awrs"])  # no constraint
        assert result.exit_code == 2
        result = runner.invoke(main, ["generate", "--method", "nope", "--language", "{aa}"])
        assert result.exit_code == 2
        result = runner.invoke(
            main,
            ["generate", "--language", "{aa}", "--method", "lcd-ars", "--theta0", "0.2"],
        )
        assert result.exit_code == 2
        result = runner.invoke(main, ["generate", "--model", "missing", "--method", "lm"])
        assert result.exit_code == 2
        result = runner.invoke(
            main, ["generate", "--language", "{az}", "--method", "is"]
        )  # symbol outside alphabet
        assert result.exit_code == 2

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize(
        "bad",
        [
            {"top_p": 0},
            {"extra_loops": 0, "sampler": "wrs"},
            {"budget": 0, "sampler": "cwrs"},
            {"theta0": 0.5, "theta1": 0.5, "sampler": "cawrs"},
            {"tau": 1.5},
            {"n": 0},
            {"n": 0, "method": "is"},
            {"max_steps": 0},
        ],
        ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_invalid_numeric_option_is_two(self, runner, tmp_path, bad, via):
        values = {"language": "{aa,ba}", "method": "smc-awrs", **bad}
        if via == "flag":
            args = [x for k, v in values.items() for x in (f"--{k.replace('_', '-')}", str(v))]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(values), encoding="utf-8")
            args = ["--config", str(cfg)]
        result = runner.invoke(main, ["generate", *args])
        assert result.exit_code == 2, result.output

    @pytest.mark.parametrize(
        "constraint",
        [
            ["--language-file", "BADSYM"],
            ["--pattern", '{"states": ["q0"]}'],
            ["--pattern", "{not json"],
            ["--pattern", "/nonexistent/dfa.json"],
            ["--pattern", json.dumps({"states": ["q0"], "alphabet": ["a", "b"],
                                      "transitions": {"q0": {"a": "q9"}}, "accepting": ["q0"]})],
        ],
        ids=["symbol-outside-alphabet", "missing-key", "bad-json", "missing-file", "undeclared-state"],
    )
    def test_malformed_constraint_is_two(self, runner, tmp_path, constraint):
        bad_symbols = tmp_path / "lang.txt"
        bad_symbols.write_text("aa\naz\n", encoding="utf-8")
        args = [str(bad_symbols) if x == "BADSYM" else x for x in constraint]
        result = runner.invoke(main, ["generate", "--method", "is", *args])
        assert result.exit_code == 2, result.output

    @pytest.mark.parametrize(
        "text",
        [
            '{"alphabet": ["a"]}',
            "{not json",
            json.dumps({"alphabet": ["a"], "k": 0, "max_len": 2, "tables": {"": [0.5, 0.25, 0.25]}}),
        ],
        ids=["missing-key", "bad-json", "wrong-width-row"],
    )
    def test_malformed_model_is_two(self, runner, tmp_path, text):
        model = tmp_path / "model.json"
        model.write_text(text, encoding="utf-8")
        result = runner.invoke(main, ["generate", "--model", str(model), "--language", "{a}", "--method", "is"])
        assert result.exit_code == 2, result.output
        assert "malformed model" in result.output

    def test_inference_failure_is_three(self, runner):
        # A language the model cannot produce: every rollout fails.
        result = runner.invoke(
            main,
            ["generate", "--language", "{a}", "--method", "sample-verify", "--n", "50", "--seed", "1"],
        )
        assert result.exit_code == 3
        payload = json.loads(result.output)
        assert payload["error"]["type"] == "AllDead"


class TestExperiments:
    def test_bias_writes_csv_and_metadata(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["experiment", "bias", "--vocab", "10", "--instances", "3",
             "--n-grid", "10,50", "--seed", "1", "--out-dir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        info = json.loads(result.output)
        csv_text = (tmp_path / "bias_v10_seed1.csv").read_text()
        assert csv_text.startswith("instance_id,sampler,Z,K,V,L,N,metric,value,ci_lo,ci_hi")
        meta = json.loads((tmp_path / "bias_v10_seed1.meta.json").read_text())
        assert meta["n_grid"] == [10, 50]
        assert info["rows"] > 0

    def test_repeat_run_byte_identical(self, runner, tmp_path):
        args = ["experiment", "heatmap", "--vocab", "5", "--runs-per-cell", "30",
                "--seed", "2", "--dense", "--out-dir", str(tmp_path)]
        runner.invoke(main, args)
        first = (tmp_path / "heatmap_dense_v5_seed2.csv").read_bytes()
        runner.invoke(main, args)
        assert (tmp_path / "heatmap_dense_v5_seed2.csv").read_bytes() == first

    def test_variance_smoke(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["experiment", "variance", "--vocab", "10", "--instances", "2", "--l-grid", "1,2",
             "--runs", "500", "--seed", "3", "--out-dir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output

    def test_env_var_out_dir(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("ZEST_OUT_DIR", str(tmp_path))
        result = runner.invoke(
            main,
            ["experiment", "bias", "--vocab", "8", "--instances", "2", "--n-grid", "10", "--seed", "4"],
        )
        assert result.exit_code == 0
        assert (tmp_path / "bias_v8_seed4.csv").exists()
