"""Command-line interface: methods, exit codes, reproducibility."""

import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import zest
from enumeration import likeliest, within_z
from zest import smc
from zest.cli import METHOD_OPTIONS, main

# A valid value of every option that some method does not read.
OPTION_VALUES = {
    "language": "{aa,ba}",
    "language_file": __file__,  # any existing file: the refusal comes before it is read
    "pattern": json.dumps({"states": ["q"], "alphabet": ["a", "b"],
                           "transitions": {"q": {"a": "q", "b": "q"}}, "accepting": ["q"]}),
    "tau": 0.5,
    "resample": "multinomial",
    "sampler": "awrs",
    "extra_loops": 1,
    "theta0": 0.25,
    "theta1": 0.75,
    "budget": 8,
}


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
        # On example-a1 a rollout's weight is 0.01 (first symbol a, chance
        # 0.9) or 0.99 (b, chance 0.1): g = 0.108 and the weight's SD is
        # 0.294, so at n = 5000 the check's 4.9 se is 0.020.
        n = 5000
        out = run_json(
            runner,
            ["generate", "--language", "example-a1", "--method", "is", "--n", str(n), "--seed", "1"],
        )
        sd = math.sqrt(0.9 * 0.01**2 + 0.1 * 0.99**2 - 0.108**2)
        assert within_z(out["g_hat"], 0.108, sd / math.sqrt(n))

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

    @pytest.mark.parametrize("method", ["lm", "sample-verify", "lcd-ars", "lcd-mask", "smc-awrs", "smc-twist"])
    def test_rollouts_reach_the_model_length(self, runner, tmp_path, method):
        # End-of-string has no mass before max_len = 70: every method runs
        # each rollout to the model's own length cap, 71 steps.
        model = tmp_path / "m.json"
        doc = {"alphabet": ["a"], "k": 0, "max_len": 70, "tables": {"": [1.0, 0.0]}}
        model.write_text(json.dumps(doc), encoding="utf-8")
        # lm reads no constraint.
        language = [] if method == "lm" else ["--language", "{" + "a" * 70 + "}"]
        out = run_json(
            runner,
            ["generate", "--model", str(model), *language, "--method", method, "--n", "50", "--seed", "1"],
        )
        assert out["posterior_estimate"] == {"a" * 70: pytest.approx(1.0)}
        assert out["g_hat"] == 1.0
        assert out["steps"] == 71

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
        strings = likeliest(lm, 2)
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
        strings = likeliest(lm, 40)
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
            "N": 300, "tau": 0.5, "sampler": "wrs", "L": 1, "seed": 13,
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

    @pytest.mark.parametrize(
        "desc, flags",
        [
            ({"method": "is", "language": "{aa,ba}", "N": 200, "seed": 3}, ["--n", "200"]),
            ({"method": "smc-awrs", "language": "{aa,ba}", "sampler": "wrs", "L": 2, "N": 200, "seed": 3},
             ["--sampler", "wrs", "-L", "2", "--n", "200"]),
            ({"method": "smc-awrs", "language": "{aa,ba}", "sampler": "cwrs", "R": 4, "n": 200, "seed": 3,
              "tau": None}, ["--sampler", "cwrs", "-R", "4", "--n", "200"]),
        ],
        ids=["N", "L", "R"],
    )
    def test_run_descriptor_matches_flags(self, runner, tmp_path, desc, flags):
        # The paper's short names N, L and R name the options --n, -L and -R.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(desc), encoding="utf-8")
        by_config = run_json(runner, ["generate", "--config", str(cfg)])
        by_flags = run_json(runner, ["generate", "--method", desc["method"], "--language", desc["language"],
                                     "--seed", "3", *flags])
        by_config.pop("wall_time"), by_flags.pop("wall_time")
        assert by_config == by_flags

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

    @pytest.mark.parametrize(
        "command",
        [["generate", "--method", "lm"], ["experiment", "bias"], ["experiment", "variance"], ["experiment", "heatmap"]],
        ids=" ".join,
    )
    def test_negative_seed_is_two(self, runner, command):
        # Refused by the option, which the message names, before any stream is made.
        result = runner.invoke(main, [*command, "--seed", "-1"])
        assert result.exit_code == 2 and "'--seed'" in result.output, result.output

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize(
        "bad",
        [
            {"top_p": 0},
            {"max_steps": 0},  # no longer an option at all, so refused whatever its value
            {"extra_loops": 0, "sampler": "wrs"},
            {"budget": 0, "sampler": "cwrs"},
            {"theta0": 0.5, "theta1": 0.5, "sampler": "cawrs"},
            {"tau": 1.5},
            {"n": 0},
            {"n": 0, "method": "is"},
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
        "method, option",
        [(m, o) for m, reads in METHOD_OPTIONS.items() for o in OPTION_VALUES if o not in reads],
        ids=lambda x: x,
    )
    def test_option_the_method_ignores_is_two(self, runner, tmp_path, method, option):
        # Every option a method does not read is refused, the constraint for
        # lm included. Even a valid value is refused, so a run descriptor
        # never names a setting the run did not use; null counts as absent.
        value = OPTION_VALUES[option]
        base = [] if method == "lm" else ["--language", "{aa,ba}"]
        flag = f"--{option.replace('_', '-')}"
        result = runner.invoke(main, ["generate", "--method", method, *base, flag, str(value)])
        assert result.exit_code == 2 and "does not read" in result.output, result.output
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({option: value}), encoding="utf-8")
        result = runner.invoke(main, ["generate", "--method", method, *base, "--config", str(cfg)])
        assert result.exit_code == 2 and "does not read" in result.output, result.output
        cfg.write_text(json.dumps({option: None}), encoding="utf-8")
        # smc-twist and sample-verify keep a particle with chance g = 0.108 on
        # {aa,ba}, so all n die (exit 3) with chance 0.892^n: 1e-10 at n = 200.
        assert run_json(runner, ["generate", "--method", method, *base, "--config", str(cfg), "--n", "200"])["n"] == 200

    @pytest.mark.parametrize("method", list(METHOD_OPTIONS))
    def test_max_steps_is_two(self, runner, tmp_path, method):
        # Every rollout runs until the model ends it, so no method takes a step cap.
        base = [] if method == "lm" else ["--language", "{aa,ba}"]
        result = runner.invoke(main, ["generate", "--method", method, *base, "--max-steps", "5"])
        assert result.exit_code == 2, result.output
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"max_steps": 5}), encoding="utf-8")
        result = runner.invoke(main, ["generate", "--method", method, *base, "--config", str(cfg)])
        assert result.exit_code == 2 and "max_steps" in result.output, result.output

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize(
        "sampler, knob",
        [(s, k) for s, kernel in smc._KERNELS.items() for k in ("extra_loops", "theta0", "theta1", "budget")
         if kernel is None or k not in inspect.signature(kernel).parameters],
        ids=lambda x: x,
    )
    def test_knob_the_sampler_ignores_is_two(self, runner, tmp_path, sampler, knob, via):
        values = {"language": "{aa,ba}", "method": "smc-awrs", "sampler": sampler, knob: OPTION_VALUES[knob]}
        if via == "flag":
            args = [x for k, v in values.items() for x in (f"--{k.replace('_', '-')}", str(v))]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(values), encoding="utf-8")
            args = ["--config", str(cfg)]
        result = runner.invoke(main, ["generate", *args])
        assert result.exit_code == 2 and "takes no" in result.output, result.output

    @pytest.mark.parametrize(
        "text", ["{not json", "[1, 2]", json.dumps({"config": "other.json", "method": "lm"})],
        ids=["bad-json", "not-an-object", "config-key"],
    )
    def test_malformed_run_descriptor_is_two(self, runner, tmp_path, text):
        cfg = tmp_path / "run.json"
        cfg.write_text(text, encoding="utf-8")
        result = runner.invoke(main, ["generate", "--config", str(cfg)])
        assert result.exit_code == 2 and "Error:" in result.output, result.output

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
        "text, message",
        [
            ('{"alphabet": ["a"]}', "malformed model"),
            ("{not json", "malformed model"),
            (json.dumps({"alphabet": ["a"], "k": 0, "max_len": 2, "tables": {"": [0.5, 0.25, 0.25]}}),
             "malformed model"),
            (json.dumps({"alphabet": ["a"], "k": 0, "max_len": -1, "tables": {"": [0.5, 0.5]}}), "malformed model"),
            # NaN passed the old row check: such a run printed "g_hat": NaN and exited 0.
            (json.dumps({"alphabet": ["a", "b"], "k": 0, "max_len": 2, "tables": {"": [math.nan, 0.5, 0.5]}}),
             "malformed model: table row for context ''"),
            (json.dumps({"alphabet": ["a", "b"], "k": 0, "max_len": 2, "tables": {"": [math.inf, 0.0, 0.0]}}),
             "malformed model: table row for context ''"),
            # A context the run reaches has no row: found at the first draw from it.
            (json.dumps({"alphabet": ["a", "b"], "k": 1, "max_len": 3, "tables": {"": [0.5, 0.4, 0.1]}}),
             "no table row for the context 'a'"),
        ],
        ids=["missing-key", "bad-json", "wrong-width-row", "negative-max-len", "nan-row", "inf-row", "missing-context"],
    )
    def test_malformed_model_is_two(self, runner, tmp_path, text, message):
        model = tmp_path / "model.json"
        model.write_text(text, encoding="utf-8")
        result = runner.invoke(main, ["generate", "--model", str(model), "--language", "{a}", "--method", "is"])
        assert result.exit_code == 2, result.output
        assert message in result.output

    @pytest.mark.parametrize("method", [m for m, options in METHOD_OPTIONS.items() if "pattern" in options])
    @pytest.mark.parametrize("alphabet", [["b", "a"], ["a"]], ids=["permuted", "short"])
    def test_pattern_over_another_alphabet_is_two(self, runner, method, alphabet):
        pattern = json.dumps({"states": ["q"], "alphabet": alphabet, "transitions": {"q": {"a": "q"}},
                              "accepting": ["q"]})
        result = runner.invoke(main, ["generate", "--method", method, "--pattern", pattern, "--n", "10"])
        assert result.exit_code == 2, result.output
        assert "is not the model's" in result.output

    @pytest.mark.parametrize(
        "method, error",
        [(["smc-awrs", "--sampler", "wrs"], "AllDead"), (["lcd-ars"], "DeadPrefix"), (["lcd-mask"], "DeadPrefix")],
        ids=["wrs", "lcd-ars", "lcd-mask"],
    )
    def test_zero_mass_prefix_is_three(self, runner, method, error):
        # After "a" the model gives end-of-string, the one valid token, no mass.
        # The with-replacement sampler must give up there instead of looping forever.
        result = runner.invoke(main, ["generate", "--language", "{a}", "--method", *method, "--n", "10"])
        assert result.exit_code == 3
        assert json.loads(result.output)["error"]["type"] == error

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

    @pytest.mark.parametrize(
        "args",
        [
            ["bias", "--vocab", "0"],
            ["variance", "--vocab", "0"],
            ["bias", "--n-grid", ","],
            ["bias", "--n-grid", "a,10"],
            ["variance", "--l-grid", "0"],
            ["heatmap", "--runs-per-cell", "0"],
            ["heatmap", "--vocab", "1"],
            ["bias", "--n-grid", "0"],
            ["bias", "--instances", "0"],
            ["variance", "--runs", "0"],
            ["heatmap", "--vocab", "0"],
            ["bias", "--workers", "0"],
            ["variance", "--workers", "-2"],
            ["heatmap", "--workers", "0"],
        ],
        ids=" ".join,
    )
    def test_bad_argument_is_two(self, tmp_path, args):
        # Refused before any job runs, with no traceback and no files. Each
        # case runs in a subprocess under a timeout, because vocab 0 once
        # made the instance draw loop forever.
        env = dict(os.environ, PYTHONPATH=str(Path(zest.__file__).parents[1]))
        cmd = [sys.executable, "-m", "zest.cli", "experiment", *args, "--out-dir", str(tmp_path / "out")]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "Error:" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
        assert not (tmp_path / "out").exists()
