"""Command-line surface: generation runs and experiment sweeps.

Structured results go to stdout as JSON (or to --out); sweeps write CSV
plus a metadata JSON next to it. Exit codes: 0 success, 2 configuration
error, 3 inference failure (reported as machine-readable error JSON).
All randomness flows from the single --seed flag.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import click

from . import simharness, smc
from .constraints import DfaPattern, TrieLanguage
from .dist import Categorical
from .errors import ZestError
from .rng import make_rng
from .samplers import SamplerConfig, top_p_compose
from .toylm import BUILTIN_MODELS, ToyLM, builtin_model

METHODS = ("lm", "lcd-mask", "lcd-ars", "sample-verify", "smc-twist", "smc-awrs", "is")
SAMPLERS = ("awrs", "wrs", "cawrs", "cwrs", "gawrs", "rawrs", "exact")

BUILTIN_LANGUAGES = {
    "example-a1": ("aa", "ba"),
}


def _fail_config(msg: str):
    raise click.UsageError(msg)


def _load_model(source: str) -> ToyLM:
    if source in BUILTIN_MODELS:
        return builtin_model(source)
    if Path(source).exists():
        try:
            return ToyLM.from_json(source)
        except (ValueError, TypeError, OSError) as e:
            # ValueError: bad JSON, a missing key or a bad table row; TypeError: a field of the wrong type.
            _fail_config(f"malformed model: {e}")
    _fail_config(f"unknown model {source!r}: not a builtin name or a readable JSON file")


def _load_language(lm: ToyLM, language, language_file, pattern):
    given = [x for x in (language, language_file, pattern) if x]
    if len(given) > 1:
        _fail_config("give at most one of --language / --language-file / --pattern")
    if language is not None:
        if language in BUILTIN_LANGUAGES:
            strings = BUILTIN_LANGUAGES[language]
        elif language.startswith("{") and language.endswith("}"):
            body = language[1:-1].strip()
            strings = tuple(s.strip() for s in body.split(",") if s.strip() != "") if body else ()
        else:
            _fail_config("--language expects '{s1,s2,...}' or a builtin name")
    try:
        if language is not None:
            return TrieLanguage(strings, alphabet=lm.alphabet)
        if language_file is not None:
            return TrieLanguage.from_file(language_file, alphabet=lm.alphabet)
        if pattern is None:
            return None
        dfa = DfaPattern.from_json(pattern)
    except (ValueError, TypeError, OSError) as e:
        # ValueError: bad symbol, state or JSON; TypeError: a JSON field of the wrong type.
        _fail_config(f"malformed constraint: {e}")
    if dfa.alphabet != lm.alphabet:
        _fail_config("pattern alphabet does not match the model alphabet")
    return dfa


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        click.echo(text)


def _out_dir(explicit: str | None) -> Path:
    d = Path(explicit or os.environ.get("ZEST_OUT_DIR", "."))
    d.mkdir(parents=True, exist_ok=True)
    return d


@click.group()
def main():
    """Constrained sampling runs and simulation sweeps."""


# Run-descriptor keys accepted by --config; command-line flags that were
# given explicitly take precedence over the file.
_CONFIG_KEYS = {
    "model": "model", "language": "language", "language_file": "language_file",
    "pattern": "pattern", "method": "method", "sampler": "sampler",
    "N": "n", "n": "n", "tau": "tau", "L": "extra_loops", "extra_loops": "extra_loops",
    "theta0": "theta0", "theta1": "theta1", "R": "budget", "budget": "budget",
    "top_p": "top_p", "max_steps": "max_steps", "resample": "resample",
    "seed": "seed", "out": "out",
}


def _apply_config(ctx, path, values: dict) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    unknown = set(doc) - set(_CONFIG_KEYS)
    if unknown:
        _fail_config(f"unknown run-descriptor keys {sorted(unknown)}")
    params = {p.name: p for p in ctx.command.params}
    for key, value in doc.items():
        dest = _CONFIG_KEYS[key]
        if ctx.get_parameter_source(dest) == click.core.ParameterSource.DEFAULT:
            # The flag's own type converts and range-checks the file value.
            values[dest] = params[dest].type_cast_value(ctx, value)
    return values


@main.command()
@click.option("--config", default=None, type=click.Path(exists=True),
              help="Run-descriptor JSON; explicit flags win over it.")
@click.option("--model", default="example-a1", show_default=True, help="Builtin model name or ToyLM JSON path.")
@click.option("--language", default=None, help="Inline '{s1,s2,...}' language or builtin name.")
@click.option("--language-file", default=None, type=click.Path(exists=True), help="Newline-delimited strings file.")
@click.option("--pattern", default=None, help="Automaton JSON (path or inline) as the constraint.")
@click.option("--method", type=click.Choice(METHODS), default=None)
@click.option("--sampler", type=click.Choice(SAMPLERS), default="awrs", show_default=True,
              help="Weighted proposal used by smc-awrs.")
@click.option("--n", default=100, show_default=True, type=click.IntRange(min=1), help="Particles or rollouts.")
@click.option("--tau", default=0.5, show_default=True, type=click.FloatRange(0.0, 1.0),
              help="Resampling trigger fraction of N.")
@click.option("--extra-loops", "-L", "extra_loops", default=1, show_default=True, type=click.IntRange(min=1))
@click.option("--theta0", default=None, type=click.FloatRange(0.0, 1.0, min_open=True, max_open=True))
@click.option("--theta1", default=None, type=click.FloatRange(0.0, 1.0, min_open=True, max_open=True))
@click.option("--budget", "-R", default=None, type=click.IntRange(min=1))
@click.option("--top-p", default=None, type=click.FloatRange(0.0, 1.0, min_open=True))
@click.option("--max-steps", default=smc.DEFAULT_MAX_STEPS, show_default=True, type=click.IntRange(min=1))
@click.option("--resample", type=click.Choice(["multinomial", "stratified"]), default="multinomial",
              show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None, help="Write result JSON here instead of stdout.")
@click.pass_context
def generate(ctx, config, **values):
    """Run one generation method; emit the weighted ensemble as JSON."""
    if config is not None:
        values = _apply_config(ctx, config, values)
    model, language, language_file, pattern = (
        values["model"], values["language"], values["language_file"], values["pattern"],
    )
    method, sampler, n, tau = values["method"], values["sampler"], values["n"], values["tau"]
    extra_loops, theta0, theta1 = values["extra_loops"], values["theta0"], values["theta1"]
    budget, top_p = values["budget"], values["top_p"]
    max_steps, resample = values["max_steps"], values["resample"]
    seed, out = values["seed"], values["out"]
    if method is None:
        _fail_config("--method is required (flag or run-descriptor)")
    lm = _load_model(model)
    family = _load_language(lm, language, language_file, pattern)
    if method != "lm" and family is None:
        _fail_config(f"method {method!r} needs a constraint (--language/--language-file/--pattern)")
    if theta0 is not None or theta1 is not None:
        if not (method == "smc-awrs" and sampler == "cawrs"):
            _fail_config("--theta0/--theta1 apply only to smc-awrs with --sampler cawrs")
    if budget is not None and not (method == "smc-awrs" and sampler in ("cwrs", "gawrs", "rawrs")):
        _fail_config("--budget applies only to smc-awrs with a budgeted sampler")
    try:
        config = SamplerConfig(
            extra_loops=extra_loops,
            theta0=theta0 if theta0 is not None else 0.25,
            theta1=theta1 if theta1 is not None else 0.75,
            budget=budget if budget is not None else 8,
        )
    except ValueError as e:
        _fail_config(str(e))
    if top_p is not None:
        # Nucleus truncation is a fixed per-context transform, so apply it to the tables once.
        tables = {ctx: top_p_compose(Categorical(row), top_p).probs for ctx, row in lm.tables.items()}
        lm = ToyLM(lm.alphabet, lm.order, lm.max_len, tables)

    t0 = time.perf_counter()
    try:
        result = _dispatch(lm, family, method, sampler, config, n, tau, max_steps, resample, seed)
    except ZestError as e:
        _emit({"error": {"type": type(e).__name__, "message": str(e)}, "method": method, "seed": seed}, out)
        sys.exit(3)
    result.update(
        method=method,
        n=n,
        seed=seed,
        wall_time=time.perf_counter() - t0,
    )
    _emit(result, out)


def _rollout_freqs(strings: list[str]) -> dict[str, float]:
    freqs: dict[str, float] = {}
    for s in strings:
        freqs[s] = freqs.get(s, 0.0) + 1.0 / len(strings)
    return dict(sorted(freqs.items()))


def _dispatch(lm, family, method, sampler, config, n, tau, max_steps, resample, seed) -> dict:
    if method == "lm":
        ens = smc.sample_verify(lm, lambda s: True, n, seed=seed)
        return {"g_hat": ens.g_hat, "posterior_estimate": ens.posterior_estimate, "eval_counts": []}

    if method in ("lcd-mask", "lcd-ars"):
        before = family.counter.count
        kind = "ars" if method == "lcd-ars" else "mask"
        strings = [smc.lcd_generate(lm, family, make_rng(seed, 0, i), sampler=kind) for i in range(n)]
        return {
            "g_hat": 1.0,
            "posterior_estimate": _rollout_freqs(strings),
            "eval_counts": [family.counter.count - before],
        }

    if method == "sample-verify":
        ens = smc.sample_verify(lm, family, n, seed=seed)
        return _ensemble_payload(ens)

    if method == "is":
        ens = smc.importance_sample(lm, family, n, seed=seed)
        return _ensemble_payload(ens)

    if method == "smc-twist":
        ens = smc.smc_twist(lm, family, n, tau=tau, seed=seed, max_steps=max_steps, resample=resample)
        return _ensemble_payload(ens)

    if method == "smc-awrs":
        ens = smc.smc_pwp(
            lm,
            family,
            proposal=sampler,
            n_particles=n,
            tau=tau,
            seed=seed,
            max_steps=max_steps,
            resample=resample,
            extra_loops=config.extra_loops,
            theta0=config.theta0,
            theta1=config.theta1,
            budget=config.budget,
        )
        return _ensemble_payload(ens)

    raise AssertionError(f"unhandled method {method}")


def _ensemble_payload(ens: smc.Ensemble) -> dict:
    return {
        "g_hat": ens.g_hat,
        "posterior_estimate": ens.posterior_estimate,
        "eval_counts": ens.eval_counts,
        "steps": ens.steps,
    }


@main.group()
def experiment():
    """Batch sweeps writing CSV plus metadata JSON."""


def _write_sweep(result: simharness.SweepResult, out_dir: Path, name: str):
    csv_path = out_dir / f"{name}.csv"
    meta_path = out_dir / f"{name}.meta.json"
    result.to_csv(csv_path)
    result.metadata_json(meta_path)
    click.echo(json.dumps({"csv": str(csv_path), "metadata": str(meta_path), "rows": len(result.rows)}))


@experiment.command()
@click.option("--vocab", default=1000, show_default=True)
@click.option("--instances", default=100, show_default=True)
@click.option("--n-grid", default="100,1000,10000", show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--workers", default=1, show_default=True)
@click.option("--out-dir", default=None)
def bias(vocab, instances, n_grid, seed, workers, out_dir):
    """Estimator error versus Monte Carlo sample count."""
    grid = [int(x) for x in n_grid.split(",") if x]
    result = simharness.bias_experiment(vocab, instances, grid, seed, workers=workers)
    _write_sweep(result, _out_dir(out_dir), f"bias_v{vocab}_seed{seed}")


@experiment.command()
@click.option("--vocab", default=50, show_default=True)
@click.option("--instances", default=20, show_default=True)
@click.option("--l-grid", default="1,2,4,8", show_default=True)
@click.option("--runs", default=10000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--workers", default=1, show_default=True)
@click.option("--out-dir", default=None)
def variance(vocab, instances, l_grid, runs, seed, workers, out_dir):
    """Estimator variance and call count versus extra loops."""
    grid = [int(x) for x in l_grid.split(",") if x]
    result = simharness.variance_vs_l(vocab, instances, grid, runs, seed, workers=workers)
    _write_sweep(result, _out_dir(out_dir), f"variance_v{vocab}_seed{seed}")


@experiment.command()
@click.option("--vocab", default=1000, show_default=True)
@click.option("--dense", is_flag=True, help="Tile every k against an even z grid (analytic comparison).")
@click.option("--runs-per-cell", default=100, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--workers", default=1, show_default=True)
@click.option("--out-dir", default=None)
def heatmap(vocab, dense, runs_per_cell, seed, workers, out_dir):
    """Constraint-call counts over a (z, k) instance family.

    Infeasible cells are flagged in the CSV; the run still exits 0 as
    long as at least 99% of cells succeeded.
    """
    result = simharness.runtime_heatmap(
        vocab, runs_per_cell=runs_per_cell, seed=seed, dense=dense, workers=workers
    )
    suffix = "dense" if dense else "corner"
    _write_sweep(result, _out_dir(out_dir), f"heatmap_{suffix}_v{vocab}_seed{seed}")
    n_cells = len(result.metadata["z_grid"]) * len(result.metadata["k_grid"])
    n_bad = sum(1 for r in result.rows if r["metric"] == "infeasible")
    if n_bad > 0.01 * n_cells:
        click.echo(json.dumps({"error": {"type": "PartialFailure",
                                         "message": f"{n_bad}/{n_cells} cells infeasible"}}))
        sys.exit(3)


if __name__ == "__main__":
    main()
