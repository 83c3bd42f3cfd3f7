"""Command-line surface: generation runs and experiment sweeps.

Structured results go to stdout as JSON (or to --out); sweeps write CSV
plus a metadata JSON next to it. Exit codes: 0 success, 2 configuration
error, 3 inference failure (reported as machine-readable error JSON).
``g_hat`` is unbiased only when a run that exits 3 because every particle
died (AllDead) counts as ``g_hat = 0``; the runs that succeed, alone,
overstate the mass.
An option the chosen method or sampler does not read is a configuration
error. All randomness flows from the single --seed flag.
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
from .samplers import top_p_compose
from .toylm import BUILTIN_MODELS, ToyLM, builtin_model

# The options each method reads, beyond --model, --n, --top-p, --seed and
# --out, which every run reads. An option given to a method that does not
# read it exits 2, so no run descriptor names a setting its run ignored.
_CONSTRAINT = ("language", "language_file", "pattern")
_STEPS = ("tau", "resample")
_SAMPLER = ("sampler", "extra_loops", "theta0", "theta1", "budget")
METHOD_OPTIONS = {
    "lm": (),
    "lcd-mask": _CONSTRAINT,
    "lcd-ars": _CONSTRAINT,
    "sample-verify": _CONSTRAINT,
    "is": _CONSTRAINT,
    "smc-twist": _CONSTRAINT + _STEPS,
    "smc-awrs": _CONSTRAINT + _STEPS + _SAMPLER,
}
METHODS = tuple(METHOD_OPTIONS)
SAMPLERS = tuple(smc._KERNELS)

BUILTIN_LANGUAGES = {
    "example-a1": ("aa", "ba"),
}


def _load_model(source: str) -> ToyLM:
    if source in BUILTIN_MODELS:
        return builtin_model(source)
    if Path(source).exists():
        try:
            return ToyLM.from_json(source)
        except (ValueError, TypeError, OSError) as e:
            # ValueError: bad JSON, a missing key or a bad table row; TypeError: a field of the wrong type.
            raise click.UsageError(f"malformed model: {e}")
    raise click.UsageError(f"unknown model {source!r}: not a builtin name or a readable JSON file")


def _load_language(lm: ToyLM, language, language_file, pattern):
    given = [x for x in (language, language_file, pattern) if x]
    if len(given) > 1:
        raise click.UsageError("give at most one of --language / --language-file / --pattern")
    if language is not None:
        if language in BUILTIN_LANGUAGES:
            strings = BUILTIN_LANGUAGES[language]
        elif language.startswith("{") and language.endswith("}"):
            body = language[1:-1].strip()
            strings = tuple(s.strip() for s in body.split(",") if s.strip() != "") if body else ()
        else:
            raise click.UsageError("--language expects '{s1,s2,...}' or a builtin name")
    try:
        if language is not None:
            return TrieLanguage(strings, alphabet=lm.alphabet)
        if language_file is not None:
            return TrieLanguage.from_file(language_file, alphabet=lm.alphabet)
        if pattern is not None:
            # The library refuses an automaton over another alphabet than the model's.
            return DfaPattern.from_json(pattern)
    except (ValueError, TypeError, OSError) as e:
        # ValueError: bad symbol, state or JSON; TypeError: a JSON field of the wrong type.
        raise click.UsageError(f"malformed constraint: {e}")
    return None


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


# The paper's short names, accepted in a run descriptor beside the option names.
_SHORT_NAMES = {"N": "n", "L": "extra_loops", "R": "budget"}


def _load_config(ctx, param, path):
    """Make the run descriptor at ``path`` the defaults of the other options.

    Click then type-casts its values, and a flag given explicitly wins.
    """
    if path is None:
        return
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as e:
        raise click.BadParameter(f"not JSON: {e}", ctx, param) from None
    if not isinstance(doc, dict):
        raise click.BadParameter("a run descriptor is a JSON object", ctx, param)
    values = {_SHORT_NAMES.get(key, key): value for key, value in doc.items() if value is not None}
    unknown = set(values) - {p.name for p in ctx.command.params if p is not param}
    if unknown:
        raise click.UsageError(f"unknown run-descriptor keys {sorted(unknown)}")
    ctx.default_map = values


# Every command's --seed: the root of every random stream, a non-negative
# integer as ``rng.make_rng`` requires.
_seed_option = click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))


# Options without a default here are absent unless given; the library
# function a method calls holds their defaults and range checks.
@main.command()
@click.option("--config", type=click.Path(exists=True, dir_okay=False), is_eager=True, expose_value=False,
              callback=_load_config, help="Run-descriptor JSON; explicit flags win over it.")
@click.option("--model", default="example-a1", show_default=True, help="Builtin model name or ToyLM JSON path.")
@click.option("--language", default=None, help="Inline '{s1,s2,...}' language or builtin name.")
@click.option("--language-file", default=None, type=click.Path(exists=True), help="Newline-delimited strings file.")
@click.option("--pattern", default=None, help="Automaton JSON (path or inline) as the constraint.")
@click.option("--method", type=click.Choice(METHODS), default=None)
@click.option("--sampler", type=click.Choice(SAMPLERS), default=None, help="Weighted proposal of smc-awrs.")
@click.option("--n", default=100, show_default=True, type=int, help="Particles or rollouts.")
@click.option("--tau", type=float, default=None, help="Resampling trigger fraction of N.")
@click.option("--extra-loops", "-L", "extra_loops", type=int, default=None)
@click.option("--theta0", type=float, default=None)
@click.option("--theta1", type=float, default=None)
@click.option("--budget", "-R", type=int, default=None)
@click.option("--top-p", type=float, default=None)
@click.option("--resample", type=click.Choice(list(smc._RESAMPLERS)), default=None)
@_seed_option
@click.option("--out", default=None, help="Write result JSON here instead of stdout.")
def generate(**values):
    """Run one generation method; emit the weighted ensemble as JSON."""
    method, n, seed, out = values["method"], values["n"], values["seed"], values["out"]
    if method is None:
        raise click.UsageError("--method is required (flag or run-descriptor)")
    given = {name: values[name] for name in _CONSTRAINT + _STEPS + _SAMPLER if values[name] is not None}
    ignored = [name for name in given if name not in METHOD_OPTIONS[method]]
    if ignored:
        flags = ", ".join("--" + name.replace("_", "-") for name in ignored)
        raise click.UsageError(f"method {method!r} does not read {flags}")
    lm = _load_model(values["model"])
    family = _load_language(lm, values["language"], values["language_file"], values["pattern"])
    if method != "lm" and family is None:
        raise click.UsageError(f"method {method!r} needs a constraint (--language/--language-file/--pattern)")
    options = {name: value for name, value in given.items() if name not in _CONSTRAINT}
    try:
        if values["top_p"] is not None:
            # Nucleus truncation is a fixed per-context transform, so apply it to the tables once.
            tables = {ctx: top_p_compose(Categorical(row), values["top_p"]).probs for ctx, row in lm.tables.items()}
            lm = ToyLM(lm.alphabet, lm.order, lm.max_len, tables)
        t0 = time.perf_counter()
        ens = _dispatch(lm, family, method, n, seed, options)
    except ValueError as e:
        # The library refuses an out-of-range or inapplicable option before any
        # draw, and a model context with no table row when a run reaches it.
        raise click.UsageError(str(e))
    except ZestError as e:
        _emit({"error": {"type": type(e).__name__, "message": str(e)}, "method": method, "seed": seed}, out)
        sys.exit(3)
    _emit(
        {
            "g_hat": ens.g_hat,
            "posterior_estimate": ens.posterior_estimate,
            "eval_counts": ens.eval_counts,
            "steps": ens.steps,
            "method": method,
            "n": n,
            "seed": seed,
            "wall_time": time.perf_counter() - t0,
        },
        out,
    )


def _dispatch(lm, family, method, n, seed, options) -> smc.Ensemble:
    """Run ``method``; ``options`` holds the given step and sampler options it reads."""
    if method == "lm":
        return smc.sample_verify(lm, lambda s: True, n, seed=seed)
    if method in ("lcd-mask", "lcd-ars"):
        return smc.lcd_sample(lm, family, n, seed=seed, sampler=method[len("lcd-"):])
    if method == "sample-verify":
        return smc.sample_verify(lm, family, n, seed=seed)
    if method == "is":
        return smc.importance_sample(lm, family, n, seed=seed)
    if method == "smc-twist":
        return smc.smc_twist(lm, family, n, seed=seed, **options)
    if method == "smc-awrs":
        if "sampler" in options:
            options["proposal"] = options.pop("sampler")
        return smc.smc_pwp(lm, family, n_particles=n, seed=seed, **options)
    raise AssertionError(f"unhandled method {method}")


@main.group()
def experiment():
    """Batch sweeps writing CSV plus metadata JSON."""


def _int_grid(ctx, param, value: str) -> list[int]:
    try:
        return [int(x) for x in value.split(",") if x]
    except ValueError:
        raise click.BadParameter(f"expects comma-separated integers, got {value!r}", ctx, param) from None


def _run_sweep(sweep, name: str, out_dir: str | None, *args, **kwargs):
    """Run one sweep and write its CSV and metadata JSON; a bad argument exits 2."""
    try:
        result = sweep(*args, **kwargs)
    except ValueError as e:
        raise click.UsageError(str(e)) from None
    d = _out_dir(out_dir)
    csv_path, meta_path = d / f"{name}.csv", d / f"{name}.meta.json"
    result.to_csv(csv_path)
    result.metadata_json(meta_path)
    click.echo(json.dumps({"csv": str(csv_path), "metadata": str(meta_path), "rows": len(result.rows)}))


@experiment.command()
@click.option("--vocab", default=1000, show_default=True)
@click.option("--instances", default=100, show_default=True)
@click.option("--n-grid", default="100,1000,10000", show_default=True, callback=_int_grid)
@_seed_option
@click.option("--workers", default=1, show_default=True)
@click.option("--out-dir", default=None)
def bias(vocab, instances, n_grid, seed, workers, out_dir):
    """Estimator error versus Monte Carlo sample count."""
    _run_sweep(simharness.bias_experiment, f"bias_v{vocab}_seed{seed}", out_dir,
               vocab, instances, n_grid, seed, workers=workers)


@experiment.command()
@click.option("--vocab", default=50, show_default=True)
@click.option("--instances", default=20, show_default=True)
@click.option("--l-grid", default="1,2,4,8", show_default=True, callback=_int_grid)
@click.option("--runs", default=10000, show_default=True)
@_seed_option
@click.option("--workers", default=1, show_default=True)
@click.option("--out-dir", default=None)
def variance(vocab, instances, l_grid, runs, seed, workers, out_dir):
    """Estimator variance and call count versus extra loops."""
    _run_sweep(simharness.variance_vs_l, f"variance_v{vocab}_seed{seed}", out_dir,
               vocab, instances, l_grid, runs, seed, workers=workers)


@experiment.command()
@click.option("--vocab", default=1000, show_default=True)
@click.option("--dense", is_flag=True, help="Tile every k against an even z grid (analytic comparison).")
@click.option("--runs-per-cell", default=100, show_default=True)
@_seed_option
@click.option("--workers", default=1, show_default=True)
@click.option("--out-dir", default=None)
def heatmap(vocab, dense, runs_per_cell, seed, workers, out_dir):
    """Constraint-call counts over a (z, k) instance family."""
    name = f"heatmap_{'dense' if dense else 'corner'}_v{vocab}_seed{seed}"
    _run_sweep(simharness.runtime_heatmap, name, out_dir,
               vocab, runs_per_cell=runs_per_cell, seed=seed, dense=dense, workers=workers)


if __name__ == "__main__":
    main()
