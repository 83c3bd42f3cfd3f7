"""Batch simulation studies over randomized sampler instances.

Every sweep is a pure function of its seed and parameters: instances, runs and
cells derive their streams from (seed, role, index) addresses, results
are merged in sorted order, and the CSV bytes are identical across
repeats and worker counts.

CSV schema (fixed): instance_id, sampler, Z, K, V, L, N, metric, value,
ci_lo, ci_hi. Confidence intervals are normal-approximation 95% bounds;
fields that do not apply stay empty.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from . import analytics
from .constraints import mask_constraint
from .dist import Categorical
from .rng import make_rng
from .samplers import awrs_batch, wrs_batch

__all__ = [
    "SweepResult",
    "CSV_FIELDS",
    "random_instance",
    "placed_mass_instance",
    "sampler_stream",
    "bias_experiment",
    "variance_vs_l",
    "runtime_heatmap",
    "corner_grids",
]

CSV_FIELDS = ["instance_id", "sampler", "Z", "K", "V", "L", "N", "metric", "value", "ci_lo", "ci_hi"]


@dataclass
class SweepResult:
    """Rows plus the metadata needed to reproduce them."""

    rows: list[dict]
    metadata: dict = field(default_factory=dict)

    def sort(self):
        self.rows.sort(key=lambda r: tuple(repr(r.get(k, "")) for k in CSV_FIELDS))
        return self

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: _fmt(row.get(k)) for k in CSV_FIELDS})

    def metadata_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.metadata, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return v


def random_instance(vocab: int, rng: np.random.Generator) -> tuple[Categorical, np.ndarray]:
    """Dirichlet(1) prior with a Bernoulli(pi) valid set, pi ~ Uniform(0,1).

    Regenerates until the valid set carries positive mass (z > 0).
    """
    while True:
        probs = rng.dirichlet(np.ones(vocab))
        pi = rng.random()
        valid = rng.random(vocab) < pi
        if probs[valid].sum() > 0:
            return Categorical(probs), valid


def placed_mass_instance(vocab: int, z: float, k: int) -> tuple[Categorical, np.ndarray]:
    """An instance with exactly k valid tokens carrying total mass z.

    Valid tokens share mass z uniformly, invalid ones share 1 - z, so the
    analytic call-count laws hold exactly with these parameters.
    """
    if not (0 < k <= vocab):
        raise ValueError("need 0 < k <= vocab")
    if k < vocab and not (0.0 < z < 1.0):
        raise ValueError("need 0 < z < 1 when invalid tokens exist")
    if k == vocab and z != 1.0:
        raise ValueError("all-valid instances force z = 1")
    probs = np.empty(vocab)
    valid = np.zeros(vocab, dtype=bool)
    valid[:k] = True
    probs[:k] = z / k
    if k < vocab:
        probs[k:] = (1.0 - z) / (vocab - k)
    return Categorical(probs), valid


def _ci95(values: np.ndarray) -> tuple[float, float, float]:
    mean = float(np.mean(values))
    half = 1.96 * float(np.std(values)) / np.sqrt(len(values)) if len(values) > 1 else 0.0
    return mean, mean - half, mean + half


def _check(minimum: int, **values):
    """Refuse a count below ``minimum``, or a grid that is empty or has an entry below it."""
    for name, value in values.items():
        if isinstance(value, list):
            if not value or min(value) < minimum:
                raise ValueError(f"{name} must be non-empty with every entry >= {minimum}, got {value}")
        elif value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")


# Stream addressing shared by the sweeps: instance construction draws
# from (seed, 2, idx); a bias or variance run draws from (seed, 3, idx,
# kind, L), and a heatmap cell from (seed, 6, idx, kind), with the
# sampler's stream kind from this table. Sweeps that run the same sampler
# at the same run count therefore reuse identical draws, which the tests
# pin down.
_SAMPLERS = {"wrs": (wrs_batch, 0), "awrs": (awrs_batch, 1)}


def sampler_stream(seed: int, instance: int, kind: int, extra_loops: int = 1):
    return make_rng(seed, 3, instance, kind, extra_loops)


def _random_cell(vocab: int, seed: int, idx: int):
    """Instance ``idx`` of a sweep, with its instance_id, Z, K and V columns."""
    prior, valid = random_instance(vocab, make_rng(seed, 2, idx))
    return prior, valid, dict(instance_id=idx, Z=float(prior.probs[valid].sum()), K=int(valid.sum()), V=vocab)


def _calls_row(base: dict, sampler: str, trials: np.ndarray) -> dict:
    mean, lo, hi = _ci95(trials.astype(float))
    return dict(base, sampler=sampler, metric="mean_calls", value=mean, ci_lo=lo, ci_hi=hi)


# ---------------------------------------------------------------------------
# Estimator-bias sweep


def _bias_one(args):
    vocab, n_grid, seed, idx = args
    prior, valid, cols = _random_cell(vocab, seed, idx)
    rows = []
    for name, (kernel, kind) in _SAMPLERS.items():
        zhats = kernel(prior, mask_constraint(valid), n_grid[-1], sampler_stream(seed, idx, kind)).zhats
        for n in n_grid:
            err = abs(float(zhats[:n].mean()) - cols["Z"])
            rows.append(dict(cols, sampler=name, L=1, N=n, metric="abs_err", value=err))
    return rows


def bias_experiment(vocab: int, n_instances: int, n_grid: list[int], seed: int, workers: int = 1) -> SweepResult:
    """Mean absolute error of the z estimates as the sample count grows.

    For each instance and sampler, draws max(n_grid) weighted samples and
    records |mean(zhat over first N) - z| at every N. Aggregate rows carry
    the across-instance MAE with a 95% CI.
    """
    n_grid = sorted(int(n) for n in n_grid)
    _check(1, vocab=vocab, n_instances=n_instances, n_grid=n_grid, workers=workers)
    jobs = [(vocab, n_grid, seed, i) for i in range(n_instances)]
    rows = [r for chunk in _run_jobs(_bias_one, jobs, workers) for r in chunk]
    for name in _SAMPLERS:
        for n in n_grid:
            errs = np.array(
                [r["value"] for r in rows if r["sampler"] == name and r["N"] == n and r["metric"] == "abs_err"]
            )
            mean, lo, hi = _ci95(errs)
            rows.append(
                dict(instance_id="all", sampler=name, V=vocab, L=1, N=n, metric="mae", value=mean, ci_lo=lo, ci_hi=hi)
            )
    meta = dict(kind="bias", vocab=vocab, n_instances=n_instances, n_grid=n_grid, samplers=list(_SAMPLERS), seed=seed)
    return SweepResult(rows=rows, metadata=meta).sort()


# ---------------------------------------------------------------------------
# Variance-versus-extra-loops sweep


def _variance_one(args):
    vocab, l_grid, runs, seed, idx = args
    prior, valid, cols = _random_cell(vocab, seed, idx)
    rows = []
    # wrs at every L of the grid; awrs at its one operating point, L = 1.
    for name, L, knobs in [("wrs", L, dict(extra_loops=L)) for L in l_grid] + [("awrs", 1, {})]:
        kernel, kind = _SAMPLERS[name]
        out = kernel(prior, mask_constraint(valid), runs, sampler_stream(seed, idx, kind, L), **knobs)
        base = dict(cols, L=L, N=runs)
        rows.append(dict(base, sampler=name, metric="var_zhat", value=float(np.var(out.zhats))))
        rows.append(_calls_row(base, name, out.trials))
        if name == "wrs":
            rows.append(dict(cols, sampler="wrs-analytic", L=L, metric="expected_calls",
                             value=analytics.wrs_expected_calls(cols["Z"], L)))
    return rows


def variance_vs_l(
    vocab: int,
    n_instances: int,
    l_grid: list[int],
    runs: int,
    seed: int,
    workers: int = 1,
) -> SweepResult:
    """Variance/cost trade of the with-replacement estimator against L.

    The adaptive sampler appears at its single operating point (one extra
    loop) for comparison.
    """
    l_grid = sorted(int(v) for v in l_grid)
    _check(1, vocab=vocab, n_instances=n_instances, l_grid=l_grid, runs=runs, workers=workers)
    jobs = [(vocab, l_grid, runs, seed, i) for i in range(n_instances)]
    rows = [r for chunk in _run_jobs(_variance_one, jobs, workers) for r in chunk]
    meta = dict(kind="variance", vocab=vocab, n_instances=n_instances, l_grid=l_grid, runs=runs, seed=seed)
    return SweepResult(rows=rows, metadata=meta).sort()


# ---------------------------------------------------------------------------
# Runtime heatmap over (z, k) cells


def corner_grids(vocab: int, points: int = 20) -> tuple[list[float], list[int]]:
    """Grids that crowd logarithmically toward the corners of (z, k)."""
    half = points // 2
    low = np.geomspace(1e-3, 0.5, half)
    z_grid = sorted(set(np.concatenate([low, 1.0 - low]).round(12).tolist()))
    k_vals = np.unique(np.round(np.geomspace(1, vocab - 1, points)).astype(int))
    k_grid = sorted(set(int(v) for v in np.concatenate([k_vals, vocab - k_vals])) & set(range(1, vocab)))
    return z_grid, k_grid


def _heatmap_one(args):
    vocab, z, k, runs, seed, idx = args
    prior, valid = placed_mass_instance(vocab, z, k)
    base = dict(instance_id=idx, Z=z, K=k, V=vocab, L=1, N=runs)
    rows = []
    for name, (kernel, kind) in _SAMPLERS.items():
        calls = kernel(prior, mask_constraint(valid), runs, make_rng(seed, 6, idx, kind)).trials.astype(float)
        rows.append(_calls_row(base, name, calls))
        rows.append(dict(base, sampler=name, metric="sd_calls", value=float(np.std(calls))))
        rows.append(dict(base, sampler=name, metric="max_calls", value=float(calls.max())))
    rows.append(dict(base, sampler="wrs-analytic", metric="expected_calls",
                     value=analytics.wrs_expected_calls(z, 1)))
    rows.append(dict(base, sampler="awrs-analytic", metric="expected_calls",
                     value=analytics.awrs_expected_calls(prior, valid, 1)))
    return rows


def runtime_heatmap(
    vocab: int,
    z_grid: list[float] | None = None,
    k_grid: list[int] | None = None,
    runs_per_cell: int = 100,
    seed: int = 0,
    dense: bool = False,
    workers: int = 1,
) -> SweepResult:
    """Empirical constraint-call counts over a (z, k) instance family.

    ``dense`` tiles every k in 1..vocab-1 against an evenly spaced z grid,
    which is the configuration the analytic comparison uses; the default
    grids instead crowd toward the corners; a grid left as None takes its
    default, and an empty one is refused. Each cell also carries the
    closed-form expected counts for both samplers. Every cell must be one
    that ``placed_mass_instance`` can build.
    """
    _check(2, vocab=vocab)
    _check(1, runs_per_cell=runs_per_cell, workers=workers)
    if dense:
        default_z, default_k = np.linspace(0.05, 0.95, 19).round(12).tolist(), list(range(1, vocab))
    else:
        default_z, default_k = corner_grids(vocab)
    z_grid = default_z if z_grid is None else z_grid
    k_grid = default_k if k_grid is None else k_grid
    if len(z_grid) == 0 or len(k_grid) == 0:
        raise ValueError(f"z_grid and k_grid must be non-empty, got {list(z_grid)} and {list(k_grid)}")
    cells = [(float(z), int(k)) for z in z_grid for k in k_grid]
    for z, k in cells:
        try:
            placed_mass_instance(vocab, z, k)
        except ValueError as e:
            raise ValueError(f"infeasible cell (z={z}, k={k}) at vocab {vocab}: {e}") from None
    jobs = [(vocab, z, k, runs_per_cell, seed, idx) for idx, (z, k) in enumerate(cells)]
    rows = [r for chunk in _run_jobs(_heatmap_one, jobs, workers) for r in chunk]
    meta = dict(
        kind="heatmap", vocab=vocab, z_grid=[float(z) for z in z_grid], k_grid=[int(k) for k in k_grid],
        runs_per_cell=runs_per_cell, seed=seed, dense=dense,
    )
    return SweepResult(rows=rows, metadata=meta).sort()


def _run_jobs(fn, jobs, workers: int):
    if workers == 1:
        return [fn(j) for j in jobs]
    # Imported here so that single-process callers do not pay for it.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=max(1, len(jobs) // (workers * 4) or 1)))
