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


# ---------------------------------------------------------------------------
# Estimator-bias sweep


# Stream addressing shared by the sweeps: instance construction draws
# from (seed, 2, idx); a sampler run draws from (seed, 3, idx, kind, L)
# with kind 0 for the with-replacement sampler and 1 for the adaptive
# one. Sweeps that run the same sampler at the same run count therefore
# reuse identical draws, which the tests pin down.
_WRS, _AWRS = 0, 1


def sampler_stream(seed: int, instance: int, kind: int, extra_loops: int = 1):
    return make_rng(seed, 3, instance, kind, extra_loops)


def _bias_one(args):
    vocab, n_max, n_grid, samplers, seed, idx = args
    prior, valid = random_instance(vocab, make_rng(seed, 2, idx))
    z = float(prior.probs[valid].sum())
    k = int(valid.sum())
    rows = []
    for name in samplers:
        if name == "wrs":
            out = wrs_batch(prior, mask_constraint(valid), n_max, sampler_stream(seed, idx, _WRS))
        elif name == "awrs":
            out = awrs_batch(prior, mask_constraint(valid), n_max, sampler_stream(seed, idx, _AWRS))
        elif name == "exact":
            out = None
        else:
            raise ValueError(f"unknown sampler {name!r}")
        for n in n_grid:
            err = 0.0 if out is None else abs(float(out.zhats[:n].mean()) - z)
            rows.append(
                dict(instance_id=idx, sampler=name, Z=z, K=k, V=vocab, L=1, N=n, metric="abs_err", value=err)
            )
    return rows


def bias_experiment(
    vocab: int,
    n_instances: int,
    n_grid: list[int],
    seed: int,
    samplers: tuple[str, ...] = ("wrs", "awrs"),
    workers: int = 1,
) -> SweepResult:
    """Mean absolute error of the z estimates as the sample count grows.

    For each instance and sampler, draws max(n_grid) weighted samples and
    records |mean(zhat over first N) - z| at every N. Aggregate rows carry
    the across-instance MAE with a 95% CI.
    """
    n_grid = sorted(int(n) for n in n_grid)
    jobs = [(vocab, n_grid[-1], n_grid, samplers, seed, i) for i in range(n_instances)]
    rows = [r for chunk in _run_jobs(_bias_one, jobs, workers) for r in chunk]
    for name in samplers:
        for n in n_grid:
            errs = np.array(
                [r["value"] for r in rows if r["sampler"] == name and r["N"] == n and r["metric"] == "abs_err"]
            )
            mean, lo, hi = _ci95(errs)
            rows.append(
                dict(instance_id="all", sampler=name, V=vocab, L=1, N=n, metric="mae", value=mean, ci_lo=lo, ci_hi=hi)
            )
    meta = dict(kind="bias", vocab=vocab, n_instances=n_instances, n_grid=n_grid, samplers=list(samplers), seed=seed)
    return SweepResult(rows=rows, metadata=meta).sort()


# ---------------------------------------------------------------------------
# Variance-versus-extra-loops sweep


def _variance_one(args):
    vocab, l_grid, runs, seed, idx = args
    prior, valid = random_instance(vocab, make_rng(seed, 2, idx))
    z = float(prior.probs[valid].sum())
    k = int(valid.sum())
    rows = []
    for L in l_grid:
        out = wrs_batch(prior, mask_constraint(valid), runs, sampler_stream(seed, idx, _WRS, L), extra_loops=L)
        rows.append(
            dict(instance_id=idx, sampler="wrs", Z=z, K=k, V=vocab, L=L, N=runs,
                 metric="var_zhat", value=float(np.var(out.zhats)))
        )
        mean, lo, hi = _ci95(out.trials.astype(float))
        rows.append(
            dict(instance_id=idx, sampler="wrs", Z=z, K=k, V=vocab, L=L, N=runs,
                 metric="mean_calls", value=mean, ci_lo=lo, ci_hi=hi)
        )
        rows.append(
            dict(instance_id=idx, sampler="wrs-analytic", Z=z, K=k, V=vocab, L=L,
                 metric="expected_calls", value=analytics.wrs_expected_calls(z, L))
        )
    out = awrs_batch(prior, mask_constraint(valid), runs, sampler_stream(seed, idx, _AWRS))
    rows.append(
        dict(instance_id=idx, sampler="awrs", Z=z, K=k, V=vocab, L=1, N=runs,
             metric="var_zhat", value=float(np.var(out.zhats)))
    )
    mean, lo, hi = _ci95(out.trials.astype(float))
    rows.append(
        dict(instance_id=idx, sampler="awrs", Z=z, K=k, V=vocab, L=1, N=runs,
             metric="mean_calls", value=mean, ci_lo=lo, ci_hi=hi)
    )
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
    rows = []
    try:
        prior, valid = placed_mass_instance(vocab, z, k)
    except ValueError:
        return [dict(instance_id=idx, sampler="none", Z=z, K=k, V=vocab, metric="infeasible", value=None)]
    base = dict(instance_id=idx, Z=z, K=k, V=vocab, L=1, N=runs)
    for name, batch in (("wrs", wrs_batch), ("awrs", awrs_batch)):
        out = batch(prior, mask_constraint(valid), runs, make_rng(seed, 6, idx, 0 if name == "wrs" else 1))
        calls = out.trials.astype(float)
        mean, lo, hi = _ci95(calls)
        rows.append(dict(base, sampler=name, metric="mean_calls", value=mean, ci_lo=lo, ci_hi=hi))
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
    grids instead crowd toward the corners. Each cell also carries the
    closed-form expected counts for both samplers.
    """
    if dense:
        z_grid = z_grid or np.linspace(0.05, 0.95, 19).round(12).tolist()
        k_grid = k_grid or list(range(1, vocab))
    else:
        default_z, default_k = corner_grids(vocab)
        z_grid = z_grid or default_z
        k_grid = k_grid or default_k
    jobs = []
    idx = 0
    for z in z_grid:
        for k in k_grid:
            jobs.append((vocab, float(z), int(k), runs_per_cell, seed, idx))
            idx += 1
    rows = [r for chunk in _run_jobs(_heatmap_one, jobs, workers) for r in chunk]
    meta = dict(
        kind="heatmap", vocab=vocab, z_grid=[float(z) for z in z_grid], k_grid=[int(k) for k in k_grid],
        runs_per_cell=runs_per_cell, seed=seed, dense=dense,
    )
    return SweepResult(rows=rows, metadata=meta).sort()


def _run_jobs(fn, jobs, workers: int):
    if workers <= 1:
        return [fn(j) for j in jobs]
    # Imported here so that single-process callers do not pay for it.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=max(1, len(jobs) // (workers * 4) or 1)))
