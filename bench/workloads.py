"""The benchmark workloads: inputs, ops, oracle checks.

A workload is built from the run's ``--seed`` and holds a fixed cycle of
ops; one op is one call into the public API of ``zest`` at a stated input
size. ``bench/README.md`` gives the reason for each workload and the
tolerance formulas used by the checks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from zest import analytics
from zest.constraints import TrieLanguage, mask_constraint
from zest.dist import sample
from zest.oracle import global_posterior
from zest.rng import make_rng
from zest.samplers import (
    ars_batch,
    awrs_batch,
    cawrs_batch,
    cwrs_batch,
    gawrs_batch,
    rawrs_batch,
    rs_batch,
    wrs_batch,
)
from zest.simharness import placed_mass_instance
from zest.smc import importance_sample, smc_pwp, weighted_proposal
from zest.toylm import example_a1, random_lm

from tracing import TracedFamily, TracedLM, Tracer, patched_smc, traced_constraint

# Family-wise false-alarm rate of one run's statistical checks; each check
# gets an equal share of it (Bonferroni).
ALPHA_RUN = 1e-5
# Fewer ops than this leave too few replicates to estimate the Monte Carlo
# error of an SMC op; the statistical checks are then skipped.
MIN_REPLICATES = 5

# Op seeds: phase 0 for set-up warm ops, phase 1 for measured ops.
WARM, MEASURE = 0, 1


def op_seed(seed: int, phase: int, j: int) -> int:
    return (seed << 32) + (phase << 24) + j


@dataclass
class OpResult:
    key: object
    latency: float
    draws: int
    calls: int
    out: object
    error: str | None


@dataclass
class EnsembleSummary:
    posterior_estimate: dict[str, float]
    g_hat: float
    steps: int


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    try:
        out, error = fn(*args, **kwargs), None
    except Exception as e:  # an op that raises is a failed op, not a crashed run
        out, error = None, f"{type(e).__name__}: {e}"
    return out, error, time.perf_counter() - t0


def gaussian_k(alpha: float) -> float:
    """Two-sided normal quantile for false-alarm rate ``alpha``."""
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def bernstein_halfwidth(values: np.ndarray, alpha: float) -> float:
    """Empirical Bernstein bound (Maurer and Pontil, 2009) for values in [0, 1].

    With probability at least 1 - alpha, |mean - E| is at most
    sqrt(2 V ln(4/alpha) / n) + 7 ln(4/alpha) / (3 (n - 1)), V the sample
    variance. It holds for skewed estimators too, unlike a normal interval.
    """
    n = values.shape[0]
    log_term = math.log(4.0 / alpha)
    var = float(np.var(values, ddof=1))
    return math.sqrt(2.0 * var * log_term / n) + 7.0 * log_term / (3.0 * (n - 1))


# ---------------------------------------------------------------------------
# SMC and importance-sampling workloads


def trie_pair(strings: int = 200):
    """``random_lm(0, 26, k=2, max_len=12)`` and the first distinct strings of its rollouts.

    The model seed is fixed so that every ``--seed`` measures the same
    model and language; the run seed picks the per-op SMC streams.
    """
    lm = random_lm(0, 26, k=2, max_len=12)
    seen: dict[str, None] = {}
    i = 0
    while len(seen) < strings:
        rng = make_rng(0, 7, i)
        prefix = ""
        while (token := sample(lm.next_dist(prefix), rng)) != lm.eos:
            prefix += lm.alphabet[token]
        seen.setdefault(prefix)
        i += 1
    return lm, TrieLanguage(seen, alphabet=lm.alphabet)


def a1_pair():
    lm = example_a1()
    return lm, TrieLanguage(("aa", "ba"), alphabet=lm.alphabet)


class SmcWorkload:
    """Ops are whole ``smc_pwp`` or ``importance_sample`` calls on one (model, language) pair."""

    engine = "pwp"
    n = 1000

    def __init__(self, seed: int):
        self.seed = seed
        self.lm, self.lang = self.pair()
        self.cycle = [self.engine]

    @staticmethod
    def pair():
        raise NotImplementedError

    def sizes(self) -> dict:
        return {
            "engine": "smc_pwp(proposal='awrs', tau=0.5)" if self.engine == "pwp" else "importance_sample",
            "particles": self.n,
            "vocab": self.lm.vocab_size,
            "max_len": self.lm.max_len,
            "language_strings": len(self.lang),
        }

    def warm(self):
        self.run(self.engine, WARM, 0)

    def run(self, key, phase: int, j: int, tracer: Tracer | None = None) -> OpResult:
        seed = op_seed(self.seed, phase, j)
        before = self.lang.counter.count
        if tracer is None:
            if self.engine == "pwp":
                out, error, latency = _timed(smc_pwp, self.lm, self.lang, "awrs", self.n, tau=0.5, seed=seed)
            else:
                out, error, latency = _timed(importance_sample, self.lm, self.lang, self.n, seed=seed)
        else:
            lm, fam = TracedLM(self.lm, tracer), TracedFamily(self.lang, tracer)
            tracer.op = j
            with patched_smc(tracer):
                if self.engine == "pwp":
                    proposal = tracer.wrap("samplers.proposal", weighted_proposal("awrs"))
                    call = tracer.wrap("smc", smc_pwp)
                    out, error, latency = _timed(call, lm, fam, proposal, self.n, tau=0.5, seed=seed)
                else:
                    call = tracer.wrap("smc", importance_sample)
                    out, error, latency = _timed(call, lm, fam, self.n, seed=seed)
            tracer.add("smc.groups", lm.take_groups())
            tracer.fold()
        calls = self.lang.counter.count - before
        if out is None:
            return OpResult(key, latency, 0, calls, None, error)
        # A draw is one token appended to a returned particle: its symbols
        # plus end-of-string. This reads the output only, so it does not
        # depend on how an engine schedules its particles.
        draws = sum(len(p.prefix) + 1 for p in out.particles)
        # Keep only what the checks read, so the run's heap does not grow
        # by a particle list per op.
        summary = EnsembleSummary(out.posterior_estimate, out.g_hat, out.steps)
        return OpResult(key, latency, draws, calls, summary, error)

    def reference(self):
        self.exact = global_posterior(self.lm, self.lang)

    def n_checks(self, results: list[OpResult]) -> int:
        return 2 if len(results) >= MIN_REPLICATES else 0

    def check(self, results: list[OpResult], alpha: float) -> tuple[list[str | None], dict]:
        """Per-op failure reasons (None = passed) and quality diagnostics.

        Deterministic, per op: the op returned; g_hat is finite and positive;
        the posterior estimate sums to one and sits on strings of the language.

        Statistical, over the run's n independent ops, with k the normal
        quantile for ``alpha``. One op's error is heavy-tailed (a handful of
        particles can carry most of a branch's weight), so the tests use
        means over ops, where the central limit theorem applies, and take
        the spread about the exact value rather than about the sample mean
        (a score test), which keeps a right-skewed g_hat from shrinking its
        own standard error. A failure fails every op of the run.
        - g_hat is unbiased: |mean(g_hat) / g - 1| <= k * rms(g_hat / g - 1) / sqrt(n).
        - g_hat * estimate_s is unbiased for g * p_s, so the pooled estimate
          R_s = sum_j g_hat_j estimate_js / sum_j g_hat_j has bias O(1 / (N n)).
          With d_js = g_hat_j (estimate_js - p_s):
          TV(R, p) <= 1/2 sum_s k * se_s, where
          se_s = max(rms_j(d_js) / (sqrt(n) mean(g_hat)), sqrt(p_s (1 - p_s) / (N n))).
        Both bounds cap |z| at sqrt(n), so they need n > k^2 ops (about 21)
        to be able to fail.
        """
        exact = self.exact
        strings = sorted(exact.dist)
        p = np.array([exact.dist[s] for s in strings])
        reasons: list[str | None] = [r.error for r in results]
        est = np.zeros((len(results), len(strings)))
        for i, r in enumerate(results):
            if r.error is not None:
                continue
            post = r.out.posterior_estimate
            stray = [s for s in post if s not in self.lang]
            total = math.fsum(post.values())
            if not (math.isfinite(r.out.g_hat) and r.out.g_hat > 0.0):
                reasons[i] = f"g_hat = {r.out.g_hat}"
            elif stray:
                reasons[i] = f"posterior mass on strings outside the language: {stray[:3]}"
            elif abs(total - 1.0) > 1e-9:
                reasons[i] = f"posterior sums to {total}"
            else:
                est[i] = [post.get(s, 0.0) for s in strings]
        good = [i for i, reason in enumerate(reasons) if reason is None]
        n = len(good)
        if n == 0:
            return reasons, {"tv_p50": 0.0, "log_err_p50": 0.0, "steps_mean": 0.0}
        est = est[good]
        g_hat = np.array([results[i].out.g_hat for i in good])
        diag = {
            "tv_p50": float(np.median(0.5 * np.abs(est - p).sum(axis=1))),
            "log_err_p50": float(np.median(np.abs(np.log(g_hat / exact.g)))),
            "steps_mean": float(np.mean([results[i].out.steps for i in good])),
        }
        if n < MIN_REPLICATES:
            return reasons, diag
        k = gaussian_k(alpha)
        ratio = g_hat / exact.g
        bound = k * math.sqrt(float(np.mean((ratio - 1.0) ** 2)) / n)
        d = g_hat[:, None] * (est - p)
        se = np.maximum(
            np.sqrt(np.mean(d * d, axis=0)) / (math.sqrt(n) * g_hat.mean()),
            np.sqrt(p * (1.0 - p) / (self.n * n)),
        )
        pooled_tv = 0.5 * float(np.abs(d.sum(axis=0) / g_hat.sum()).sum())
        tol = 0.5 * k * float(se.sum())
        why = None
        if abs(ratio.mean() - 1.0) > bound:
            why = f"mean g_hat / g - 1 = {ratio.mean() - 1.0:.4g} outside +-{bound:.4g}"
        elif pooled_tv > tol:
            why = f"pooled posterior TV {pooled_tv:.4g} > {tol:.4g}"
        if why is not None:
            reasons = [r or why for r in reasons]
        return reasons, diag


class A1Pwp(SmcWorkload):
    engine, n = "pwp", 1000
    pair = staticmethod(a1_pair)


class TrieIs(SmcWorkload):
    engine, n = "is", 1000
    pair = staticmethod(trie_pair)


# ---------------------------------------------------------------------------
# Batch sampler kernels at V = 1e5

VOCAB = 100_000
VALID = 100
ZS = (1e-2, 1e-1, 9e-1)
Z_LABEL = {1e-2: "1e-2", 1e-1: "1e-1", 9e-1: "9e-1"}
DRAWS = 1000
WARM_DRAWS = 10
EXTRA_LOOPS, BUDGET, THETA0, THETA1 = 1, 8, 0.25, 0.75
KERNELS = {
    "rs": (rs_batch, {}),
    "ars": (ars_batch, {}),
    "wrs": (wrs_batch, {"extra_loops": EXTRA_LOOPS}),
    "awrs": (awrs_batch, {}),
    "cawrs": (cawrs_batch, {"theta0": THETA0, "theta1": THETA1}),
    "cwrs": (cwrs_batch, {"extra_loops": EXTRA_LOOPS, "budget": BUDGET}),
    "gawrs": (gawrs_batch, {"extra_loops": EXTRA_LOOPS, "budget": BUDGET}),
    "rawrs": (rawrs_batch, {"budget": BUDGET}),
}
# Documented per-draw constraint-call caps.
CAPS = {
    "cwrs": BUDGET + EXTRA_LOOPS + 1,
    "gawrs": BUDGET + EXTRA_LOOPS + 1,
    "rawrs": BUDGET + 1,
}
UNWEIGHTED = ("rs", "ars")


class KernelWorkload:
    """Ops are single ``*_batch`` calls of DRAWS rows on ``placed_mass_instance(1e5, z, k=100)``."""

    def __init__(self, seed: int):
        self.seed = seed
        self.instances = {z: placed_mass_instance(VOCAB, z, VALID) for z in ZS}
        self.cycle = [(name, z) for z in ZS for name in KERNELS]

    def sizes(self) -> dict:
        return {
            "vocab": VOCAB,
            "valid_tokens": VALID,
            "z": list(ZS),
            "draws_per_op": DRAWS,
            "samplers": list(KERNELS),
            "extra_loops": EXTRA_LOOPS,
            "budget": BUDGET,
            "theta": [THETA0, THETA1],
        }

    def warm(self):
        for key in self.cycle:
            self.run(key, WARM, 0, draws=WARM_DRAWS)

    def run(self, key, phase: int, j: int, tracer: Tracer | None = None, draws: int = DRAWS) -> OpResult:
        name, z = key
        prior, valid = self.instances[z]
        fn, params = KERNELS[name]
        c = mask_constraint(valid)
        counter = c.counter
        rng_of = make_rng
        if tracer is not None:
            tracer.op = j
            c = traced_constraint(c, tracer)
            rng_of = tracer.wrap("rng.make_rng", make_rng)
            fn = tracer.wrap("samplers.batch", fn)

        def op():
            return fn(prior, c, draws, rng_of(self.seed, phase, j), **params)

        out, error, latency = _timed(op)
        if tracer is not None:
            tracer.fold()
        return OpResult(key, latency, draws if error is None else 0, counter.count, out, error)

    def reference(self):
        self.awrs_expected = {
            z: analytics.awrs_expected_calls(prior, valid, EXTRA_LOOPS) for z, (prior, valid) in self.instances.items()
        }

    def n_checks(self, results: list[OpResult]) -> int:
        weighted = sum(1 for r in results if r.key[0] not in UNWEIGHTED)
        cells = {r.key for r in results if r.key[0] not in UNWEIGHTED}
        return weighted + len(cells)

    def check(self, results: list[OpResult], alpha: float) -> tuple[list[str | None], dict]:
        """Per-op failure reasons (None = passed).

        Deterministic: unweighted samplers return only valid tokens; weighted
        ones return finite zhat >= 0 and a valid token wherever zhat > 0;
        trials stay within the documented caps. Statistical: mean zhat of
        the op's draws, and of all draws of its (sampler, z) cell in the
        run, lies within the empirical Bernstein half-width of z at
        ``alpha`` (zhat is in [0, 1] for every weighted sampler here); a
        cell failure fails every op of the cell.
        """
        reasons: list[str | None] = []
        pooled: dict[tuple, list[np.ndarray]] = {}
        for r in results:
            reasons.append(r.error or self._check_op(r, alpha))
            if r.error is None and r.key[0] not in UNWEIGHTED:
                pooled.setdefault(r.key, []).append(r.out.zhats)
        for key, parts in pooled.items():
            zhats = np.concatenate(parts)
            half = bernstein_halfwidth(zhats, alpha)
            if abs(zhats.mean() - key[1]) > half:
                why = f"{key[0]} z={key[1]}: pooled mean zhat {zhats.mean():.5g} outside z +- {half:.3g}"
                for i, r in enumerate(results):
                    if r.key == key and reasons[i] is None:
                        reasons[i] = why
        return reasons, {}

    def _check_op(self, r: OpResult, alpha: float) -> str | None:
        name, z = r.key
        _, valid = self.instances[z]
        out = r.out
        if name in CAPS and int(out.trials.max()) > CAPS[name]:
            return f"{name}: {int(out.trials.max())} trials > cap {CAPS[name]}"
        if name in UNWEIGHTED:
            return None if bool(valid[out.tokens].all()) else f"{name}: invalid token returned"
        zhats = out.zhats
        if not bool(np.all(np.isfinite(zhats) & (zhats >= 0.0))):
            return f"{name}: zhat not finite and >= 0"
        if not bool(valid[out.tokens[zhats > 0]].all()):
            return f"{name}: invalid token with zhat > 0"
        half = bernstein_halfwidth(zhats, alpha)
        if abs(zhats.mean() - z) > half:
            return f"{name} z={z}: mean zhat {zhats.mean():.5g} outside z +- {half:.3g}"
        return None

    def cell_metrics(self, results: list[OpResult]) -> dict[str, float]:
        """Per-sampler layer metrics from the untraced ops."""
        m: dict[str, float] = {}
        for name in KERNELS:
            dead, draws, trials_max = 0, 0, 0
            for z in ZS:
                cell = [r for r in results if r.key == (name, z) and r.error is None]
                n = sum(r.draws for r in cell)
                prefix = f"samplers.{name}.z{Z_LABEL[z]}"
                calls = sum(r.calls for r in cell) / n if n else 0.0
                m[f"{prefix}.us_per_draw"] = 1e6 * sum(r.latency for r in cell) / n if n else 0.0
                m[f"{prefix}.calls_per_draw"] = calls
                if name in ("rs", "wrs", "awrs"):
                    expected = {
                        "rs": 1.0 / z,
                        "wrs": analytics.wrs_expected_calls(z, EXTRA_LOOPS),
                        "awrs": self.awrs_expected[z],
                    }[name]
                    m[f"{prefix}.calls_vs_analytic"] = calls / expected
                for r in cell:
                    draws += r.draws
                    trials_max = max(trials_max, int(r.out.trials.max()))
                    if name not in UNWEIGHTED:
                        dead += int(np.count_nonzero(r.out.zhats == 0.0))
            if name not in UNWEIGHTED:
                m[f"samplers.{name}.dead_frac"] = dead / draws if draws else 0.0
            m[f"samplers.{name}.trials_max"] = float(trials_max)
        return m


WORKLOADS = {
    "a1_pwp": A1Pwp,
    "trie_is": TrieIs,
    "kernels_v1e5": KernelWorkload,
}
