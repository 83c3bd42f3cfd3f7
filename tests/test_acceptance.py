"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance here is pinned from the project contract; nothing is
deferred to later calibration. Run with ``pytest tests/test_acceptance.py``
(the verdict lines bypass pytest capture).

Criterion 8 is the explicit non-goal: the large-model benchmark tables
are not reproducible at desk scale and are substituted by criteria 1-7;
the test checks that the README says so.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from zest import samplers as S
from zest.constraints import TrieLanguage, mask_constraint
from zest.oracle import global_posterior
from zest.rng import make_rng
from zest.simharness import bias_experiment, placed_mass_instance, random_instance, runtime_heatmap
from zest.smc import lcd_generate, smc_pwp
from zest.toylm import example_a1, random_lm

SEED = 0


def verdict(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def tv_dicts(a, b):
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def test_criterion_1_exactness_vs_masking_oracle(capsys):
    """ars/wrs/awrs all match the masked posterior in TV."""
    n = 10**5
    budget_s = 120.0
    runners = {
        "ars": lambda p, c, r: S.ars_batch(p, c, n, r).tokens,
        "wrs": lambda p, c, r: S.wrs_batch(p, c, n, r).tokens,
        "awrs": lambda p, c, r: S.awrs_batch(p, c, n, r).tokens,
    }
    t0 = time.perf_counter()
    worst = {}
    for i in range(20):
        prior, valid = random_instance(50, make_rng(SEED, 2, i))
        post = np.where(valid, prior.probs, 0.0)
        post = post / post.sum()
        for name, fn in runners.items():
            tokens = fn(prior, mask_constraint(valid), make_rng(SEED, 3, i))
            emp = np.bincount(tokens, minlength=50) / n
            tv = 0.5 * float(np.abs(emp - post).sum())
            worst[name] = max(worst.get(name, 0.0), tv)
    elapsed = time.perf_counter() - t0
    ok = all(v < 0.01 for v in worst.values()) and elapsed <= budget_s
    detail = (
        f"20 instances (V=50), 1e5 draws: worst TV "
        + ", ".join(f"{k}={v:.4f}" for k, v in worst.items())
        + f" (tol 0.01); elapsed {elapsed:.0f}s (budget 120s)"
    )
    verdict(capsys, 1, ok, detail)


def test_criterion_2_estimator_error_shrinks(capsys):
    """Median |mean(zhat) - z| falls monotonically in the sample count."""
    budget_s = 300.0
    t0 = time.perf_counter()
    res = bias_experiment(vocab=1000, n_instances=100, n_grid=[100, 1000, 10000], seed=SEED)
    elapsed = time.perf_counter() - t0
    medians = {}
    for name in ("wrs", "awrs"):
        for n in (100, 1000, 10000):
            errs = [
                r["value"]
                for r in res.rows
                if r["metric"] == "abs_err" and r["sampler"] == name and r["N"] == n
            ]
            assert len(errs) == 100
            medians[(name, n)] = float(np.median(errs))
    mono = all(
        medians[(s, 100)] > medians[(s, 1000)] > medians[(s, 10000)] for s in ("wrs", "awrs")
    )
    ok = mono and elapsed <= budget_s
    detail = (
        "median MAE over 100 instances (V=1000): "
        + "; ".join(
            f"{s}: " + " > ".join(f"{medians[(s, n)]:.5f}" for n in (100, 1000, 10000))
            for s in ("wrs", "awrs")
        )
        + f"; elapsed {elapsed:.0f}s (budget 300s)"
    )
    verdict(capsys, 2, ok, detail)


def test_criterion_3_variance_and_cost_trade(capsys):
    """Var(zhat) never grows with extra loops; mean calls track (L+1)/z."""
    l_grid = (1, 2, 4, 8)
    runs = 10**6
    all_mono = True
    worst_rel = 0.0
    for z, k in ((0.2, 5), (0.4, 10), (0.6, 20)):
        prior, valid = placed_mass_instance(50, z, k)
        variances = []
        for j, L in enumerate(l_grid):
            out = S.wrs_batch(
                prior, mask_constraint(valid), runs, make_rng(SEED, 4, int(z * 100), j), extra_loops=L
            )
            variances.append(float(np.var(out.zhats)))
            rel = abs(float(out.trials.mean()) - (L + 1) / z) / ((L + 1) / z)
            worst_rel = max(worst_rel, rel)
        all_mono &= all(a >= b for a, b in zip(variances, variances[1:]))
    ok = all_mono and worst_rel <= 0.02
    detail = (
        f"3 fixed instances, L in {list(l_grid)} at 1e6 runs: variance non-increasing={all_mono}, "
        f"worst |calls-(L+1)/z| rel err {worst_rel:.5f} (tol 0.02)"
    )
    verdict(capsys, 3, ok, detail)


def test_criterion_4_adaptive_cost_law_heatmap(capsys):
    """Dense (z, k) tiling at V=10: cost law within 4 sigma, cap intact."""
    budget_s = 600.0
    runs = 10**4
    t0 = time.perf_counter()
    res = runtime_heatmap(vocab=10, runs_per_cell=runs, seed=SEED, dense=True)
    elapsed = time.perf_counter() - t0
    cells = {}
    for r in res.rows:
        cells.setdefault((r["Z"], r["K"]), {})[(r["sampler"], r["metric"])] = r["value"]
    n_cells = len(cells)
    bad = 0
    cap_ok = True
    for (z, k), vals in cells.items():
        emp = vals[("awrs", "mean_calls")]
        law = vals[("awrs-analytic", "expected_calls")]
        sigma = vals[("awrs", "sd_calls")] / np.sqrt(runs)
        if abs(emp - law) > 4 * max(sigma, 1e-12):
            bad += 1
        cap_ok &= vals[("awrs", "max_calls")] <= 10 - k + 2
    ok = n_cells == 171 and bad <= 0.01 * n_cells and cap_ok and elapsed <= budget_s
    detail = (
        f"{n_cells} cells at 1e4 runs/cell: {n_cells - bad}/{n_cells} within 4 sigma of the "
        f"analytic law (need >=99%), trial cap <= V-K+2 held={cap_ok}; "
        f"elapsed {elapsed:.0f}s (budget 600s)"
    )
    verdict(capsys, 4, ok, detail)


def test_criterion_5_end_to_end_bias_correction(capsys):
    """The corrected posterior and the biased local rollouts coexist."""
    lm = example_a1()
    lang = TrieLanguage(["aa", "ba"], alphabet=lm.alphabet)
    # P(aa) has SD 0.0017 across seeds at N = 1e5, so +-0.01 is 5.7 SD.
    ens = smc_pwp(lm, lang, proposal="awrs", n_particles=10**5, tau=0.5, seed=SEED)
    post = ens.posterior_estimate
    n_roll = 10**4
    first_a = sum(
        lcd_generate(lm, lang, make_rng(SEED, 8, i))[0] == "a" for i in range(n_roll)
    ) / n_roll
    d_aa = abs(post.get("aa", 0.0) - 0.083333)
    d_ba = abs(post.get("ba", 0.0) - 0.916667)
    d_roll = abs(first_a - 0.9)
    ok = d_aa <= 0.01 and d_ba <= 0.01 and d_roll <= 0.01
    detail = (
        f"corrected posterior aa={post.get('aa', 0.0):.4f} (target 0.0833 +-0.01), "
        f"ba={post.get('ba', 0.0):.4f} (target 0.9167 +-0.01); "
        f"local rollout first-symbol a-rate {first_a:.4f} (target 0.9 +-0.01)"
    )
    verdict(capsys, 5, ok, detail)


def test_criterion_6_proper_weighting_all_weighted_samplers(capsys):
    """E[zhat * indicator] = z * post for every sampler, instance, token."""
    n = 10**6
    L, R = 1, 5
    theta0, theta1 = 0.25, 0.75
    runners = {
        "wrs": lambda p, c, r: S.wrs_batch(p, c, n, r, extra_loops=L),
        "awrs": lambda p, c, r: S.awrs_batch(p, c, n, r),
        "cawrs": lambda p, c, r: S.cawrs_batch(p, c, n, r, theta0, theta1),
        "cwrs": lambda p, c, r: S.cwrs_batch(p, c, n, r, L, R),
        "gawrs": lambda p, c, r: S.gawrs_batch(p, c, n, r, L, R),
        "rawrs": lambda p, c, r: S.rawrs_batch(p, c, n, r, R),
    }
    failures = 0
    checks = 0
    budget_ok = True
    for i in range(10):
        prior, valid = random_instance(20, make_rng(SEED, 6, i))
        target = np.where(valid, prior.probs, 0.0)
        for s_idx, (name, fn) in enumerate(runners.items()):
            out = fn(prior, mask_constraint(valid), make_rng(SEED, 7, i, s_idx))
            if name in ("cwrs", "gawrs"):
                budget_ok &= bool(np.all(out.trials <= R + L + 1))
            elif name == "rawrs":
                budget_ok &= bool(np.all(out.trials <= R + 1))
            for t in range(20):
                vals = out.zhats * (out.tokens == t)
                mean = float(vals.mean())
                bound = max(4 * float(vals.std()) / np.sqrt(n), 1e-7)
                checks += 1
                failures += abs(mean - target[t]) > bound
    ok = failures == 0 and budget_ok
    detail = (
        f"{checks} indicator checks ({len(runners)} samplers x 10 instances x 20 tokens at 1e6 draws): "
        f"{failures} outside 4 sigma; budget cap R+L+1 held={budget_ok}"
    )
    verdict(capsys, 6, ok, detail)


def test_criterion_7_smc_posterior_convergence(capsys):
    """Corrected SMC reaches the enumerated global posterior in TV."""
    worst = 0.0
    for i in range(20):
        lm = random_lm(1000 + i, alphabet_size=3, k=1, max_len=5)
        rng = make_rng(SEED, 5, i)
        support = sorted(lm.enumerate_support(), key=lambda sp: -sp[1])
        n_lang = int(rng.integers(3, 7))
        strings = [s for s, _ in support[:n_lang]]
        lang = TrieLanguage(strings, alphabet=lm.alphabet)
        ens = smc_pwp(lm, lang, proposal="awrs", n_particles=10**4, tau=0.5, seed=9000 + i)
        exact = global_posterior(lm, lang).dist
        worst = max(worst, tv_dicts(ens.posterior_estimate, exact))
    ok = worst < 0.05
    detail = f"20 random (model, language) pairs at 1e4 particles: worst TV {worst:.4f} (tol 0.05)"
    verdict(capsys, 7, ok, detail)


def test_criterion_8_out_of_scope_documented(capsys):
    """Large-model benchmark tables are declared out of desk-scale scope."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").lower().split())
    ok = "not reproduc" in text.replace("**", "") and "desk scale" in text
    detail = "README documents the non-reproduced large-model benchmarks and the substitution"
    verdict(capsys, 8, ok, detail)
