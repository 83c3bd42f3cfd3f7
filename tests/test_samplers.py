"""Sampler family: exactness, unbiased weights, budgets, determinism.

The weighted samplers are checked two ways. Exact: an independent trace
enumerator (tests/enumeration.py) walks every possible run of the defining
process and certifies proper weighting trace-by-trace. Monte Carlo: the
library kernels must then reproduce the enumerator's expected weight,
call count and output marginals within four standard errors.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import enumeration as en
from zest.constraints import TokenConstraint, mask_constraint
from zest.dist import Categorical, normalize, sample, sample_many
from zest.errors import NoValidToken
from zest.oracle import token_mask
from zest.rng import make_rng
from zest import samplers
from zest.samplers import (
    ars_batch,
    awrs_batch,
    cawrs_batch,
    cwrs_batch,
    gawrs_batch,
    rawrs_batch,
    rs_batch,
    top_p_compose,
    wrs_batch,
)
from zest.simharness import placed_mass_instance
from zest.smc import weighted_proposal

P3 = np.array([0.5, 0.3, 0.2])
V3_LAST = np.array([False, False, True])
P5 = np.array([0.35, 0.25, 0.2, 0.15, 0.05])
V5 = np.array([False, True, False, True, False])


def c_of(valid):
    return mask_constraint(np.asarray(valid, dtype=bool))


class TestSimpleRejection:
    def test_vacuous_constraint_returns_first_draw(self):
        dist = normalize([1, 2, 3, 4])
        tok_direct = sample(dist, make_rng(5))
        tok_rs = rs_batch(dist, c_of([1, 1, 1, 1]), 1, make_rng(5)).tokens[0]
        assert tok_rs == tok_direct

    def test_vacuous_constraint_single_trial(self):
        out = rs_batch(normalize([1, 1]), c_of([1, 1]), 1000, make_rng(0))
        assert np.all(out.trials == 1)

    def test_geometric_cost_and_exact_output(self):
        # z = 0.2, so mean trials is 1/z = 5; 4 sigma at 1e5 runs is 0.057.
        out = rs_batch(Categorical(P3), c_of(V3_LAST), 10**5, make_rng(1))
        assert np.all(out.tokens == 2)
        assert abs(out.trials.mean() - 5.0) <= 0.1

    def test_point_mass_on_valid_token(self):
        out = rs_batch(Categorical(np.array([0.0, 1.0])), c_of([0, 1]), 100, make_rng(2))
        assert np.all(out.tokens == 1)
        assert np.all(out.trials == 1)


# Each kernel on the point mass Categorical([0, 0, 1]) at n = 4, with its
# token valid and then invalid (z = 0): every row's trials and zhat (None
# for a kernel without estimates), the evaluations counted and whether the
# generator moved. Trials None means the call raises NoValidToken.
POINT_MASS = {
    "rs": ((1, None, 4, False), (None, None, 13, False)),
    "ars": ((1, None, 4, False), (None, None, 4, False)),
    "wrs": ((2, 1.0, 8, False), (None, None, 13, False)),
    "awrs": ((2, 1.0, 8, False), (None, None, 4, False)),
    "cawrs": ((2, 1.0, 8, False), (1, 0.0, 4, False)),
    "cwrs": ((2, 1.0, 8, False), (8, 0.0, 32, False)),
    "gawrs": ((2, 1.0, 8, True), (1, 0.0, 4, True)),
    "rawrs": ((1, 1.0, 4, False), (1, 0.0, 4, False)),
}


class TestPointMass:
    """A prior with one supported token, as every ToyLM's forced end-of-string is."""

    @pytest.mark.parametrize("valid", [True, False])
    @pytest.mark.parametrize("name", sorted(POINT_MASS))
    def test_outcome(self, name, valid):
        trials, zhat, evaluations, moved = POINT_MASS[name][not valid]
        prior = Categorical(np.array([0.0, 0.0, 1.0]))
        c = c_of([not valid, not valid, valid])
        rng = make_rng(3)
        kernel = getattr(samplers, f"{name}_batch")
        if trials is None:
            with pytest.raises(NoValidToken):
                kernel(prior, c, 4, rng)
        else:
            out = kernel(prior, c, 4, rng)
            np.testing.assert_array_equal(out.tokens, np.full(4, 2))
            np.testing.assert_array_equal(out.trials, np.full(4, trials))
            if zhat is None:
                assert not hasattr(out, "zhats")
            else:
                np.testing.assert_array_equal(out.zhats, np.full(4, zhat))
        assert c.counter.count == evaluations
        assert (rng.random() != make_rng(3).random()) == moved


class TestAdaptiveRejection:
    def test_exactness_single_valid_token(self):
        out = ars_batch(Categorical(P3), c_of(V3_LAST), 10**5, make_rng(3))
        assert np.all(out.tokens == 2)

    def test_worst_case_trial_bound(self):
        # All tokens invalid except one with tiny mass: at most V trials.
        probs = normalize([10, 10, 10, 10, 0.001])
        valid = [0, 0, 0, 0, 1]
        out = ars_batch(probs, c_of(valid), 5000, make_rng(4))
        assert np.all(out.trials <= 5)
        assert np.all(out.tokens == 4)

    def test_vacuous_matches_direct_sample(self):
        dist = normalize([1, 2, 3])
        assert ars_batch(dist, c_of([1, 1, 1]), 1, make_rng(6)).tokens[0] == sample(dist, make_rng(6))

    def test_output_matches_masked_posterior(self):
        rng = make_rng(8)
        probs = rng.dirichlet(np.ones(20))
        valid = rng.random(20) < 0.5
        if probs[valid].sum() == 0:
            valid[0] = True
        prior = Categorical(probs)
        out = ars_batch(prior, c_of(valid), 4 * 10**4, make_rng(9))
        post = np.where(valid, probs, 0)
        post = post / post.sum()
        emp = np.bincount(out.tokens, minlength=20) / out.tokens.size
        assert 0.5 * np.abs(emp - post).sum() < 0.02


class TestWeightedRejection:
    def test_estimate_formula_from_counts(self):
        # trials = rejections + (L + 1), so zhat must equal L/(n+L) exactly.
        for L in (1, 2, 4):
            out = wrs_batch(Categorical(P3), c_of(V3_LAST), 2000, make_rng(10), extra_loops=L)
            n = out.trials - (L + 1)
            np.testing.assert_allclose(out.zhats, L / (n + L))

    def test_concrete_formula_value(self):
        # Three rejections across the loops at L=1: zhat = 1/(3+1).
        assert 1 / (3 + 1) == pytest.approx(0.25)
        out = wrs_batch(Categorical(P3), c_of(V3_LAST), 4000, make_rng(11))
        picked = out.zhats[out.trials == 5]  # n = 3 under L = 1
        assert picked.size > 0
        np.testing.assert_allclose(picked, 0.25)

    def test_no_rejections_gives_unit_weight(self):
        out = wrs_batch(normalize([1, 1]), c_of([1, 1]), 500, make_rng(12))
        np.testing.assert_allclose(out.zhats, 1.0)
        assert np.all(out.trials == 2)

    def test_unbiased_at_known_z(self):
        # Unbiasedness at scale: mean zhat within 0.002 of z = 0.2 at 1e6 runs.
        out = wrs_batch(Categorical(P3), c_of(V3_LAST), 10**6, make_rng(13))
        assert np.all(out.tokens == 2)
        assert abs(out.zhats.mean() - 0.2) <= 0.002


def mc_against_oracle(batch_fn, traces, probs, n=150_000, seed=77):
    """Kernel statistics must match the trace enumerator within 4 SE."""
    prior = Categorical(np.asarray(probs, dtype=float))
    out = batch_fn(prior, n, make_rng(seed))
    assert en.check_total(traces) == pytest.approx(1.0, abs=1e-12)
    dz = abs(out.zhats.mean() - en.expected_weight(traces))
    dc = abs(out.trials.mean() - en.expected_calls(traces))
    assert dz <= max(4 * out.zhats.std() / np.sqrt(n), 1e-9)
    assert dc <= max(4 * out.trials.std() / np.sqrt(n), 1e-9)
    marg = en.output_marginals(traces, prior.vocab_size)
    emp = np.bincount(out.tokens, minlength=prior.vocab_size) / n
    assert 0.5 * np.abs(emp - marg).sum() < 0.01
    return out


def proper_weighting_exact(traces, probs, valid):
    """E[zhat * indicator(token)] equals prior mass for every valid token."""
    for t in range(len(probs)):
        target = probs[t] if valid[t] else 0.0
        assert en.expected_weight(traces, token=t) == pytest.approx(target, abs=1e-12)


class TestAdaptiveWeighted:
    def test_vacuous_both_loops_accept_immediately(self):
        out = awrs_batch(normalize([2, 3]), c_of([1, 1]), 400, make_rng(14))
        np.testing.assert_allclose(out.zhats, 1.0)
        assert np.all(out.trials == 2)

    def test_single_rejection_trace_weight(self):
        # One rejection of mass 0.3 among three trials: in the first loop
        # it yields zhat = (1 - 0.3) / (1 + 1) = 0.35, in the second loop
        # (1 - 0) / (1 + 1) = 0.5.
        out = awrs_batch(Categorical(np.array([0.7, 0.3])), c_of([1, 0]), 4000, make_rng(15))
        rejected_once = out.trials == 3
        zhats = out.zhats[rejected_once]
        first, second = np.isclose(zhats, 0.35), np.isclose(zhats, 0.5)
        assert np.all(first | second)
        assert first.any() and second.any()

    def test_enumeration_oracle_unbiased(self):
        traces = en.enumerate_awrs(P3.tolist(), V3_LAST.tolist())
        assert en.expected_weight(traces) == pytest.approx(0.2, abs=1e-12)
        proper_weighting_exact(traces, P3, V3_LAST)

    def test_kernel_matches_oracle(self):
        traces = en.enumerate_awrs(P5.tolist(), V5.tolist())
        proper_weighting_exact(traces, P5, V5)
        out = mc_against_oracle(lambda p, n, r: awrs_batch(p, c_of(V5), n, r), traces, P5)
        assert np.all(out.zhats > 0)

    def test_trial_cap_per_loop(self):
        # nrej is shared across loops: trials <= (#invalid) + 2 overall.
        rng = make_rng(16)
        probs = rng.dirichlet(np.ones(30))
        valid = np.zeros(30, dtype=bool)
        valid[[3, 11]] = True
        out = awrs_batch(Categorical(probs), c_of(valid), 20000, make_rng(17))
        assert np.all(out.trials <= 28 + 2)

    def test_eval_count_equals_total_trials(self):
        # The one without-replacement loop, at L = 0, at L = 1, and clipped
        # at thresholds that P5 crosses, so probes count too.
        for batch in (ars_batch, awrs_batch, cawrs_batch):
            c = c_of(V5)
            out = batch(Categorical(P5), c, 5000, make_rng(18))
            assert c.eval_count == int(out.trials.sum())

    def test_scalar_wrapper_fields(self):
        out = awrs_batch(Categorical(P5), c_of(V5), 1, make_rng(19))
        assert out.tokens[0] in (1, 3)
        assert 0 < out.zhats[0] <= 1
        assert out.trials[0] >= 2


class TestClippedAdaptive:
    def test_inactive_thresholds_reduce_to_plain_adaptive(self):
        # Total invalid mass is 0.6 < theta0, so the clipped process can
        # never hit a threshold and the trace trees must coincide.
        plain = en.enumerate_awrs(P5.tolist(), V5.tolist())
        clipped = en.enumerate_cawrs(P5.tolist(), V5.tolist(), 0.97, 0.98)
        assert sorted(plain) == sorted(clipped)
        # The kernels draw the same stream to the same arrays.
        a = awrs_batch(Categorical(P5), c_of(V5), 5000, make_rng(27))
        b = cawrs_batch(Categorical(P5), c_of(V5), 5000, make_rng(27), theta0=0.97, theta1=0.98)
        for field in ("tokens", "zhats", "trials"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_dead_samples_have_zero_weight_and_invalid_token(self):
        probs = np.array([0.6, 0.2, 0.2])
        valid = np.array([False, False, True])
        out = cawrs_batch(Categorical(probs), c_of(valid), 30000, make_rng(26), 0.5, 0.9)
        dead = out.zhats == 0.0
        assert dead.any()
        assert np.all(~valid[out.tokens[dead]])
        assert np.all(valid[out.tokens[~dead]])

    def test_enumeration_oracle_spec_instance(self):
        traces = en.enumerate_cawrs(P3.tolist(), V3_LAST.tolist(), 0.45, 0.9)
        assert en.expected_weight(traces) == pytest.approx(0.2, abs=1e-12)
        proper_weighting_exact(traces, P3, V3_LAST)

    def test_kernel_matches_oracle(self):
        # Thresholds chosen away from subset sums of the invalid masses so
        # float ties cannot flip a cutoff between oracle and kernel.
        traces = en.enumerate_cawrs(P5.tolist(), V5.tolist(), 0.3, 0.63)
        proper_weighting_exact(traces, P5, V5)
        mc_against_oracle(lambda p, n, r: cawrs_batch(p, c_of(V5), n, r, 0.3, 0.63), traces, P5)

    @pytest.mark.parametrize("theta0, theta1", [(0.2718281828, 0.7182818284), (0.1, 0.2)])
    def test_rejection_crossing_both_thresholds(self, theta0, theta1):
        # Rejecting token 3 (mass 5/8) crosses theta0 and theta1 at once, so
        # a valid probe starts the second loop already stopped.
        probs = [1 / 8, 1 / 8, 1 / 8, 5 / 8]
        valid = [False, False, True, False]
        traces = en.enumerate_cawrs(probs, valid, theta0, theta1)
        assert en.expected_weight(traces) == pytest.approx(0.125, abs=1e-12)
        proper_weighting_exact(traces, probs, valid)
        mc_against_oracle(lambda p, n, r: cawrs_batch(p, c_of(valid), n, r, theta0, theta1), traces, probs)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            cawrs_batch(Categorical(P3), c_of(V3_LAST), 1, make_rng(0), 0.7, 0.3)


class TestClippedWithReplacement:
    def test_acceptance_stop_estimate(self):
        # One rejection then the second acceptance at L=1: zhat = L/(r+L) = 1/2.
        traces = en.enumerate_cwrs([0.5, 0.5], [False, True], 1, 3)
        picked = [z for p, tok, z, calls in traces if calls == 3 and z > 0 and tok == 1]
        assert 0.5 in picked

    def test_rejection_stop_estimate(self):
        # Budget hit with one acceptance seen: zhat = s/(R+s-1) = 1/2 at R=2.
        traces = en.enumerate_cwrs([0.5, 0.5], [False, True], 1, 2)
        stopped = [z for p, tok, z, calls in traces if z == 0.5]
        assert stopped

    def test_enumeration_oracle_spec_instance(self):
        traces = en.enumerate_cwrs([0.5, 0.5], [False, True], 1, 3)
        assert en.expected_weight(traces) == pytest.approx(0.5, abs=1e-12)
        proper_weighting_exact(traces, [0.5, 0.5], [False, True])

    def test_kernel_matches_oracle(self):
        traces = en.enumerate_cwrs(P5.tolist(), V5.tolist(), 2, 4)
        proper_weighting_exact(traces, P5, V5)
        mc_against_oracle(lambda p, n, r: cwrs_batch(p, c_of(V5), n, r, 2, 4), traces, P5)

    def test_call_budget_never_exceeded(self):
        for L, R in ((1, 1), (1, 3), (2, 5)):
            out = cwrs_batch(Categorical(P3), c_of(V3_LAST), 20000, make_rng(27), L, R)
            assert np.all(out.trials <= R + L + 1)

    def test_zero_weight_samples_keep_first_draw(self):
        out = cwrs_batch(Categorical(P3), c_of(V3_LAST), 20000, make_rng(28), 1, 2)
        dead = out.zhats == 0.0
        assert dead.any()
        assert np.all(~V3_LAST[out.tokens[dead]])


class TestGeometricAdaptive:
    def test_no_removed_mass_means_no_phantoms(self):
        # All-valid instance: behaves like plain budgeted sampling, and the
        # trial count is exactly L+1 acceptances.
        out = gawrs_batch(normalize([1, 1]), c_of([1, 1]), 500, make_rng(29), 1, 5)
        assert np.all(out.trials == 2)
        np.testing.assert_allclose(out.zhats, 1.0)

    def test_unbiased_spec_instance(self):
        # Exact via enumeration, then Monte Carlo within 0.002 at 1e6 runs.
        traces = en.enumerate_gawrs([0.7, 0.3], [False, True], 1, 5)
        assert en.expected_weight(traces) == pytest.approx(0.3, abs=1e-12)
        out = gawrs_batch(
            Categorical(np.array([0.7, 0.3])), c_of([0, 1]), 10**6, make_rng(30), 1, 5
        )
        assert abs(out.zhats.mean() - 0.3) <= 0.002

    def test_kernel_matches_oracle(self):
        traces = en.enumerate_gawrs(P5.tolist(), V5.tolist(), 2, 4)
        proper_weighting_exact(traces, P5, V5)
        mc_against_oracle(lambda p, n, r: gawrs_batch(p, c_of(V5), n, r, 2, 4), traces, P5)

    def test_minimal_budget(self):
        out = gawrs_batch(Categorical(P3), c_of(V3_LAST), 20000, make_rng(31), 1, 1)
        assert np.all(out.trials <= 1 + 1 + 1)
        # With R=1 any rejection stops the run, so only the dead value and
        # the no-rejection estimates can occur; the mean stays unbiased.
        assert set(np.round(np.unique(out.zhats), 9)) <= {0.0, 1.0}
        exact = en.expected_weight(en.enumerate_gawrs(P3.tolist(), V3_LAST.tolist(), 1, 1))
        assert exact == pytest.approx(0.2, abs=1e-12)
        assert abs(out.zhats.mean() - exact) <= 4 * out.zhats.std() / np.sqrt(20000)

    def test_matches_with_replacement_law(self):
        # The phantom construction reproduces the with-replacement process
        # exactly: both enumerators give identical (weight, count) laws.
        g = en.enumerate_gawrs(P5.tolist(), V5.tolist(), 1, 3)
        c = en.enumerate_cwrs(P5.tolist(), V5.tolist(), 1, 3)
        assert en.expected_weight(g) == pytest.approx(en.expected_weight(c), abs=1e-12)
        for tok in range(5):
            assert en.expected_weight(g, token=tok) == pytest.approx(
                en.expected_weight(c, token=tok), abs=1e-12
            )
        assert en.expected_calls(g) <= en.expected_calls(c) + 1e-12


class TestRecursiveAdaptive:
    def test_every_trace_yields_exact_z_on_two_tokens(self):
        traces = en.enumerate_rawrs([0.7, 0.3], [False, True], 2)
        assert {round(z, 12) for _, _, z, _ in traces} == {0.3}

    def test_first_token_valid_probe_valid_unit_weight(self):
        out = rawrs_batch(normalize([1, 1]), c_of([1, 1]), 300, make_rng(32), 3)
        np.testing.assert_allclose(out.zhats, 1.0)

    def test_budget_one_invalid_first_draw_is_dead(self):
        out = rawrs_batch(Categorical(np.array([0.9, 0.1])), c_of([0, 1]), 20000, make_rng(33), 1)
        dead = out.tokens == 0
        assert dead.any()
        np.testing.assert_allclose(out.zhats[dead], 0.0)
        np.testing.assert_allclose(out.zhats[~dead], 1.0)
        assert abs(out.zhats.mean() - 0.1) <= 0.01

    def test_kernel_matches_oracle(self):
        traces = en.enumerate_rawrs(P5.tolist(), V5.tolist(), 3)
        proper_weighting_exact(traces, P5, V5)
        mc_against_oracle(lambda p, n, r: rawrs_batch(p, c_of(V5), n, r, 3), traces, P5)

    def test_call_cap_scan_plus_probe(self):
        for R in (1, 2, 4):
            out = rawrs_batch(Categorical(P5), c_of(V5), 20000, make_rng(34), R)
            assert np.all(out.trials <= R + 1)

    def test_drained_probe_pool(self):
        # Two tokens, both valid, budget deep enough that the probe pool
        # can drain: the weight is still exact.
        traces = en.enumerate_rawrs([0.6, 0.4], [True, True], 2)
        assert en.expected_weight(traces) == pytest.approx(1.0, abs=1e-12)
        out = rawrs_batch(normalize([0.6, 0.4]), c_of([1, 1]), 1000, make_rng(35), 2)
        np.testing.assert_allclose(out.zhats, 1.0)


@st.composite
def tiny_instance(draw):
    v = draw(st.integers(min_value=2, max_value=5))
    weights = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=v, max_size=v))
    valid = draw(st.lists(st.booleans(), min_size=v, max_size=v).filter(any))
    probs = np.array(weights, dtype=float)
    return (probs / probs.sum()).tolist(), valid


class TestProperWeightingProperty:
    """The enumerators certify E[zhat * f] = z * E_post[f] exactly."""

    @given(tiny_instance())
    @settings(max_examples=40, deadline=None)
    def test_adaptive(self, inst):
        probs, valid = inst
        traces = en.enumerate_awrs(probs, valid)
        assert en.check_total(traces) == pytest.approx(1.0, abs=1e-9)
        proper_weighting_exact(traces, probs, valid)

    @given(tiny_instance(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_recursive(self, inst, budget):
        probs, valid = inst
        traces = en.enumerate_rawrs(probs, valid, budget)
        proper_weighting_exact(traces, probs, valid)

    @given(tiny_instance(), st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_budgeted(self, inst, L, R):
        probs, valid = inst
        proper_weighting_exact(en.enumerate_cwrs(probs, valid, L, R), probs, valid)
        proper_weighting_exact(en.enumerate_gawrs(probs, valid, L, R), probs, valid)

    @given(tiny_instance())
    @settings(max_examples=25, deadline=None)
    def test_clipped(self, inst):
        probs, valid = inst
        # Thresholds strictly between subset sums cannot tie.
        traces = en.enumerate_cawrs(probs, valid, 0.2718281828, 0.7182818284)
        proper_weighting_exact(traces, probs, valid)


# Raw masses that stress float arithmetic: zero, denormals, masses far
# below the rounding error of 1, and masses that make the total round to 1.
EDGE_MASSES = (0.0, 5e-324, 1e-310, 1e-300, 1e-19, 1e-12, 0.25, 0.5, 1.0)


@st.composite
def adversarial_instance(draw):
    v = draw(st.integers(min_value=1, max_value=6))
    raw = draw(st.lists(st.sampled_from(EDGE_MASSES), min_size=v, max_size=v).filter(lambda w: sum(w) > 0))
    probs = np.array(raw) / sum(raw)
    valid = np.array(draw(st.lists(st.booleans(), min_size=v, max_size=v)))
    # At least one valid token with positive mass (z > 0), possibly the only
    # valid one and possibly denormal.
    valid[draw(st.sampled_from(np.flatnonzero(probs > 0).tolist()))] = True
    return probs, valid


# Per kernel: a run of 64 draws given (prior, constraint, rng, L, R), and
# its documented cap on constraint calls given (#invalid tokens, L, R).
EDGE_KERNELS = {
    "ars": (lambda p, c, r, L, R: ars_batch(p, c, 64, r), lambda inv, L, R: inv + 1),
    "awrs": (lambda p, c, r, L, R: awrs_batch(p, c, 64, r), lambda inv, L, R: inv + 2),
    "cawrs": (lambda p, c, r, L, R: cawrs_batch(p, c, 64, r, 0.25, 0.75), lambda inv, L, R: inv + 2),
    "rawrs": (lambda p, c, r, L, R: rawrs_batch(p, c, 64, r, R), lambda inv, L, R: R + 1),
    "cwrs": (lambda p, c, r, L, R: cwrs_batch(p, c, 64, r, L, R), lambda inv, L, R: R + L + 1),
    "gawrs": (lambda p, c, r, L, R: gawrs_batch(p, c, 64, r, L, R), lambda inv, L, R: R + L + 1),
}


class TestBudgetedEdgeCases:
    """Every bounded-cost sampler stays sound on priors that break naive arithmetic."""

    @given(
        adversarial_instance(),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**16),
    )
    @example((np.array([1e-19, 0.5, 0.5]), np.array([True, False, False])), 1, 8, 0)
    @example((np.array([2e-323, 1.0]), np.array([True, False])), 1, 8, 0)
    @settings(max_examples=150, deadline=None)
    @pytest.mark.parametrize("name", list(EDGE_KERNELS))
    def test_finite_weights_capped_calls_valid_tokens(self, name, inst, L, R, seed):
        probs, valid = inst
        run, cap = EDGE_KERNELS[name]
        out = run(Categorical(probs), c_of(valid), make_rng(seed), L, R)
        assert np.all(out.trials <= cap(int(np.sum(~valid)), L, R))
        if name == "ars":
            assert np.all(valid[out.tokens])
        else:
            assert np.all(np.isfinite(out.zhats)) and np.all(out.zhats >= 0.0)
            assert np.all(valid[out.tokens[out.zhats > 0]])


Z0_PRIOR = np.array([0.5, 0.3, 0.2, 0.0])
Z0_VALID = np.zeros(4, dtype=bool)


class TestZeroValidMass:
    """At z = 0 exact samplers raise; clipped and budgeted ones return dead rows."""

    @pytest.mark.parametrize("budget", [1, 3, 8])
    @pytest.mark.parametrize("name", ["rawrs", "cwrs", "gawrs"])
    def test_budgeted_kernels_return_dead_rows(self, name, budget):
        run, cap = EDGE_KERNELS[name]
        out = run(Categorical(Z0_PRIOR), c_of(Z0_VALID), make_rng(50), 1, budget)
        assert np.all(out.zhats == 0.0)
        assert np.all(out.trials <= cap(4, 1, budget))

    @pytest.mark.parametrize("theta0, theta1", [(0.25, 0.75), (0.6, 0.9), (0.97, 0.98)])
    def test_clipped_kernel_returns_dead_rows(self, theta0, theta1):
        out = cawrs_batch(Categorical(Z0_PRIOR), c_of(Z0_VALID), 64, make_rng(51), theta0, theta1)
        assert np.all(out.zhats == 0.0)
        assert np.all(out.trials <= 4 + 2)

    @pytest.mark.parametrize(
        "batch", [ars_batch, awrs_batch, rs_batch, wrs_batch], ids=["ars", "awrs", "rs", "wrs"]
    )
    def test_exact_kernels_raise(self, batch):
        with pytest.raises(NoValidToken):
            batch(Categorical(Z0_PRIOR), c_of(Z0_VALID), 64, make_rng(52))

    @pytest.mark.parametrize("batch", [rs_batch, wrs_batch], ids=["rs", "wrs"])
    def test_support_check_counts_calls_not_trials(self, batch):
        # At z = 1e-3 and V = 2 the call outlives its second round, so it
        # evaluates the 2-token support once, beside the rows' own trials.
        c = c_of([False, True])
        out = batch(Categorical(np.array([0.999, 0.001])), c, 50, make_rng(53))
        assert np.all(out.tokens == 1)
        assert c.eval_count == int(out.trials.sum()) + 2


# Valid mass far below the rounding error of 1, down to a denormal; the
# first prior and the last one sum to 1 only within SUM_TOL.
SMALL_Z_PRIORS = ([1e-12, 1.0], [1e-17, 1.0], [2e-323, 1.0], [0.5, 0.3, 0.2 + 5e-10])
SMALL_Z_KERNELS = {
    "awrs": (lambda p, c, n, r: awrs_batch(p, c, n, r), lambda pr, v: en.enumerate_awrs(pr, v)),
    "cawrs": (
        lambda p, c, n, r: cawrs_batch(p, c, n, r, 0.25, 0.75),
        lambda pr, v: en.enumerate_cawrs(pr, v, 0.25, 0.75),
    ),
    "rawrs": (lambda p, c, n, r: rawrs_batch(p, c, n, r, 8), lambda pr, v: en.enumerate_rawrs(pr, v, 8)),
}


class TestSmallValidMass:
    """The exact estimators keep z > 0 visible and estimate the unnormalized z."""

    @pytest.mark.parametrize("probs", SMALL_Z_PRIORS[:3], ids=["1e-12", "1e-17", "2e-323"])
    @pytest.mark.parametrize("name", list(SMALL_Z_KERNELS))
    def test_zhat_positive_on_every_row(self, name, probs):
        valid = np.array([True, False])
        out = SMALL_Z_KERNELS[name][0](Categorical(probs), c_of(valid), 64, make_rng(0))
        assert np.all(out.zhats > 0)
        assert np.all(valid[out.tokens])

    @pytest.mark.parametrize("probs", SMALL_Z_PRIORS, ids=["1e-12", "1e-17", "2e-323", "sum-1+5e-10"])
    @pytest.mark.parametrize("name", list(SMALL_Z_KERNELS))
    def test_unbiased_for_token_mask_z(self, name, probs):
        # The enumerated process has E[zhat] = token_mask z, and every row
        # the kernel returns is one of its traces, weight included.
        valid = np.zeros(len(probs), dtype=bool)
        valid[-1 if len(probs) > 2 else 0] = True
        prior, c = Categorical(probs), c_of(valid)
        run, enumerate_traces = SMALL_Z_KERNELS[name]
        traces = enumerate_traces(probs, valid.tolist())
        assert en.expected_weight(traces) == pytest.approx(token_mask(prior, c)[1], rel=1e-12, abs=0)
        out = run(prior, c, 2000, make_rng(1))
        for tok, zhat, calls in set(zip(out.tokens.tolist(), out.zhats.tolist(), out.trials.tolist())):
            weights = [z for _, t, z, k in traces if t == tok and k == calls]
            assert any(z == pytest.approx(zhat, rel=1e-12, abs=0) for z in weights), (tok, zhat, calls, weights)


def byte_edge_instance(vocab):
    """Invalid tokens on both sides of each byte edge (ids 7/8 and 15/16),
    carrying 0.9 of the mass, so that both the bit test and the unpacked
    exact fallback see them."""
    invalid = [t for t in (0, 7, 8, 15, 16) if t < vocab]
    valid = np.ones(vocab, dtype=bool)
    valid[invalid] = False
    rank = np.cumsum(valid)  # 1, 2, ... across the valid tokens
    weights = np.where(valid, 0.1 * rank / rank[valid].sum(), 0.9 / len(invalid))
    return Categorical(weights / weights.sum()), valid


class TestPackedPool:
    """The removed-token pool is one bit per token, packed eight to a byte."""

    @pytest.mark.parametrize("vocab", [8, 9, 17])
    def test_byte_edges(self, vocab):
        prior, valid = byte_edge_instance(vocab)
        n_invalid = int(np.sum(~valid))
        post, z = token_mask(prior, c_of(valid))
        n = 40_000
        ars = ars_batch(prior, c_of(valid), n, make_rng(60, vocab))
        awrs = awrs_batch(prior, c_of(valid), n, make_rng(61, vocab))
        assert np.all(ars.trials <= n_invalid + 1)
        assert np.all(awrs.trials <= n_invalid + 2)
        for out in (ars, awrs):
            emp = np.bincount(out.tokens, minlength=vocab) / n
            assert 0.5 * np.abs(emp - post.probs).sum() < 0.02
        assert abs(awrs.zhats.mean() - z) <= 4 * awrs.zhats.std() / np.sqrt(n)

    def test_exact_fallback_block_size_changes_nothing(self, monkeypatch):
        # Hundreds of these runs reach the exact fallback at once; it draws
        # its uniforms before splitting the rows into blocks.
        prior, valid = byte_edge_instance(17)
        runs = []
        for cells in (samplers._BLOCK_CELLS, 3 * 17):
            monkeypatch.setattr(samplers, "_BLOCK_CELLS", cells)
            runs.append(awrs_batch(prior, c_of(valid), 2000, make_rng(63)))
        for field in ("tokens", "zhats", "trials"):
            np.testing.assert_array_equal(getattr(runs[0], field), getattr(runs[1], field))

    def test_spare_pool_buffer_changes_nothing(self, monkeypatch):
        # A pool of at least 1 MiB (100 runs at V = 1e5 pack 1.25 MB) takes
        # the buffer that the last one released, rezeroed: a call after one
        # that removed many tokens matches a call with a fresh buffer.
        prior, valid = placed_mass_instance(10**5, 0.01, 100)
        c = c_of(valid)
        outs = []
        for dirty in (False, True):
            monkeypatch.setattr(samplers, "_spare", [])
            if dirty:
                ars_batch(prior, c, 200, make_rng(65))
                (buf,) = samplers._spare
            outs.append(awrs_batch(prior, c, 100, make_rng(66)))
        assert len(samplers._spare) == 1 and samplers._spare[0] is buf
        for field in ("tokens", "zhats", "trials"):
            np.testing.assert_array_equal(getattr(outs[0], field), getattr(outs[1], field))

    @pytest.mark.parametrize(
        "batch",
        [
            ars_batch,
            awrs_batch,
            lambda p, c, n, r: cawrs_batch(p, c, n, r, 0.3, 0.63),
            lambda p, c, n, r: gawrs_batch(p, c, n, r, 1, 4),
            lambda p, c, n, r: rawrs_batch(p, c, n, r, 4),
        ],
        ids=["ars", "awrs", "cawrs", "gawrs", "rawrs"],
    )
    def test_chunks_run_in_order_on_one_stream(self, batch, monkeypatch):
        # 20 runs at V = 17 (3 bytes of pool each) in chunks of 7, 7 and 6
        # runs draw what three calls of 7, 7 and 6 runs draw in turn.
        prior, valid = byte_edge_instance(17)
        rng = make_rng(67)
        calls = [batch(prior, c_of(valid), m, rng) for m in (7, 7, 6)]
        monkeypatch.setattr(samplers, "_CHUNK_BYTES", 21)
        c = c_of(valid)
        out = batch(prior, c, 20, make_rng(67))
        assert c.eval_count == int(out.trials.sum())
        for field in vars(out):
            np.testing.assert_array_equal(getattr(out, field), np.concatenate([getattr(p, field) for p in calls]))

    @pytest.mark.parametrize("batch", [awrs_batch, rawrs_batch], ids=["awrs", "rawrs"])
    def test_memory_at_large_vocab(self, batch, monkeypatch):
        # 1000 runs at V = 1e5 hold a 12.5 MB packed pool in one chunk.
        prior, valid = placed_mass_instance(10**5, 0.9, 100)
        c = c_of(valid)
        monkeypatch.setattr(samplers, "_spare", [])
        tracemalloc.start()
        try:
            batch(prior, c, 1000, make_rng(62))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_pool_total_is_the_summed_prior(self):
        # A row whose two loops accept at once rejects nothing, so its zhat is
        # the pool total. At V = 1e5 the sequential cumsum's last entry is off
        # by about 2.3e-12; the total must be the accurately summed prior.
        prior, valid = placed_mass_instance(10**5, 0.9, 100)
        out = awrs_batch(prior, c_of(valid), 1000, make_rng(64))
        clean = out.trials == 2
        assert clean.any()
        np.testing.assert_allclose(out.zhats[clean], math.fsum(prior.probs.tolist()), rtol=0, atol=1e-15)


def removed_bits(rem, rows):
    """(rows x V) 0/1 matrix of each row's removed tokens, for either kind of pool."""
    vocab = rem.prior.vocab_size
    packed = rem.byte[rows, None] if isinstance(rem, samplers._BytePool) else rem.bits[rows]
    return np.unpackbits(packed, axis=1, count=vocab, bitorder="little")


def count_draw(rem, rows, u):
    """The exact draw as a count of each row's cumulative pool masses at or below its uniform.

    Up to 8 tokens the masses are over the pool's own total and the count
    runs over the first V - 1 of them; past 8 the uniform is scaled by the
    total and kept below it.
    """
    c = np.cumsum(np.where(removed_bits(rem, rows), 0.0, rem.probs[None, :]), axis=1)
    tot = c[:, -1:]
    if rem.prior.vocab_size <= 8:
        return np.sum(c[:, :-1] / tot <= u[:, None], axis=1)
    ub = np.minimum(u[:, None] * tot, np.nextafter(tot, 0.0))
    return np.minimum(np.sum(c <= ub, axis=1), c.shape[1] - 1)


def remove(rem, removed):
    """Remove from row i of the pool the tokens where ``removed[i]`` is true."""
    for token in range(removed.shape[1]):
        rows = np.flatnonzero(removed[:, token])
        rem.add(rows, np.full(rows.shape[0], token))


def removed_at_random(rem, n, rng):
    """Remove a random set of the prior's support from each of n rows, keeping one token per row."""
    support = rem.prior.support()
    removed = np.zeros((n, rem.prior.vocab_size), dtype=bool)
    removed[:, support] = rng.random((n, support.shape[0])) < 0.5
    removed[np.arange(n), support[rng.integers(support.shape[0], size=n)]] = False
    remove(rem, removed)


class TestDrawStreams:
    """The pool's draws keep the streams and results of their plain formulations."""

    @pytest.mark.parametrize("vocab", [3, 40])
    def test_untouched_pool_draw_is_a_prior_draw(self, vocab):
        prior = normalize(make_rng(70, vocab).random(vocab))
        rem = samplers._new_pool(500, prior)
        rng, twin = make_rng(71, vocab), make_rng(71, vocab)
        np.testing.assert_array_equal(rem.draw(np.arange(500), rng), sample_many(prior, 500, twin))
        # Both generators stand at the same point of the stream.
        np.testing.assert_array_equal(rng.random(8), twin.random(8))
        # Once a row loses its likeliest token, its draws skip that token.
        rows = np.arange(0, 500, 2)
        top = int(np.argmax(prior.probs))
        rem.add(rows, np.full(rows.shape[0], top))
        assert not np.any(rem.draw(rows, rng) == top)

    @pytest.mark.parametrize("vocab", [6, 8, 20])
    def test_exact_draw_matches_count_formulation(self, vocab):
        # Zero-mass tokens at both ends and inside; up to 8 tokens a depleted
        # pool's every draw is exact, read from a per-byte table, past 8 the
        # exact draw reads the rows' own bits.
        g = make_rng(72, vocab)
        probs = g.random(vocab)
        probs[[0, vocab // 2, vocab - 1]] = 0.0
        rem = samplers._new_pool(400, normalize(probs))
        removed_at_random(rem, 400, g)
        rows = np.arange(400)
        u = g.random(400)
        draw = rem.draw if vocab <= 8 else rem._draw_exact
        np.testing.assert_array_equal(draw(rows, en.FixedUniforms(u)), count_draw(rem, rows, u))

    @pytest.mark.parametrize("vocab", [3, 8])
    def test_depleted_small_vocab_draws_exactly_first(self, vocab, monkeypatch):
        # At V <= 8 a depleted pool's draw is the exact draw, one uniform per
        # row, with no prior draw before it.
        def refuse(dist, n, rng):
            raise AssertionError("prior draw from a depleted pool at V <= 8")

        g = make_rng(75, vocab)
        rem = samplers._new_pool(400, normalize(g.random(vocab)))
        removed_at_random(rem, 400, g)
        monkeypatch.setattr(samplers, "sample_many", refuse)
        rows = np.arange(400)
        u = g.random(400)
        tokens = rem.draw(rows, en.FixedUniforms(u))
        np.testing.assert_array_equal(tokens, count_draw(rem, rows, u))
        assert not np.any(removed_bits(rem, rows)[rows, tokens])

    def test_depleted_pool_past_8_draws_from_prior_first(self, monkeypatch):
        # At V = 9 a depleted pool still draws every row from the prior first.
        g = make_rng(76)
        rem = samplers._new_pool(400, normalize(g.random(9)))
        removed_at_random(rem, 400, g)
        drawn = []
        draw_prior = samplers.sample_many

        def counted(dist, n, rng):
            drawn.append(n)
            return draw_prior(dist, n, rng)

        monkeypatch.setattr(samplers, "sample_many", counted)
        rows = np.arange(400)
        tokens = rem.draw(rows, make_rng(77))
        assert drawn[0] == 400
        assert not np.any(removed_bits(rem, rows)[rows, tokens])

    @pytest.mark.parametrize(
        "weights",
        [[0, 1, 0, 2, 1, 0], [0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 0]],
        ids=["table", "bits"],
    )
    def test_exact_draw_on_boundaries(self, weights):
        # Dyadic masses and uniforms make u land exactly on cumulative masses
        # (over the pool's total, or scaled by it), where a crossing taken at
        # ">=" would return a zero-mass or removed token.
        prior = normalize(np.array(weights, dtype=float))
        rem = samplers._new_pool(400, prior)
        removed_at_random(rem, 400, make_rng(73))
        rows = np.arange(400)
        u = make_rng(74).integers(0, 8, size=400) / 8.0
        draw = rem.draw if prior.vocab_size <= 8 else rem._draw_exact
        tokens = draw(rows, en.FixedUniforms(u))
        np.testing.assert_array_equal(tokens, count_draw(rem, rows, u))
        assert np.all(prior.probs[tokens] > 0)
        assert not np.any(removed_bits(rem, rows)[rows, tokens])


@st.composite
def byte_pool_case(draw):
    """A prior of at most 8 tokens with edge masses, 1-12 removed sets and a uniform per set."""
    v = draw(st.integers(min_value=1, max_value=8))
    mass = st.sampled_from(EDGE_MASSES) | st.floats(min_value=1e-3, max_value=1.0)
    raw = draw(st.lists(mass, min_size=v, max_size=v).filter(lambda w: sum(w) > 0))
    n = draw(st.integers(min_value=1, max_value=12))
    removed = draw(st.lists(st.integers(min_value=0, max_value=(1 << v) - 1), min_size=n, max_size=n))
    u = draw(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), min_size=n, max_size=n))
    bits = np.unpackbits(np.array(removed, dtype=np.uint8)[:, None], axis=1, count=v, bitorder="little")
    return normalize(raw), bits.astype(bool), np.array(u)


class TestBytePool:
    """Every answer of a pool over at most 8 tokens is a table lookup by its byte."""

    @given(byte_pool_case())
    @settings(max_examples=300, deadline=None)
    @example((Categorical(np.array([5e-324, 1.0])), np.array([[False, True], [False, False]]), np.array([0.5, 0.0])))
    def test_lookups_match_sums_over_the_pool(self, case):
        # Every prior's tables hold the empty pool (byte 2^V - 1), whose
        # column must be built without a 0 / 0 warning.
        prior, removed, u = case
        n = removed.shape[0]
        rem = samplers._BytePool(n, prior)
        remove(rem, removed)
        rows = np.arange(n)
        survivors = np.where(removed, 0.0, prior.probs)
        gone = np.where(removed, prior.probs, 0.0)
        left, lost = rem.left(rows), rem.removed_mass(rows)
        for i in range(n):
            exact = math.fsum(survivors[i].tolist())
            assert abs(left[i] - exact) <= 8 * math.ulp(exact)
            assert (left[i] > 0) == (exact > 0)
            exact = math.fsum(gone[i].tolist())
            assert abs(lost[i] - exact) <= 8 * math.ulp(exact)
        # gawrs's geometric draw takes max(1 - removed mass, 1e-300): in (0, 1].
        assert np.all(lost >= 0.0)
        p = np.maximum(1.0 - lost, 1e-300)
        assert np.all((p > 0.0) & (p <= 1.0))
        if not rem.depleted:
            return
        empty = left == 0.0
        if empty.any():
            with pytest.raises(NoValidToken):
                rem.draw(rows, en.FixedUniforms(u))
        rows, u = rows[~empty], u[~empty]
        if rows.size:
            tokens = rem.draw(rows, en.FixedUniforms(u))
            np.testing.assert_array_equal(tokens, count_draw(rem, rows, u))
            assert np.all(survivors[rows, tokens] > 0)


def peaked_instance(vocab):
    """A top token of mass 0.9 that is invalid; the other tokens share 0.1
    in proportion to their id, and every 7th of them is valid."""
    probs = np.arange(vocab, dtype=float)
    probs *= 0.1 / probs.sum()
    probs[0] = 0.9
    valid = np.zeros(vocab, dtype=bool)
    valid[1::7] = True
    return Categorical(probs / probs.sum()), valid


def binned_tv(tokens, post, bins=10):
    """TV between draw frequencies and ``post`` over contiguous id ranges."""
    edges = np.linspace(0, post.shape[0], bins + 1).astype(int)
    emp = np.bincount(tokens, minlength=post.shape[0]) / tokens.shape[0]
    return 0.5 * float(np.abs(np.add.reduceat(emp - post, edges[:-1])).sum())


class TestDepletedPool:
    """Rows whose removed tokens carry most of the prior redraw in batches."""

    @pytest.mark.parametrize(
        "instance",
        [
            (Categorical(np.array([0.01, 0.99, 0.0])), np.array([True, False, False])),
            peaked_instance(8),
            peaked_instance(9),
            peaked_instance(1000),
            peaked_instance(10**5),
        ],
        ids=["a1-step-a", "peaked-v8", "peaked-v9", "peaked-v1e3", "peaked-v1e5"],
    )
    def test_exact_tokens_and_unbiased_zhat(self, instance):
        prior, valid = instance
        post, z = token_mask(prior, c_of(valid))
        n = 20_000
        ars = ars_batch(prior, c_of(valid), n, make_rng(64))
        awrs = awrs_batch(prior, c_of(valid), n, make_rng(65))
        for out in (ars, awrs):
            assert np.all(valid[out.tokens])
            assert binned_tv(out.tokens, post.probs) < 0.02
        assert abs(awrs.zhats.mean() - z) <= 4 * awrs.zhats.std() / np.sqrt(n)

    def test_small_vocab_token_frequencies(self):
        # At V = 1000 every token's frequency is checked, not only bins.
        prior, valid = peaked_instance(1000)
        post, z = token_mask(prior, c_of(valid))
        out = ars_batch(prior, c_of(valid), 200_000, make_rng(66))
        emp = np.bincount(out.tokens, minlength=1000) / out.tokens.shape[0]
        assert 0.5 * np.abs(emp - post.probs).sum() < 0.02

    @pytest.mark.parametrize("batch", [ars_batch, awrs_batch], ids=["ars", "awrs"])
    def test_no_exact_draw_at_large_vocab(self, batch, monkeypatch):
        # A pool that keeps 1/10 of the prior is redrawn in batches of about
        # 19 candidates; the O(V) exact draw is for pools a batch cannot reach.
        def refuse(self, rows, rng):
            raise AssertionError("exact O(V) draw")

        monkeypatch.setattr(samplers._Removed, "_draw_exact", refuse)
        prior, valid = peaked_instance(10**5)
        out = batch(prior, c_of(valid), 1000, make_rng(67))
        assert np.all(valid[out.tokens])

    def test_mixed_depths_size_each_row(self, monkeypatch):
        # One row keeps 1e-3 of the prior (k = 2000) and 2000 rows keep 1/2
        # (k = 3): each row draws its own k, not the deepest row's.
        vocab = 10**5
        probs = np.full(vocab, 1e-3 / (vocab - 2))
        probs[:2] = [0.5, 0.499]
        prior = Categorical(probs)
        rem = samplers._Removed(2001, prior)
        rem.add(np.arange(2001), np.zeros(2001, dtype=np.int64))
        rem.add(np.array([0]), np.array([1]))
        drawn = []
        draw_prior = samplers.sample_many

        def counted(dist, n, rng):
            drawn.append(n)
            return draw_prior(dist, n, rng)

        monkeypatch.setattr(samplers, "sample_many", counted)
        out = rem.draw(np.arange(2001), make_rng(68))
        assert out[0] >= 2 and np.all(out[1:] != 0)
        assert sum(drawn) < 20_000
        # A shallow row keeps token 1 with chance 0.998.
        assert np.mean(out[1:] == 1) > 0.99

    def test_redraw_block_size_changes_nothing(self, monkeypatch):
        # Depleted rows need k = 19 candidates each; blocks of 7 cells hold
        # one row at a time, and the stream is read in the same order.
        prior, valid = peaked_instance(1000)
        runs = []
        for cells in (samplers._BLOCK_CELLS, 7):
            monkeypatch.setattr(samplers, "_BLOCK_CELLS", cells)
            runs.append(awrs_batch(prior, c_of(valid), 500, make_rng(69)))
        for field in ("tokens", "zhats", "trials"):
            np.testing.assert_array_equal(getattr(runs[0], field), getattr(runs[1], field))


class TestNucleusTruncation:
    def test_full_mass_is_identity(self):
        dist = Categorical(P3)
        np.testing.assert_allclose(top_p_compose(dist, 1.0).probs, dist.probs)

    def test_forced_arithmetic(self):
        out = top_p_compose(Categorical(P3), 0.8)
        np.testing.assert_allclose(out.probs, [0.625, 0.375, 0.0])

    def test_tie_at_boundary_keeps_both(self):
        out = top_p_compose(Categorical(np.array([0.4, 0.4, 0.2])), 0.5)
        np.testing.assert_allclose(out.probs, [0.5, 0.5, 0.0])

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            top_p_compose(Categorical(P3), 0.0)

    @given(st.lists(st.integers(min_value=1, max_value=20), min_size=2, max_size=10),
           st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=60)
    def test_nucleus_retains_at_least_p_mass(self, weights, p):
        dist = normalize(weights)
        kept = top_p_compose(dist, p)
        original_kept_mass = dist.probs[kept.probs > 0].sum()
        assert original_kept_mass >= p - 1e-9
        # Every kept token is at least as probable as every dropped one.
        if (kept.probs == 0).any() and (kept.probs > 0).any():
            assert dist.probs[kept.probs > 0].min() >= dist.probs[kept.probs == 0].max()


class TestDeterminismAndConfig:
    @pytest.mark.parametrize(
        "runner",
        [
            lambda p, c, r: rs_batch(p, c, 64, r).tokens,
            lambda p, c, r: ars_batch(p, c, 64, r).tokens,
            lambda p, c, r: wrs_batch(p, c, 64, r).zhats,
            lambda p, c, r: awrs_batch(p, c, 64, r).zhats,
            lambda p, c, r: cawrs_batch(p, c, 64, r, 0.3, 0.63).zhats,
            lambda p, c, r: cwrs_batch(p, c, 64, r, 1, 4).zhats,
            lambda p, c, r: gawrs_batch(p, c, 64, r, 1, 4).zhats,
            lambda p, c, r: rawrs_batch(p, c, 64, r, 4).zhats,
        ],
        ids=["rs", "ars", "wrs", "awrs", "cawrs", "cwrs", "gawrs", "rawrs"],
    )
    def test_same_seed_same_output(self, runner):
        prior = Categorical(P5)
        a = runner(prior, c_of(V5), make_rng(99, 1))
        b = runner(prior, c_of(V5), make_rng(99, 1))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "batch",
        [rs_batch, ars_batch, wrs_batch, awrs_batch, cawrs_batch, cwrs_batch, gawrs_batch, rawrs_batch],
        ids=["rs", "ars", "wrs", "awrs", "cawrs", "cwrs", "gawrs", "rawrs"],
    )
    def test_no_runs_no_rows(self, batch):
        out = batch(Categorical(P5), c_of(V5), 0, make_rng(0))
        for field in vars(out).values():
            assert field.shape == (0,)

    @pytest.mark.parametrize("vocab", [3, 1000])
    @pytest.mark.parametrize(
        "batch",
        [rs_batch, ars_batch, wrs_batch, awrs_batch, cawrs_batch, cwrs_batch, gawrs_batch, rawrs_batch],
        ids=["rs", "ars", "wrs", "awrs", "cawrs", "cwrs", "gawrs", "rawrs"],
    )
    def test_reused_prior_matches_a_fresh_copy(self, batch, vocab):
        # The tables a Categorical caches (total, cumulative sums, byte
        # pools) must carry no pool state from one call to the next. One in
        # three tokens is valid, so pools deplete and, at V = 3, draw from
        # the byte-pool table.
        prior = normalize(make_rng(75, vocab).random(vocab) + 0.1)
        c = c_of(np.arange(vocab) % 3 == 2)
        batch(prior, c, 200, make_rng(76))
        reused = batch(prior, c, 200, make_rng(77))
        fresh = batch(Categorical(prior.probs.copy()), c, 200, make_rng(77))
        for a, b in zip(vars(reused).values(), vars(fresh).values()):
            np.testing.assert_array_equal(a, b)

    def test_config_validation(self):
        # The same range checks guard the kernels and weighted_proposal.
        with pytest.raises(ValueError):
            weighted_proposal("wrs", extra_loops=0)
        with pytest.raises(ValueError):
            weighted_proposal("cawrs", theta0=0.5, theta1=0.5)
        with pytest.raises(ValueError):
            weighted_proposal("rawrs", budget=0)
        with pytest.raises(ValueError):
            gawrs_batch(Categorical(P3), c_of(V3_LAST), 1, make_rng(0), budget=0)

    @pytest.mark.parametrize("knob", ["extra_loops", "budget"])
    @pytest.mark.parametrize("value", [1.5, 2.5, float("inf"), float("nan"), "2"])
    def test_knob_must_be_a_whole_number(self, knob, value):
        # A fractional L or R would otherwise be truncated to one the run did not name.
        with pytest.raises(ValueError, match=knob):
            cwrs_batch(Categorical(P3), c_of(V3_LAST), 1, make_rng(0), **{knob: value})
        with pytest.raises(ValueError, match=knob):
            weighted_proposal("gawrs", **{knob: value})
        np.testing.assert_array_equal(
            cwrs_batch(Categorical(P5), c_of(V5), 64, make_rng(1), **{knob: 3.0}).zhats,
            cwrs_batch(Categorical(P5), c_of(V5), 64, make_rng(1), **{knob: 3}).zhats,
        )

    @pytest.mark.parametrize(
        "batch",
        [rs_batch, ars_batch, wrs_batch, awrs_batch, cawrs_batch, cwrs_batch, gawrs_batch, rawrs_batch],
        ids=["rs", "ars", "wrs", "awrs", "cawrs", "cwrs", "gawrs", "rawrs"],
    )
    @pytest.mark.parametrize("n", [-1, 10.5, True, float("nan"), "10"])
    def test_run_count_must_be_a_whole_number(self, batch, n):
        # numpy's own error for a bad size names no argument.
        c = c_of(V5)
        with pytest.raises(ValueError, match="^n must be a whole number >= 0"):
            batch(Categorical(P5), c, n, make_rng(0))
        assert c.eval_count == 0
        np.testing.assert_array_equal(
            batch(Categorical(P5), c_of(V5), 10.0, make_rng(1)).tokens,
            batch(Categorical(P5), c_of(V5), 10, make_rng(1)).tokens,
        )

    def test_predicate_constraints_work_with_kernels(self):
        # Kernels must accept arbitrary (slow) predicate constraints too.
        c = TokenConstraint(lambda tokens: [int(t) == 2 for t in tokens])
        out = awrs_batch(Categorical(P3), c, 200, make_rng(41))
        assert np.all(out.tokens == 2)
        assert c.eval_count == int(out.trials.sum())

    def test_scalar_wrappers_smoke(self):
        prior = Categorical(P5)
        assert cawrs_batch(prior, c_of(V5), 1, make_rng(42), 0.3, 0.63).trials[0] >= 1
        assert cwrs_batch(prior, c_of(V5), 1, make_rng(43), 1, 3).trials[0] <= 5
        assert gawrs_batch(prior, c_of(V5), 1, make_rng(44), 1, 3).trials[0] <= 5
        assert rawrs_batch(prior, c_of(V5), 1, make_rng(45), 3).trials[0] <= 4
        assert wrs_batch(prior, c_of(V5), 1, make_rng(46)).zhats[0] > 0
