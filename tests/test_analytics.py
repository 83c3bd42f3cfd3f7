"""Closed-form cost laws against independent enumeration and Monte Carlo."""

import numpy as np
import pytest

import enumeration as en
from zest.analytics import awrs_expected_calls, distractor_probs, wrs_expected_calls
from zest.constraints import mask_constraint
from zest.dist import Categorical, normalize
from zest.rng import make_rng
from zest.samplers import awrs_batch, wrs_batch


class TestWithReplacementLaw:
    def test_half_mass(self):
        assert wrs_expected_calls(0.5, 1) == pytest.approx(4.0)

    def test_full_mass_costs_one_per_loop(self):
        for L in (1, 2, 8):
            assert wrs_expected_calls(1.0, L) == L + 1

    def test_monte_carlo_agreement(self):
        # z = 0.2, L = 1: mean calls 10 within 0.05 at 1e6 runs.
        prior = Categorical(np.array([0.5, 0.3, 0.2]))
        out = wrs_batch(prior, mask_constraint(np.array([0, 0, 1], dtype=bool)), 10**6, make_rng(50))
        assert abs(out.trials.mean() - 10.0) <= 0.05

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            wrs_expected_calls(0.0, 1)
        with pytest.raises(ValueError):
            wrs_expected_calls(0.5, 0)


class TestLoopCountRange:
    """The laws take exactly the L that the kernels take."""

    @pytest.mark.parametrize("L", [0, -1, 1.5, 2.5, "2"])
    def test_refused_like_the_kernels(self, L):
        prior = Categorical(np.array([0.5, 0.5]))
        valid = np.array([False, True])
        with pytest.raises(ValueError):
            wrs_batch(prior, mask_constraint(valid), 10, make_rng(52), extra_loops=L)
        with pytest.raises(ValueError):
            wrs_expected_calls(0.5, L)
        with pytest.raises(ValueError):
            awrs_expected_calls(prior, valid, L)

    def test_whole_float_accepted_like_the_kernels(self):
        prior = Categorical(np.array([0.5, 0.5]))
        valid = np.array([False, True])
        wrs_batch(prior, mask_constraint(valid), 10, make_rng(53), extra_loops=2.0)
        assert wrs_expected_calls(0.5, 2.0) == pytest.approx(6.0)
        assert awrs_expected_calls(prior, valid, 2.0) == awrs_expected_calls(prior, valid, 2)


class TestAdaptiveLaw:
    def test_single_distractor_value(self):
        # One invalid token of mass 0.5 against z = 0.5: q = 0.5 and the
        # L = 1 cost is 2 + (2q - q^2) = 2.75.
        prior = Categorical(np.array([0.5, 0.5]))
        valid = np.array([False, True])
        assert awrs_expected_calls(prior, valid, 1) == pytest.approx(2.75)

    def test_single_distractor_monte_carlo(self):
        prior = Categorical(np.array([0.5, 0.5]))
        out = awrs_batch(prior, mask_constraint(np.array([False, True])), 10**6, make_rng(51))
        assert abs(out.trials.mean() - 2.75) <= 0.01

    def test_no_invalid_tokens(self):
        prior = normalize([1, 2, 3])
        for L in (1, 3):
            assert awrs_expected_calls(prior, np.ones(3, dtype=bool), L) == 1 + L

    def test_saturation_toward_invalid_count(self):
        # As valid mass shrinks, every q approaches 1 and the cost
        # approaches 1 + L + #invalid.
        for eps, tol in ((1e-3, 0.2), (1e-6, 1e-3)):
            probs = np.array([0.4, 0.3, 0.3 - eps, eps])
            prior = Categorical(probs / probs.sum())
            valid = np.array([False, False, False, True])
            assert 1 + 1 + 3 - awrs_expected_calls(prior, valid, 1) <= tol

    def test_matches_trace_enumeration(self):
        # Independent check: expected calls from the exact trace tree.
        probs = [0.35, 0.25, 0.2, 0.15, 0.05]
        valid = [False, True, False, True, False]
        traces = en.enumerate_awrs(probs, valid)
        law = awrs_expected_calls(Categorical(np.array(probs)), np.array(valid), 1)
        assert en.expected_calls(traces) == pytest.approx(law, abs=1e-12)

    def test_zero_probability_tokens_are_free(self):
        with_zero = awrs_expected_calls(
            Categorical(np.array([0.5, 0.5, 0.0])), np.array([False, True, False]), 1
        )
        without = awrs_expected_calls(Categorical(np.array([0.5, 0.5])), np.array([False, True]), 1)
        assert with_zero == pytest.approx(without, abs=1e-12)

    def test_monotone_in_valid_mass(self):
        # Scaling invalid mass down (valid mass up) never increases cost.
        costs = []
        for z in np.linspace(0.1, 0.9, 9):
            prior = Categorical(np.array([1 - z, z / 2, z / 2]))
            costs.append(awrs_expected_calls(prior, np.array([False, True, True]), 1))
        assert np.all(np.diff(costs) <= 1e-12)

    def test_distractor_probabilities(self):
        prior = Categorical(np.array([0.5, 0.3, 0.2]))
        q = distractor_probs(prior, np.array([False, False, True]))
        np.testing.assert_allclose(q, [0.5 / 0.7, 0.3 / 0.5])


class TestLawsOnRandomInstances:
    def test_both_laws_corroborated_across_100_instances(self):
        # Empirical mean calls within 4 standard errors of the analytic
        # value for both samplers on 100 randomized instances.
        from zest.simharness import random_instance

        runs = 3000
        for i in range(100):
            prior, valid = random_instance(30, make_rng(53, i))
            z = float(prior.probs[valid].sum())
            w = wrs_batch(prior, mask_constraint(valid), runs, make_rng(54, i))
            sem = w.trials.std() / np.sqrt(runs)
            assert abs(w.trials.mean() - wrs_expected_calls(z, 1)) <= 4 * sem + 1e-9
            a = awrs_batch(prior, mask_constraint(valid), runs, make_rng(55, i))
            sem = a.trials.std() / np.sqrt(runs)
            law = awrs_expected_calls(prior, valid, 1)
            assert abs(a.trials.mean() - law) <= 4 * max(sem, 1e-12) + 1e-9

