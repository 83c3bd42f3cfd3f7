"""Categorical distributions, exact draws and support removal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from zest.dist import Categorical, normalize, remove_renormalize, sample, sample_many
from zest.errors import AllZeroMass
from zest.rng import make_rng


class TestNormalize:
    def test_symmetric_weights(self):
        np.testing.assert_allclose(normalize([2, 2]).probs, [0.5, 0.5])

    def test_proportionality_with_zero(self):
        np.testing.assert_allclose(normalize([1, 0, 3]).probs, [0.25, 0.0, 0.75])

    def test_all_zero_raises(self):
        with pytest.raises(AllZeroMass):
            normalize([0, 0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize([1, -1])

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=30).filter(lambda w: sum(w) > 0))
    def test_sums_to_one(self, weights):
        dist = normalize(weights)
        assert abs(dist.probs.sum() - 1.0) <= 1e-9
        assert np.all(dist.probs >= 0)
        assert dist.vocab_size == len(weights)


class TestSample:
    def test_point_mass(self):
        dist = Categorical(np.array([1.0, 0.0, 0.0]))
        rng = make_rng(0)
        assert all(sample(dist, rng) == 0 for _ in range(50))

    def test_fair_coin_frequency(self):
        # CLT bound: 4 sigma of a fair coin at 1e6 draws is 0.002.
        dist = Categorical(np.array([0.5, 0.5]))
        draws = sample_many(dist, 10**6, make_rng(7))
        freq = float(np.mean(draws == 0))
        assert abs(freq - 0.5) <= 0.002

    def test_seed_determinism(self):
        dist = normalize([3, 1, 2, 4])
        a = sample_many(dist, 1000, make_rng(42))
        b = sample_many(dist, 1000, make_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_zero_probability_token_never_drawn(self):
        dist = Categorical(np.array([0.5, 0.0, 0.5]))
        draws = sample_many(dist, 20000, make_rng(3))
        assert not np.any(draws == 1)

    def test_chi_square_guard(self):
        # Catastrophic-failure guard only: p-value above 1e-6.
        dist = normalize([5, 1, 2, 2, 10, 0.5])
        draws = sample_many(dist, 10**5, make_rng(11))
        counts = np.bincount(draws, minlength=6)
        _, p = stats.chisquare(counts, dist.probs * 10**5)
        assert p > 1e-6


class TestRemoveRenormalize:
    def test_forced_arithmetic(self):
        dist = Categorical(np.array([0.5, 0.3, 0.2]))
        out = remove_renormalize(dist, {0})
        np.testing.assert_allclose(out.probs, [0.0, 0.6, 0.4])

    def test_empty_removal_is_identity(self):
        dist = normalize([1, 2, 3])
        np.testing.assert_allclose(remove_renormalize(dist, set()).probs, dist.probs)

    def test_exhausting_support_raises(self):
        with pytest.raises(AllZeroMass):
            remove_renormalize(Categorical(np.array([0.5, 0.5])), {0, 1})

    @given(
        st.lists(st.floats(min_value=0.01, max_value=10), min_size=3, max_size=12),
        st.data(),
    )
    @settings(max_examples=60)
    def test_sequential_removal_commutes_with_union(self, weights, data):
        dist = normalize(weights)
        n = len(weights)
        removable = list(range(n - 1))  # keep at least the last token
        first = data.draw(st.sets(st.sampled_from(removable), max_size=n - 2))
        rest = [i for i in removable if i not in first]
        second = data.draw(st.sets(st.sampled_from(rest), max_size=len(rest)) if rest else st.just(set()))
        step = remove_renormalize(remove_renormalize(dist, first), second) if (first or second) else dist
        union = remove_renormalize(dist, first | second)
        np.testing.assert_allclose(step.probs, union.probs, atol=1e-12)


class TestRng:
    def test_same_address_bit_identical(self):
        a = make_rng(123, 4, 5).random(100)
        b = make_rng(123, 4, 5).random(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = make_rng(123, 0).random(10)
        b = make_rng(123, 1).random(10)
        assert not np.array_equal(a, b)
