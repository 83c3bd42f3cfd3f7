"""Exact enumeration oracles: local posteriors, global conditioning, decoding bias."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enumeration import support
from zest.constraints import DfaPattern, TrieLanguage, mask_constraint
from zest.dist import Categorical, normalize
from zest.errors import DeadPrefix, EmptyPosterior, NoValidToken
from zest.oracle import global_posterior, lcd_distribution, token_mask
from zest.smc import lcd_sample
from zest.toylm import example_a1, random_lm


class TestTokenMask:
    def test_vacuous_constraint(self):
        prior = Categorical(np.array([0.9, 0.1]))
        post, z = token_mask(prior, mask_constraint(np.array([True, True])))
        assert z == pytest.approx(1.0)
        np.testing.assert_allclose(post.probs, prior.probs)

    def test_tiny_valid_mass(self):
        prior = Categorical(np.array([0.01, 0.99]))
        post, z = token_mask(prior, mask_constraint(np.array([True, False])))
        assert z == pytest.approx(0.01)
        np.testing.assert_allclose(post.probs, [1.0, 0.0])

    def test_no_valid_token(self):
        prior = Categorical(np.array([0.5, 0.5]))
        with pytest.raises(NoValidToken):
            token_mask(prior, mask_constraint(np.array([False, False])))

    @settings(max_examples=300)
    @given(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=40),
        st.data(),
    )
    def test_matches_where_reference_bit_for_bit(self, weights, data):
        # The masked masses are the prior's product with the mask; on a
        # validated prior that is the np.where form, bit for bit.
        if not sum(weights) > 0:
            weights[0] = 1.0
        prior = normalize(weights)
        valid = np.array(data.draw(st.lists(st.booleans(), min_size=len(weights), max_size=len(weights))))
        ref = np.where(valid, prior.probs, 0.0)
        z = float(ref.sum())
        if z <= 0.0:
            with pytest.raises(NoValidToken):
                token_mask(prior, mask_constraint(valid))
            return
        post, got = token_mask(prior, mask_constraint(valid))
        assert np.float64(got).tobytes() == np.float64(z).tobytes()
        assert post.probs.tobytes() == (ref / z).tobytes()

    def test_costs_full_vocabulary(self):
        prior = normalize(np.ones(7))
        c = mask_constraint(np.ones(7, dtype=bool))
        token_mask(prior, c)
        assert c.eval_count == 7


class TestGlobalPosterior:
    def test_reversal_fixture(self):
        lm = example_a1()
        gp = global_posterior(lm, TrieLanguage(["aa", "ba"], alphabet=lm.alphabet))
        assert gp.dist["aa"] == pytest.approx(0.083333, abs=1e-6)
        assert gp.dist["ba"] == pytest.approx(0.916667, abs=1e-6)
        assert gp.g == pytest.approx(0.108)

    def test_vacuous_language_recovers_model(self):
        lm = random_lm(4, alphabet_size=2, k=1, max_len=3)
        strings = support(lm)
        assert math.fsum(lm.string_prob(s) for s in strings) == pytest.approx(1.0, abs=1e-9)
        gp = global_posterior(lm, TrieLanguage(strings, alphabet=lm.alphabet))
        assert gp.g == pytest.approx(1.0, abs=1e-9)
        for s in strings:
            assert gp.dist[s] == pytest.approx(lm.string_prob(s), abs=1e-9)

    def test_single_string_language(self):
        lm = example_a1()
        gp = global_posterior(lm, TrieLanguage(["aa"], alphabet=lm.alphabet))
        assert gp.dist == {"aa": 1.0}
        assert gp.g == pytest.approx(0.009)

    def test_empty_posterior(self):
        lm = example_a1()
        dead = TrieLanguage(["aaa"], alphabet=lm.alphabet)  # longer than max_len
        with pytest.raises(EmptyPosterior):
            global_posterior(lm, dead)


@st.composite
def small_automaton(draw, alphabet):
    """2-4 states, each transition missing or to a random state, random finals."""
    n = draw(st.integers(2, 4))
    transitions = {q: {} for q in range(n)}
    for q in range(n):
        for ch in alphabet:
            dst = draw(st.one_of(st.none(), st.integers(0, n - 1)))
            if dst is not None:
                transitions[q][ch] = dst
    accepting = draw(st.sets(st.integers(0, n - 1)))
    return DfaPattern(range(n), alphabet, transitions, accepting, start=draw(st.integers(0, n - 1)))


class TestAutomata:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, data):
        lm = random_lm(
            data.draw(st.integers(0, 2**16)),
            alphabet_size=data.draw(st.integers(2, 3)),
            k=data.draw(st.integers(0, 2)),
            max_len=data.draw(st.integers(0, 4)),
        )
        dfa = data.draw(small_automaton(lm.alphabet))
        strings = ("".join(t) for n in range(lm.max_len + 1) for t in itertools.product(lm.alphabet, repeat=n))
        masses = {s: lm.string_prob(s) for s in strings if dfa.accepts(s)}
        g = math.fsum(masses.values())
        if g == 0.0:
            with pytest.raises(EmptyPosterior):
                global_posterior(lm, dfa)
            return
        gp = global_posterior(lm, dfa)
        assert gp.g == pytest.approx(g, rel=1e-12)
        assert gp.dist == pytest.approx({s: m / g for s, m in masses.items() if m > 0}, rel=1e-12)
        assert list(gp.dist) == sorted(gp.dist)

    def test_lcd_reweighting_on_an_automaton(self):
        # Strings over {a, b} without two a's in a row; every state accepts,
        # so local decoding never reaches a dead end.
        lm = random_lm(3, alphabet_size=2, k=1, max_len=5)
        dfa = DfaPattern(["b", "a"], lm.alphabet, {"b": {"a": "a", "b": "b"}, "a": {"b": "b"}}, ["b", "a"])
        lcd = lcd_distribution(lm, dfa)
        gp = global_posterior(lm, dfa)
        assert set(lcd.dist) == set(gp.dist)
        total = math.fsum(lcd.dist[s] * lcd.weights[s] for s in lcd.dist)
        assert total == pytest.approx(gp.g, abs=1e-12)
        for s in lcd.dist:
            assert lcd.dist[s] * lcd.weights[s] / total == pytest.approx(gp.dist[s], abs=1e-12)


class TestLcdDistribution:
    def test_reversal_fixture_probabilities_and_weights(self):
        lm = example_a1()
        lcd = lcd_distribution(lm, TrieLanguage(["aa", "ba"], alphabet=lm.alphabet))
        assert lcd.dist["aa"] == pytest.approx(0.9)
        assert lcd.dist["ba"] == pytest.approx(0.1)
        assert lcd.weights["aa"] == pytest.approx(0.01)
        assert lcd.weights["ba"] == pytest.approx(0.99)

    def test_vacuous_language(self):
        lm = random_lm(6, alphabet_size=2, k=1, max_len=3)
        strings = support(lm)
        lcd = lcd_distribution(lm, TrieLanguage(strings, alphabet=lm.alphabet))
        for s in strings:
            assert lcd.dist[s] == pytest.approx(lm.string_prob(s), abs=1e-9)
            assert lcd.weights[s] == pytest.approx(1.0, abs=1e-9)

    def test_reweighting_recovers_global_posterior(self):
        lm = random_lm(10, alphabet_size=3, k=1, max_len=4)
        strings = list(support(lm))[:5]
        lang = TrieLanguage(strings, alphabet=lm.alphabet)
        lcd = lcd_distribution(lm, lang)
        gp = global_posterior(lm, lang)
        total = math.fsum(lcd.dist[s] * lcd.weights[s] for s in lcd.dist)
        for s in lcd.dist:
            assert lcd.dist[s] * lcd.weights[s] / total == pytest.approx(gp.dist[s], abs=1e-12)

    def test_mean_weight_equals_global_mass(self):
        # E over the product-of-locals distribution of the weight is g.
        lm = random_lm(11, alphabet_size=3, k=1, max_len=4)
        strings = list(support(lm))[:6]
        lang = TrieLanguage(strings, alphabet=lm.alphabet)
        lcd = lcd_distribution(lm, lang)
        gp = global_posterior(lm, lang)
        mean_w = math.fsum(lcd.dist[s] * lcd.weights[s] for s in lcd.dist)
        assert mean_w == pytest.approx(gp.g, abs=1e-12)

    def test_probabilities_normalize(self):
        lm = random_lm(12, alphabet_size=2, k=2, max_len=5)
        strings = list(support(lm))[:8]
        lcd = lcd_distribution(lm, TrieLanguage(strings, alphabet=lm.alphabet))
        assert math.fsum(lcd.dist.values()) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("strings", [["aaa"], []], ids=["dead-end", "empty"])
    def test_dead_prefix_raises_as_lcd_sample_does(self, strings):
        # "aaa" is longer than max_len: at "aa" only end-of-string has mass,
        # and the language rejects it.
        lm = example_a1()
        lang = TrieLanguage(strings, alphabet=lm.alphabet)
        with pytest.raises(DeadPrefix):
            lcd_distribution(lm, lang)
        with pytest.raises(DeadPrefix):
            lcd_sample(lm, lang, 10, seed=0)

