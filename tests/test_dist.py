"""Categorical distributions and exact draws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from zest.dist import Categorical, normalize, sample, sample_many
from zest.errors import AllZeroMass, NoValidToken
from zest.rng import make_rng
from zest.toylm import ToyLM


@st.composite
def rows(draw):
    """Non-negative rows scaled to sum near 1, some with a NaN, an infinity or a negative entry put in."""
    width = draw(st.integers(1, 8))
    w = np.array(draw(st.lists(st.floats(0, 1), min_size=width, max_size=width)))
    row = w / w.sum() if w.sum() > 0 else w
    row = row * draw(st.sampled_from([1.0, 1 + 5e-10, 1 - 5e-10, 1 + 2e-9, 1 - 2e-9, 0.5]))
    for _ in range(draw(st.integers(0, 2))):
        row[draw(st.integers(0, width - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf, -1e-3, -0.0]))
    return row


@st.composite
def categoricals(draw):
    """Distributions with zero-mass entries, long tails down to 1e-300, or one supported token."""
    width = draw(st.integers(1, 40))
    if draw(st.booleans()):
        w = np.zeros(width)
        w[draw(st.integers(0, width - 1))] = 1.0
    else:
        mass = st.one_of(st.just(0.0), st.floats(1e-300, 1.0), st.floats(0.0, 1.0))
        w = np.array(draw(st.lists(mass, min_size=width, max_size=width)))
        w *= draw(st.sampled_from([1.0, 0.5])) ** np.arange(width)
        if not w.sum() > 0:
            w[-1] = 1.0
    return normalize(w)


class TestTheOneCheck:
    """``Categorical`` is the one check of a next-token distribution."""

    @pytest.mark.parametrize(
        "probs",
        [[np.nan, 0.5, 0.5], [0.5, 0.5, np.nan], [np.inf, 0.0, 0.0], [-np.inf, 1.0, 1.0], [np.nan] * 3],
        ids=["nan-first", "nan-last", "inf", "minus-inf", "all-nan"],
    )
    def test_nan_and_inf_are_refused(self, probs):
        # NaN passed both range tests of an `any(p < 0)` and `abs(sum - 1) > tol` check.
        with pytest.raises(ValueError):
            Categorical(np.array(probs))

    def test_empty_vector_is_refused(self):
        with pytest.raises(ValueError, match="empty vector"):
            Categorical(np.array([]))

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]], ids=["nan", "inf", "minus-inf"])
    def test_normalize_refuses_nan_and_inf(self, weights):
        with pytest.raises(ValueError, match="finite"):
            normalize(weights)

    @settings(max_examples=300)
    @given(rows())
    def test_accepts_exactly_finite_non_negative_rows_summing_to_one(self, row):
        want = bool(np.all(np.isfinite(row)) and np.all(row >= 0) and abs(row.sum() - 1.0) <= 1e-9)

        def accepts(make):
            try:
                make()
            except ValueError:
                return False
            return True

        assert accepts(lambda: Categorical(row)) == want
        # A one-context model accepts the row exactly when Categorical does.
        alphabet = tuple("abcdefg"[: row.shape[0] - 1])
        assert accepts(lambda: ToyLM(alphabet, 0, 2, {"": row})) == want


@st.composite
def masked_priors(draw):
    """A checked prior over V = 1..64 with zero-mass, -0.0 and denormal entries, and a mask.

    The mask leaves no token, one, some or all of them valid.
    """
    width = draw(st.integers(1, 64))
    mass = st.one_of(st.just(0.0), st.floats(1e-300, 1.0), st.floats(0.0, 1.0))
    w = np.array(draw(st.lists(mass, min_size=width, max_size=width)))
    # Odd entries, -0.0 and denormals, go in before and after the scaling:
    # they move the sum by less than 1e-300.
    odd = {
        draw(st.integers(0, width - 1)): draw(st.sampled_from([-0.0, 5e-324, 1e-310, 2.2e-308]))
        for _ in range(draw(st.integers(0, 4)))
    }
    w[list(odd)] = list(odd.values())
    if not w.sum() > 0:
        w[draw(st.integers(0, width - 1))] = 1.0
    probs = normalize(w).probs
    for i, x in odd.items():
        if probs[i] < 1e-300:
            probs[i] = x
    kind = draw(st.sampled_from(["none", "one", "some", "all"]))
    if kind == "one":
        valid = np.zeros(width, dtype=bool)
        valid[draw(st.integers(0, width - 1))] = True
    elif kind == "some":
        valid = np.array(draw(st.lists(st.booleans(), min_size=width, max_size=width)))
    else:
        valid = np.full(width, kind == "all")
    return Categorical(probs), valid


def assert_same_fields(got: Categorical, want: Categorical):
    assert got.probs.dtype == want.probs.dtype and got.probs.tobytes() == want.probs.tobytes()
    assert np.float64(got.total).tobytes() == np.float64(want.total).tobytes()
    assert got._cum.tobytes() == want._cum.tobytes()
    assert got._point == want._point
    assert got._byte_pools is None


class TestMasked:
    """``masked`` derives the posterior a checked build of ``probs * valid / z`` would give."""

    @settings(max_examples=400)
    @given(masked_priors())
    def test_equals_the_checked_build(self, case):
        prior, valid = case
        unnorm = prior.probs * valid
        z = float(unnorm.sum())
        if z <= 0.0:
            with pytest.raises(NoValidToken):
                prior.masked(valid)
            # The checked build of the same division refuses it too (0/0 is NaN).
            with np.errstate(invalid="ignore"), pytest.raises(ValueError):
                Categorical(unnorm / z)
            return
        post, got_z = prior.masked(valid)
        assert np.float64(got_z).tobytes() == np.float64(z).tobytes()
        assert_same_fields(post, Categorical(unnorm / z))

    def test_keeps_negative_zero(self):
        prior = Categorical(np.array([-0.0, 0.5, 0.0, 0.5]))
        post, z = prior.masked(np.array([False, True, False, True]))
        assert z == 1.0
        assert np.signbit(post.probs).tolist() == [True, False, False, False]

    def test_large_vocabulary(self):
        g = np.random.default_rng(5)
        prior = normalize(g.dirichlet(np.full(100_000, 0.1)))
        valid = g.random(100_000) < 0.3
        unnorm = prior.probs * valid
        z = float(unnorm.sum())
        post, got_z = prior.masked(valid)
        assert got_z == z
        assert_same_fields(post, Categorical(unnorm / z))
        assert post._point == -1 and abs(post.total - 1.0) <= 1e-12


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

    def test_point_mass_draws_no_uniform(self):
        # One supported token is returned n times, and the generator stays
        # where an unused twin stands.
        dist = Categorical(np.array([0.0, 0.0, 1.0, 0.0]))
        rng, twin = make_rng(8), make_rng(8)
        np.testing.assert_array_equal(sample_many(dist, 50, rng), np.full(50, 2))
        assert sample(dist, rng) == 2
        assert sample_many(dist, 0, rng).shape == (0,)
        np.testing.assert_array_equal(rng.random(8), twin.random(8))

    def test_two_tokens_still_draw(self):
        # A second token, however light, makes it a draw: n uniforms go.
        dist = Categorical(np.array([1.0, 1e-300]))
        rng, twin = make_rng(9), make_rng(9)
        np.testing.assert_array_equal(sample_many(dist, 5, rng), np.zeros(5))
        twin.random(5)
        np.testing.assert_array_equal(rng.random(8), twin.random(8))

    @settings(max_examples=300)
    @given(categoricals(), st.integers(0, 2**32 - 1))
    def test_sample_is_sample_many_of_one(self, dist, seed):
        # The scalar path must draw the token and consume the stream exactly
        # as a batch of one does: the benchmark's trie_pair draws its
        # 200-string language with sample, so a changed stream would change
        # the workload itself.
        rng, twin = make_rng(seed), make_rng(seed)
        tokens = [sample(dist, rng) for _ in range(64)]
        assert all(type(t) is int for t in tokens)
        assert tokens == [int(sample_many(dist, 1, twin)[0]) for _ in range(64)]
        np.testing.assert_array_equal(rng.random(4), twin.random(4))

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


class TestRng:
    def test_same_address_bit_identical(self):
        a = make_rng(123, 4, 5).random(100)
        b = make_rng(123, 4, 5).random(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = make_rng(123, 0).random(10)
        b = make_rng(123, 1).random(10)
        assert not np.array_equal(a, b)

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            make_rng(-1, 0)
