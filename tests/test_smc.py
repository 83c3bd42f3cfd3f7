"""Sequential Monte Carlo engines, resampling, and the bias-correction layer."""

import itertools
import math

import numpy as np
import pytest

from enumeration import FixedUniforms, Walk, enumerate_awrs, likeliest, tv
from zest import smc
from zest.constraints import DfaPattern, TrieLanguage
from zest.dist import sample_many
from zest.errors import AllDead, DeadPrefix, NoValidToken
from zest.oracle import global_posterior, lcd_distribution, token_mask
from zest.rng import make_rng
from zest.samplers import awrs_batch
from zest.smc import (
    ess,
    importance_sample,
    lcd_sample,
    resample_multinomial,
    resample_stratified,
    sample_verify,
    smc_pwp,
    smc_twist,
    weighted_proposal,
)
from zest.toylm import ToyLM, example_a1, random_lm


@pytest.fixture
def lm():
    return example_a1()


@pytest.fixture
def lang(lm):
    return TrieLanguage(["aa", "ba"], alphabet=lm.alphabet)


def two_symbol_lm(max_len: int, probs) -> ToyLM:
    """An order-0 model over {a, b} with next-token law ``probs`` (a, b, end)."""
    return ToyLM.from_json({"alphabet": ["a", "b"], "k": 0, "max_len": max_len, "tables": {"": list(probs)}})


def ends_in_b() -> DfaPattern:
    """The two-state automaton over {a, b} accepting the strings that end in b."""
    return DfaPattern(["s", "e"], ("a", "b"), {"s": {"a": "s", "b": "e"}, "e": {"a": "s", "b": "e"}}, ["e"])


class TestEss:
    def test_uniform(self):
        assert ess([1.0] * 5) == pytest.approx(5.0)

    def test_degenerate(self):
        assert ess([0.0, 3.0, 0.0]) == pytest.approx(1.0)

    def test_formula(self):
        assert ess([2.0, 1.0, 1.0]) == pytest.approx(16.0 / 6.0)

    def test_all_dead(self):
        with pytest.raises(AllDead):
            ess([0.0, 0.0])

    def test_weights_too_small_to_square(self):
        # Squared, every weight underflows to 0; the ESS is scale-free.
        assert ess([2e-170, 1e-170, 1e-170]) == pytest.approx(16.0 / 6.0)
        assert ess([1e-320] * 4) == pytest.approx(4.0)

    @pytest.mark.parametrize("length", [100, 180])
    def test_exact_proposal_g_below_square_underflow(self, length):
        # Only b^L is accepted, so g = 0.02^L (1.3e-170 and 1.5e-306) and
        # every particle carries exactly that weight.
        lm = two_symbol_lm(length, [0.97, 0.02, 0.01])
        states = [f"s{i}" for i in range(length + 1)]
        edges = {states[i]: {"b": states[i + 1]} for i in range(length)}
        chain = DfaPattern(states, ("a", "b"), edges, [states[-1]])
        ens = smc_pwp(lm, chain, "exact", 10, seed=1)
        assert ens.g_hat == pytest.approx(0.02**length, rel=1e-12)
        assert ens.posterior_estimate == {"b" * length: pytest.approx(1.0)}


@pytest.fixture
def support(lm):
    return TrieLanguage(["aa", "ab", "ba", "bb"], alphabet=lm.alphabet)


def scripted(first_weights):
    """A batch Proposal drawing tokens from the model: its first call weights
    the rows by ``first_weights`` and every later call by 1, so the run's
    total weight is sum(first_weights) whatever resampling does."""
    calls = []

    def proposal(prior, c, n, rng):
        w = np.asarray(first_weights, dtype=float) if not calls else np.ones(n)
        calls.append(n)
        return sample_many(prior, n, rng), w

    return proposal


class TestResampling:
    def test_multinomial_single_survivor(self, lm, support):
        assert np.all(resample_multinomial(np.array([0.0, 5.0, 0.0]), make_rng(60)) == 1)
        # In the engine every particle then carries weight W / N.
        ens = smc_pwp(lm, support, scripted([0.0, 5.0, 0.0]), n_particles=3, tau=0.5, seed=60)
        np.testing.assert_allclose([p.weight for p in ens.particles], 5.0 / 3.0)

    def test_multinomial_expected_copy_counts(self):
        weights = np.array([4.0, 2.0, 1.0, 1.0])
        counts = np.zeros(4)
        trials = 3000
        for s in range(trials):
            counts += np.bincount(resample_multinomial(weights, make_rng(61, s)), minlength=4)
        expected = weights / weights.sum() * 4
        np.testing.assert_allclose(counts / trials, expected, atol=0.05)

    def test_multinomial_preserves_total_weight(self, lm, support):
        idx = resample_multinomial(np.array([3.0, 1.0]), make_rng(62))
        assert idx.shape == (2,) and set(idx.tolist()) <= {0, 1}
        # ESS 1.6 < tau * N = 2, so the engine resamples after the first step.
        ens = smc_pwp(lm, support, scripted([3.0, 1.0]), n_particles=2, tau=1.0, seed=62)
        assert sum(p.weight for p in ens.particles) == pytest.approx(4.0)

    def test_stratified_counts_concentrate(self, lm, support):
        # One independent uniform per stratum bounds every copy count
        # strictly within 2 of its expectation (sharp; the multinomial
        # scheme has no such bound), and the counts stay unbiased.
        rng = make_rng(63)
        devs = []
        for trial in range(400):
            weights = rng.random(4) + 1e-3
            counts = np.bincount(resample_stratified(weights, make_rng(64, trial)), minlength=4)
            expected = weights / weights.sum() * 4
            assert np.all(np.abs(counts - expected) < 2.0)
            ens = smc_pwp(lm, support, scripted(weights), n_particles=4, tau=1.0, seed=trial,
                          resample="stratified")
            assert sum(p.weight for p in ens.particles) == pytest.approx(weights.sum())
            devs.append(counts - expected)
        assert np.abs(np.mean(devs, axis=0)).max() < 0.1

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 257, 3000])
    def test_multinomial_is_generator_choice(self, n):
        # The stream of Generator.choice: equal indices, and both generators
        # at the same point of the stream afterwards.
        for trial in range(4):
            g = make_rng(67, n, trial)
            w = np.where(g.random(n) < 0.3, 0.0, g.random(n))
            if not w.any():
                w[-1] = 1.0
            rng, twin = make_rng(68, n, trial), make_rng(68, n, trial)
            np.testing.assert_array_equal(resample_multinomial(w, rng), twin.choice(n, size=n, p=w / w.sum()))
            np.testing.assert_array_equal(rng.random(8), twin.random(8))

    def test_multinomial_uniform_on_a_cumulative_weight(self):
        # Cumulative weights 0, .25, .25, .5, 1: a uniform equal to one picks the
        # next index of positive weight, as Generator.choice does, and every
        # index lands in its uniform's place, not in sorted order.
        w = np.array([0.0, 1.0, 0.0, 1.0, 2.0])
        idx = resample_multinomial(w, FixedUniforms([0.5, 0.0, 0.25, 0.75, 0.999]))
        np.testing.assert_array_equal(idx, [4, 1, 3, 4, 4])

    def test_stratified_uniform_rounding_to_one_takes_no_dead_particle(self):
        # (5 + nextafter(1, 0)) / 6 rounds to exactly 1.0, past every
        # cumulative weight: the last stratum takes the last particle of
        # positive weight, not a dead one after it.
        u = FixedUniforms(np.full(6, np.nextafter(1.0, 0.0)))
        np.testing.assert_array_equal(resample_stratified(np.array([0.3] * 5 + [0.0]), u), [0, 1, 2, 3, 4, 4])
        w = np.array([0.0, 0.3, 0.0, 0.3, 0.0, 0.0])
        np.testing.assert_array_equal(resample_stratified(w, u), [1, 1, 3, 3, 3, 3])

    def test_all_dead(self):
        with pytest.raises(AllDead):
            resample_multinomial(np.array([0.0, 0.0]), make_rng(65))
        with pytest.raises(AllDead):
            resample_stratified(np.array([0.0, 0.0]), make_rng(66))


class TestTwistEngine:
    def test_vacuous_language_keeps_unit_weights(self, lm):
        support = TrieLanguage(["aa", "ab", "ba", "bb"], alphabet=lm.alphabet)
        ens = smc_twist(lm, support, n_particles=300, tau=0.5, seed=1)
        assert ens.g_hat == pytest.approx(1.0)
        assert set(ens.posterior_estimate) <= {"aa", "ab", "ba", "bb"}

    def test_posterior_on_reversal_fixture(self, lm, lang):
        ens = smc_twist(lm, lang, n_particles=4000, tau=0.5, seed=2)
        exact = global_posterior(lm, lang).dist
        assert tv(ens.posterior_estimate, exact) < 0.05

    def test_posterior_tightens_with_particles(self, lm, lang):
        # Only ~10.8% of raw proposals survive the twist, so the pinned
        # 0.01 tolerance needs the larger population to be reliable.
        ens = smc_twist(lm, lang, n_particles=4 * 10**4, tau=0.5, seed=2)
        assert ens.posterior_estimate["ba"] == pytest.approx(0.916667, abs=0.01)

    def test_g_hat_estimates_global_mass(self, lm, lang):
        g_hats = [smc_twist(lm, lang, 400, tau=0.5, seed=s).g_hat for s in range(30)]
        assert np.mean(g_hats) == pytest.approx(0.108, abs=0.01)

    def test_single_particle_degenerates_to_sample_verify(self, lm, lang):
        # One particle, no resampling: the run either keeps a satisfying
        # rollout or dies, exactly like verifying a single sample.
        outcomes = {"ok": 0, "dead": 0}
        for seed in range(40):
            try:
                ens = smc_twist(lm, lang, n_particles=1, tau=0.0, seed=seed)
                assert set(ens.posterior_estimate) <= {"aa", "ba"}
                outcomes["ok"] += 1
            except AllDead:
                outcomes["dead"] += 1
        # Survival probability is g = 0.108, so both outcomes occur.
        assert outcomes["ok"] > 0 and outcomes["dead"] > 0

    def test_all_dead_raises(self):
        lm = ToyLM(
            alphabet=("a", "b"),
            order=1,
            max_len=1,
            tables={"": np.array([1.0, 0.0, 0.0])},
        )
        lang = TrieLanguage(["b"], alphabet=("a", "b"))
        with pytest.raises(AllDead):
            smc_twist(lm, lang, n_particles=20, tau=0.5, seed=3)


class TestProperlyWeightedEngine:
    def test_reversal_fixture_posterior(self, lm, lang):
        # P(aa) has SD 0.003 across seeds at N = 3e4, so +-0.02 is 6.8 SD.
        ens = smc_pwp(lm, lang, proposal="awrs", n_particles=3 * 10**4, tau=0.5, seed=4)
        assert ens.posterior_estimate["aa"] == pytest.approx(0.083333, abs=0.02)
        assert ens.posterior_estimate["ba"] == pytest.approx(0.916667, abs=0.02)

    def test_exact_proposal_matches(self, lm, lang):
        ens = smc_pwp(lm, lang, proposal="exact", n_particles=3000, tau=0.5, seed=5)
        assert ens.posterior_estimate["aa"] == pytest.approx(0.083333, abs=0.02)

    def test_reversal_fixture_unbiased_over_1000_seeds(self, lm, lang):
        # Fixed-seed tolerance tests are sound only if the estimates are
        # centred: mean P(aa) and mean g_hat over 1000 runs at N = 3000 sit
        # within 3 standard errors of the exact values.
        p_aa, g_hat = [], []
        for s in range(1000):
            ens = smc_pwp(lm, lang, "awrs", 3000, tau=0.5, seed=s)
            p_aa.append(ens.posterior_estimate.get("aa", 0.0))
            g_hat.append(ens.g_hat)
        for estimates, exact in ((np.array(p_aa), 0.009 / 0.108), (np.array(g_hat), 0.108)):
            se = estimates.std(ddof=1) / np.sqrt(len(estimates))
            assert abs(estimates.mean() - exact) <= 3 * se

    def test_g_hat_unbiased_over_200_runs(self, lm, lang):
        # Mean of g_hat across 200 independent runs within 3 sigma of 0.108.
        g_hats = np.array([smc_pwp(lm, lang, "awrs", 200, tau=0.5, seed=s).g_hat for s in range(200)])
        se = g_hats.std() / np.sqrt(len(g_hats))
        assert abs(g_hats.mean() - 0.108) <= 3 * se + 1e-9

    def test_weighted_proposals_all_run(self, lm, lang):
        for name in ("awrs", "wrs", "exact"):
            ens = smc_pwp(lm, lang, proposal=name, n_particles=150, tau=0.5, seed=6)
            assert set(ens.posterior_estimate) <= {"aa", "ba"}
        for name in ("cwrs", "gawrs", "rawrs"):
            ens = smc_pwp(lm, lang, proposal=name, n_particles=150, tau=0.5, seed=6, budget=4)
            assert set(ens.posterior_estimate) <= {"aa", "ba"}
        ens = smc_pwp(lm, lang, proposal="cawrs", n_particles=150, tau=0.5, seed=6, theta0=0.4, theta1=0.8)
        assert set(ens.posterior_estimate) <= {"aa", "ba"}

    def test_random_instance_converges(self):
        lm = random_lm(31, alphabet_size=3, k=1, max_len=4)
        strings = likeliest(lm, 5)
        lang = TrieLanguage(strings, alphabet=lm.alphabet)
        ens = smc_pwp(lm, lang, "awrs", n_particles=3000, tau=0.5, seed=8)
        exact = global_posterior(lm, lang).dist
        assert tv(ens.posterior_estimate, exact) < 0.06

    def test_automaton_g_hat_matches_exact(self):
        # Strings over {a, b, c, d} with an even number of a's that end in b.
        lm = random_lm(0, alphabet_size=4, k=2, max_len=6)
        after_b = {"a": "odd", "b": "end_b", "c": "even", "d": "even"}
        dfa = DfaPattern(
            ["even", "odd", "end_b"],
            lm.alphabet,
            {"even": after_b, "end_b": after_b, "odd": {"a": "even", "b": "odd", "c": "odd", "d": "odd"}},
            ["end_b"],
        )
        g = global_posterior(lm, dfa).g
        g_hats = np.array([smc_pwp(lm, dfa, "awrs", 1000, tau=0.5, seed=s).g_hat for s in range(10)])
        se = g_hats.std(ddof=1) / np.sqrt(len(g_hats))
        assert abs(g_hats.mean() - g) <= 4 * se

    def test_deterministic_given_seed(self, lm, lang):
        a = smc_pwp(lm, lang, "awrs", 200, tau=0.5, seed=9)
        b = smc_pwp(lm, lang, "awrs", 200, tau=0.5, seed=9)
        assert a.posterior_estimate == b.posterior_estimate
        assert a.g_hat == b.g_hat

    def test_eval_counts_recorded(self, lm, lang):
        ens = smc_pwp(lm, lang, "awrs", 100, tau=0.5, seed=10)
        assert len(ens.eval_counts) == ens.steps
        assert all(c > 0 for c in ens.eval_counts)

    def test_unknown_proposal(self):
        with pytest.raises(KeyError):
            weighted_proposal("nope")

    @pytest.mark.parametrize(
        "name, params",
        [
            ("awrs", {"budget": 4}),
            ("awrs", {"budget": 0}),
            ("exact", {"budget": 0}),
            ("wrs", {"theta0": 0.1}),
            ("rawrs", {"extra_loops": 2}),
            ("cawrs", {"theta0": 0.9}),  # past the default theta1 of 0.75
            ("wrs", {"extra_loops": 1.5}),
            ("cwrs", {"budget": 2.5}),
        ],
        ids=lambda x: x if isinstance(x, str) else ",".join(f"{k}={v}" for k, v in x.items()),
    )
    def test_inapplicable_or_out_of_range_knob_raises(self, name, params):
        with pytest.raises(ValueError):
            weighted_proposal(name, **params)

    def test_smc_pwp_refuses_knobs_before_any_draw(self, lm, lang):
        def never(prior, c, n, rng):
            raise AssertionError("drew")

        before = lang.counter.count
        with pytest.raises(ValueError):
            smc_pwp(lm, lang, "awrs", budget=4, theta0=0.1)
        with pytest.raises(ValueError):
            smc_pwp(lm, lang, never, budget=0)
        assert lang.counter.count == before

    def test_unknown_resample_raises_before_any_draw(self, lm, lang):
        before = lang.counter.count
        with pytest.raises(ValueError, match="multinomial"):
            smc_twist(lm, lang, 10, resample="bogus")
        with pytest.raises(ValueError, match="stratified"):
            smc_pwp(lm, lang, "awrs", 10, resample="bogus")
        assert lang.counter.count == before


class TestGroupedEngine:
    def test_user_batch_proposal(self, lm, lang):
        def mine(prior, c, n, rng):
            out = awrs_batch(prior, c, n, rng)
            return out.tokens, out.zhats

        a = smc_pwp(lm, lang, mine, 500, tau=0.5, seed=3)
        b = smc_pwp(lm, lang, "awrs", 500, tau=0.5, seed=3)
        assert a.posterior_estimate == b.posterior_estimate
        assert a.g_hat == b.g_hat

    def test_exact_proposal_weights_every_row_by_z(self, lm, lang):
        prior = lm.next_dist("")
        _, z = token_mask(prior, lang.constraint_at(""))
        before = lang.counter.count
        tokens, w = weighted_proposal("exact")(prior, lang.constraint_at(""), 50, make_rng(70))
        np.testing.assert_array_equal(w, np.full(50, z))
        assert np.all(lang.valid_next("")[tokens])
        # One full-vocabulary mask serves the whole batch.
        assert lang.counter.count - before == lm.vocab_size

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_eval_counts_are_the_kernels_trials(self, lm, seed):
        # Every particle grows one symbol per step, so a group's prefix
        # length is its step. The last step's groups are point masses on
        # end-of-string: awrs spends its two evaluations per row there too.
        lang = RecordingTrie(["aa", "ba"], alphabet=lm.alphabet)
        trials = [0, 0, 0]

        def recording(prior, c, n, rng):
            out = awrs_batch(prior, c, n, rng)
            trials[len(lang.asked[-1])] += int(out.trials.sum())
            return out.tokens, out.zhats

        ens = smc_pwp(lm, lang, recording, 1000, tau=0.5, seed=seed)
        assert ens.eval_counts == trials
        assert trials[2] == 2 * 1000

    def test_no_valid_token_kills_only_its_group(self, lm):
        # The first call ignores the constraint, so some particles reach
        # prefix "a", where {"ba"} leaves no valid token and awrs raises
        # NoValidToken; the "b" group must carry on.
        lang = TrieLanguage(["ba"], alphabet=lm.alphabet)
        awrs = weighted_proposal("awrs")
        calls = []

        def reckless_first(prior, c, n, rng):
            calls.append(n)
            if len(calls) == 1:
                return sample_many(prior, n, rng), np.ones(n)
            return awrs(prior, c, n, rng)

        ens = smc_pwp(lm, lang, reckless_first, 400, tau=0.0, seed=71)
        prefixes = {p.prefix for p in ens.particles}
        assert "a" in prefixes and "ba" in prefixes
        assert all(p.weight == 0.0 for p in ens.particles if p.prefix == "a")
        assert all(p.weight > 0.0 for p in ens.particles if p.prefix == "ba")
        assert list(ens.posterior_estimate) == ["ba"]
        assert ens.posterior_estimate["ba"] == pytest.approx(1.0)


class RecordingTrie(TrieLanguage):
    """A trie that records, in call order, the prefix of each constraint it derives: one per group."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.asked = []

    def constraint_at(self, prefix):
        self.asked.append(prefix)
        return super().constraint_at(prefix)


def swapped(s: str) -> str:
    return s.translate(str.maketrans("ab", "ba"))


class TestGroupOrder:
    """Each step's groups draw in token-path order: by their prefixes' token ids."""

    @pytest.mark.parametrize("alphabet", [("a", "b"), ("b", "a")])
    def test_groups_draw_in_token_path_order(self, alphabet):
        lm = ToyLM(alphabet, 0, 3, {"": np.array([0.35, 0.35, 0.3])})
        lang = RecordingTrie(["".join(s) for t in range(4) for s in itertools.product("ab", repeat=t)],
                             alphabet=alphabet)
        smc_pwp(lm, lang, "awrs", 400, tau=0.5, seed=1)
        for t in range(4):
            step = [p for p in lang.asked if len(p) == t]
            assert step == sorted(step, key=lambda p: [alphabet.index(ch) for ch in p]) and len(step) == 2**t
            if alphabet == ("a", "b"):
                # Listed in code-point order, token-path order is sorted-prefix order.
                assert step == sorted(step)
        if alphabet == ("b", "a"):
            assert lang.asked[1:3] == ["b", "a"]

    @pytest.mark.parametrize(
        "run",
        [
            lambda lm, lang: smc_pwp(lm, lang, "awrs", 300, seed=6),
            lambda lm, lang: smc_pwp(lm, lang, "cwrs", 300, seed=6, resample="stratified"),
            lambda lm, lang: smc_twist(lm, lang, 300, seed=6),
            lambda lm, lang: lcd_sample(lm, lang, 300, seed=6),
        ],
        ids=["awrs", "cwrs-stratified", "twist", "lcd"],
    )
    def test_a_relabelled_alphabet_runs_the_same_draws(self, run):
        # Listing the alphabet as (b, a) with the same rows by token id is the
        # same model with a and b renamed, so the run is the same run with a
        # and b renamed. A draw order by prefix string would differ.
        lm = random_lm(3, 2, 1, 3)
        strings = ["a", "ab", "ba", "bb", "aab", "abb", "bab", "bba", "bbb"]
        relabelled = ToyLM(("b", "a"), 1, 3, {swapped(ctx): row for ctx, row in lm.tables.items()})
        a = run(lm, TrieLanguage(strings, alphabet=lm.alphabet))
        b = run(relabelled, TrieLanguage([swapped(s) for s in strings], alphabet=("b", "a")))
        assert b.prefixes == [swapped(s) for s in a.prefixes]
        np.testing.assert_array_equal(b.weights, a.weights)
        assert b.eval_counts == a.eval_counts


PERMUTED_LM = two_symbol_lm(3, [0.5, 0.3, 0.2])
# a* over the alphabet listed as (b, a): its mask's column 0 is b, the model's token 0 is a.
A_STAR = {"states": ["q"], "transitions": {"q": {"a": "q"}}, "accepting": ["q"]}


class TestParticleCount:
    """Every rollout method refuses a count that is not a whole number >= 1, naming it."""

    RUNS = {
        "smc_pwp": ("n_particles", lambda lm, fam, n: smc_pwp(lm, fam, "awrs", n_particles=n)),
        "smc_twist": ("n_particles", lambda lm, fam, n: smc_twist(lm, fam, n_particles=n)),
        "lcd_sample": ("n", lambda lm, fam, n: lcd_sample(lm, fam, n=n)),
        "sample_verify": ("n", lambda lm, fam, n: sample_verify(lm, fam, n=n)),
        "importance_sample": ("n", lambda lm, fam, n: importance_sample(lm, fam, n=n)),
    }

    @pytest.mark.parametrize("entry", list(RUNS))
    @pytest.mark.parametrize("count", [0, -1, 10.5, True, float("nan"), "10"])
    def test_refused(self, lm, lang, entry, count):
        name, run = self.RUNS[entry]
        before = lang.counter.count
        with pytest.raises(ValueError, match=f"^{name} must be a whole number >= 1"):
            run(lm, lang, count)
        assert lang.counter.count == before

    @pytest.mark.parametrize("entry", list(RUNS))
    def test_whole_float_is_that_count(self, lm, lang, entry):
        _, run = self.RUNS[entry]
        assert run(lm, lang, 20.0).prefixes == run(lm, lang, 20).prefixes


class TestAlphabetCheck:
    """Every entry point refuses an automaton over another alphabet than the model's."""

    RUNS = {
        "smc_pwp": lambda lm, fam: smc_pwp(lm, fam, "awrs", 20),
        "smc_twist": lambda lm, fam: smc_twist(lm, fam, 20),
        "lcd_sample": lambda lm, fam: lcd_sample(lm, fam, 20),
        "sample_verify": lambda lm, fam: sample_verify(lm, fam, 20),
        "importance_sample": lambda lm, fam: importance_sample(lm, fam, 20),
        "global_posterior": global_posterior,
        "lcd_distribution": lcd_distribution,
    }

    @pytest.mark.parametrize("entry", list(RUNS))
    @pytest.mark.parametrize(
        "pair",
        [
            lambda: (PERMUTED_LM, DfaPattern(**A_STAR, alphabet=("b", "a"))),
            lambda: (example_a1(), TrieLanguage(["aa"])),
        ],
        ids=["permuted", "short"],
    )
    def test_refused(self, entry, pair):
        lm, family = pair()
        with pytest.raises(ValueError, match=r"alphabet \(.*\) is not the model's \('a', 'b'\)"):
            self.RUNS[entry](lm, family)

    def test_the_same_automaton_over_the_model_alphabet(self):
        # The refused permuted pair gave {"": 1.0}; over (a, b) the exact answer.
        post = global_posterior(PERMUTED_LM, DfaPattern(**A_STAR, alphabet=("a", "b")))
        assert post.dist == pytest.approx({"": 0.2 / 0.475, "a": 0.1 / 0.475, "aa": 0.05 / 0.475, "aaa": 0.125 / 0.475})


class TestStreams:
    @pytest.mark.parametrize(
        "run",
        [
            lambda lm, lang: smc_pwp(lm, lang, "awrs", 200, seed=4),
            lambda lm, lang: smc_twist(lm, lang, 200, seed=4),
            lambda lm, lang: lcd_sample(lm, lang, 200, seed=4),
            lambda lm, lang: sample_verify(lm, lang, 200, seed=4),
            lambda lm, lang: importance_sample(lm, lang, 200, seed=4),
        ],
        ids=["smc_pwp", "smc_twist", "lcd_sample", "sample_verify", "importance_sample"],
    )
    def test_one_stream_per_run(self, lm, lang, monkeypatch, run):
        # Every group, resample and rollout of a run draws from stream
        # (seed, 0): making a stream costs more than a small group's draws.
        addresses = []

        def counted(*address):
            addresses.append(address)
            return make_rng(*address)

        monkeypatch.setattr(smc, "make_rng", counted)
        run(lm, lang)
        assert addresses == [(4, 0)]

    def test_first_rollouts_are_a_smaller_run(self, lm, lang):
        big, small = importance_sample(lm, lang, 1000, seed=5), importance_sample(lm, lang, 100, seed=5)
        assert big.prefixes[:100] == small.prefixes
        np.testing.assert_array_equal(big.weights[:100], small.weights)


class TestRolloutLength:
    @pytest.mark.parametrize(
        "engine",
        [lambda lm, lang: smc_pwp(lm, lang, "awrs", 50, seed=1), lambda lm, lang: smc_twist(lm, lang, 50, seed=1)],
        ids=["smc_pwp", "smc_twist"],
    )
    def test_rollouts_run_until_the_model_ends_them(self, engine):
        # End-of-string has no mass before max_len = 70: every particle must
        # run 71 steps, past any fixed step cap, to complete its string.
        lm = ToyLM(("a",), 0, 70, {"": np.array([1.0, 0.0])})
        ens = engine(lm, TrieLanguage(["a" * 70], alphabet=lm.alphabet))
        assert ens.g_hat == 1.0
        assert ens.steps == 71
        assert ens.posterior_estimate == {"a" * 70: pytest.approx(1.0)}


class TestEnsembleArrays:
    """The population arrays, the Particle view and the estimates agree."""

    ENGINES = {
        "smc_pwp": lambda lm, lang: smc_pwp(lm, lang, "awrs", 300, tau=0.5, seed=80),
        "smc_twist": lambda lm, lang: smc_twist(lm, lang, 300, tau=0.5, seed=82),
        "importance_sample": lambda lm, lang: importance_sample(lm, lang, 300, seed=83),
        "sample_verify": lambda lm, lang: sample_verify(lm, lang, 300, seed=84),
        "lcd_sample": lambda lm, lang: lcd_sample(lm, lang, 300, seed=85),
    }

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_arrays_view_and_estimates(self, engine):
        lm = random_lm(5, 3, k=1, max_len=4)
        lang = TrieLanguage(["a", "b", "ab", "ba", "bca", "cc", "acb"], alphabet=lm.alphabet)
        ens = self.ENGINES[engine](lm, lang)
        assert len(ens.prefixes) == ens.weights.shape[0] == 300
        assert [(p.prefix, p.weight) for p in ens.particles] == list(zip(ens.prefixes, ens.weights.tolist()))
        assert ens.g_hat == pytest.approx(float(ens.weights.mean()), rel=1e-12)
        sums: dict = {}
        for s, w in zip(ens.prefixes, ens.weights.tolist()):
            if w > 0:
                sums[s] = sums.get(s, 0.0) + w
        total = sum(sums.values())
        assert list(ens.posterior_estimate) == sorted(sums)
        for s, w in sums.items():
            assert ens.posterior_estimate[s] == pytest.approx(w / total, rel=1e-12)
        assert all(s in lang for s in ens.posterior_estimate)


class TestImportanceSampling:
    def test_weights_on_reversal_fixture(self, lm, lang):
        ens = importance_sample(lm, lang, n=4000, seed=11)
        for p in ens.particles:
            if p.prefix == "aa":
                assert p.weight == pytest.approx(0.01)
            else:
                assert p.prefix == "ba"
                assert p.weight == pytest.approx(0.99)

    def test_mean_weight_estimates_global_mass(self, lm, lang):
        ens = importance_sample(lm, lang, n=20000, seed=12)
        assert ens.g_hat == pytest.approx(0.108, abs=0.005)

    def test_vacuous_constraint_unit_weights(self, lm):
        support = TrieLanguage(["aa", "ab", "ba", "bb"], alphabet=lm.alphabet)
        ens = importance_sample(lm, support, n=500, seed=13)
        assert ens.g_hat == pytest.approx(1.0)
        assert all(p.weight == pytest.approx(1.0) for p in ens.particles)

    def test_posterior_converges(self, lm, lang):
        ens = importance_sample(lm, lang, n=20000, seed=14)
        exact = global_posterior(lm, lang).dist
        assert tv(ens.posterior_estimate, exact) < 0.02

    def test_zero_mass_prefix_gives_weight_zero(self):
        # At max_len the model forces end-of-string, which a string ending
        # in "a" may not take: those rollouts die with weight zero.
        lm, pattern = two_symbol_lm(3, [0.4, 0.3, 0.3]), ends_in_b()
        exact = global_posterior(lm, pattern)
        assert exact.g == pytest.approx(0.3)
        n = 4000
        ens = importance_sample(lm, pattern, n=n, seed=21)
        dead = [s for s, w in zip(ens.prefixes, ens.weights.tolist()) if w == 0.0]
        assert dead and all(len(s) == 3 and s.endswith("a") for s in dead)
        se = ens.weights.std() / np.sqrt(n)
        assert abs(ens.g_hat - exact.g) <= 4 * se
        # TV at N = 4000 had median 0.020 and maximum 0.038 over seeds 0-59.
        assert tv(ens.posterior_estimate, exact.dist) < 0.05

    def test_all_rollouts_dead(self, lm):
        # After "a" only end-of-string is valid, and it has no mass.
        with pytest.raises(AllDead):
            importance_sample(lm, TrieLanguage(["a"], alphabet=lm.alphabet), n=20, seed=1)

    def test_tv_error_monotone_in_sample_count(self, lm, lang):
        # The rollouts draw from one stream in turn, so the first N particles
        # of a big run are a size-N run and the N grid shares draws.
        exact = global_posterior(lm, lang).dist
        tvs = {100: [], 1000: [], 10000: []}
        for seed in range(9):
            ens = importance_sample(lm, lang, n=10000, seed=seed)
            for n in tvs:
                sub = ens.particles[:n]
                total = sum(p.weight for p in sub)
                est: dict = {}
                for p in sub:
                    est[p.prefix] = est.get(p.prefix, 0.0) + p.weight / total
                tvs[n].append(tv(est, exact))
        med = {n: float(np.median(v)) for n, v in tvs.items()}
        assert med[100] > med[1000] > med[10000]


class BareFamily:
    """A family that exposes only ``counter``, ``is_valid_prefix`` and ``constraint_at``.

    A proxy such as a tracer puts in front of a family may copy no more
    than these, so the engines read nothing else.
    """

    def __init__(self, family):
        self.counter = family.counter
        self.is_valid_prefix = family.is_valid_prefix
        self.constraint_at = family.constraint_at


def same_ensemble(a, b):
    assert a.prefixes == b.prefixes
    assert a.weights.tobytes() == b.weights.tobytes()
    assert (a.g_hat, a.posterior_estimate, a.eval_counts, a.steps) == (b.g_hat, b.posterior_estimate, b.eval_counts, b.steps)


PAIRS = {
    "a1": lambda: (example_a1(), TrieLanguage(["aa", "ba"], alphabet=("a", "b"))),
    "ends-in-b": lambda: (two_symbol_lm(3, [0.4, 0.3, 0.3]), ends_in_b()),
}


class TestBareFamily:
    """Every engine gives the same ensemble through a family proxy that exposes only three reads."""

    @pytest.mark.parametrize("pair", sorted(PAIRS))
    @pytest.mark.parametrize(
        "run",
        [
            lambda lm, f: importance_sample(lm, f, 300, seed=4),
            lambda lm, f: smc_pwp(lm, f, "awrs", 300, seed=4),
            lambda lm, f: smc_pwp(lm, f, "exact", 300, seed=4),
            lambda lm, f: smc_twist(lm, f, 300, seed=4),
            lambda lm, f: lcd_sample(lm, f, 300, seed=4, sampler="ars"),
            lambda lm, f: lcd_sample(lm, f, 300, seed=4, sampler="mask"),
        ],
        ids=["is", "pwp-awrs", "pwp-exact", "twist", "lcd-ars", "lcd-mask"],
    )
    def test_same_ensemble(self, pair, run):
        lm, family = PAIRS[pair]()
        try:
            want = run(lm, family)
        except DeadPrefix:
            # lcd on ends-in-b reaches a dead prefix; the proxy must too.
            with pytest.raises(DeadPrefix):
                run(lm, BareFamily(family))
            return
        same_ensemble(run(lm, BareFamily(family)), want)

    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_importance_sample_evaluates_every_token_per_step(self, pair):
        # One masking step per symbol and one for end-of-string, dead
        # rollouts' last step included: the kept constraints save walks,
        # never evaluations.
        lm, family = PAIRS[pair]()
        ens = importance_sample(lm, BareFamily(family), 500, seed=9)
        assert ens.eval_counts == [(len(lm.alphabet) + 1) * sum(len(s) + 1 for s in ens.prefixes)]


class TestSampleVerify:
    def test_surviving_mass_ratio(self, lm, lang):
        ens = sample_verify(lm, lang, n=30000, seed=15)
        post = ens.posterior_estimate
        # Survivors split as 0.009 : 0.099.
        assert post["aa"] == pytest.approx(0.009 / 0.108, abs=0.02)
        assert post["ba"] == pytest.approx(0.099 / 0.108, abs=0.02)

    def test_always_true_verifier(self, lm):
        ens = sample_verify(lm, lambda s: True, n=200, seed=16)
        assert ens.g_hat == pytest.approx(1.0)
        assert ens.eval_count == 0

    def test_language_check_counts_once_per_distinct_string(self, lm, lang):
        before = lang.counter.count
        ens = sample_verify(lm, lang, n=500, seed=18)
        distinct = len(set(ens.prefixes))
        assert distinct > 1
        assert ens.eval_count == lang.counter.count - before == distinct
        assert ens.eval_counts[:-1] == [0] * (ens.steps - 1)

    def test_always_false_raises(self, lm):
        with pytest.raises(AllDead):
            sample_verify(lm, lambda s: False, n=50, seed=17)


class TestEmptyLanguage:
    """A language with no string: every method that weights its rollouts raises AllDead."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda lm, f: smc_pwp(lm, f, "awrs", 20, seed=1),
            lambda lm, f: smc_pwp(lm, f, "exact", 20, seed=1),
            lambda lm, f: smc_twist(lm, f, 20, seed=1),
            lambda lm, f: importance_sample(lm, f, 20, seed=1),
            lambda lm, f: sample_verify(lm, f, 20, seed=1),
        ],
        ids=["pwp-awrs", "pwp-exact", "twist", "is", "sample-verify"],
    )
    def test_all_dead(self, lm, run):
        # The SMC engines take no step from an invalid empty prefix, and
        # finishing a run with no positive weight raises.
        with pytest.raises(AllDead):
            run(lm, TrieLanguage([], alphabet=lm.alphabet))


def awrs_outcomes(walk):
    """A batch proposal giving each row an awrs (token, weight) outcome that ``walk`` picks.

    The outcomes and their probabilities come from ``enumerate_awrs``, with
    the traces that return the same token and weight merged: the engine
    sees no more of a trace.
    """

    def propose(prior, c, n, rng):
        law: dict = {}
        for p, token, zhat, _ in enumerate_awrs(prior.probs.tolist(), c.evaluate_many(np.arange(prior.vocab_size))):
            law[token, zhat] = law.get((token, zhat), 0.0) + p
        if not law:
            raise NoValidToken("no valid token")
        outcomes, probs = list(law), list(law.values())
        picked = [outcomes[walk.pick(probs)] for _ in range(n)]
        return np.array([t for t, _ in picked]), np.array([z for _, z in picked])

    return propose


def multinomial_ancestors(walk, calls: list):
    """A resampler giving each ancestor vector that ``walk`` picks its multinomial probability.

    It appends the weights it resamples to ``calls``.
    """

    def resample(weights, rng):
        calls.append(weights.copy())
        p = weights / weights.sum()
        vectors = [v for v in itertools.product(range(p.shape[0]), repeat=p.shape[0]) if all(p[list(v)] > 0)]
        return np.array(vectors[walk.pick([math.prod(p[list(v)]) for v in vectors])])

    return resample


def walked_uniform(walk, cuts) -> float:
    """A uniform on [0, 1) that ``walk`` places in one of the cells ``cuts`` make.

    A cell's probability is its width, and the cell's midpoint is returned:
    code that only compares the uniform with ``cuts`` acts as on a real draw.
    """
    edges = np.unique(np.clip(np.concatenate([[0.0], cuts, [1.0]]), 0.0, 1.0))
    k = walk.pick(np.diff(edges).tolist())
    return (edges[k] + edges[k + 1]) / 2


class Uniforms:
    """A generator stand-in whose one ``random(n)`` call returns the given uniforms."""

    def __init__(self, u):
        self.u = np.array(u)

    def random(self, n):
        assert n == self.u.shape[0]
        return self.u


def stratified_ancestors(walk, calls: list):
    """``resample_stratified`` with each stratum's uniform picked by ``walk``.

    Stratum i of N takes ancestor j with probability N times the overlap of
    ``[i/N, (i+1)/N)`` with j's cumulative-weight interval. It appends the
    weights it resamples to ``calls``.
    """
    resample_stratified = smc.resample_stratified

    def resample(weights, rng):
        calls.append(weights.copy())
        n = weights.shape[0]
        cum = np.cumsum(weights / weights.sum())
        return resample_stratified(weights, Uniforms([walked_uniform(walk, n * cum - i) for i in range(n)]))

    return resample


def twist_outcomes(walk):
    """``smc._twist`` with each row's uniform picked by ``walk``.

    Each row takes each positive-mass token with its prior probability, and
    ``_twist`` weights it by the 0/1 constraint.
    """
    twist = smc._twist

    def propose(prior, c, n, rng):
        cuts = prior._cum[:-1] / prior._cum[-1]
        return twist(prior, c, n, Uniforms([walked_uniform(walk, cuts) for _ in range(n)]))

    return propose


class TestExactJudge:
    """E[g_hat] and E[g_hat * posterior(s)] over every run of the engine, without a seed.

    Every random point of a run (each row's proposal outcome, each ancestor
    vector) is a choice that ``Walk`` takes every way, and each run is
    weighted by the probability of its choices. A run that raises AllDead
    counts as ``g_hat = 0``. Unbiasedness is then an identity to within
    rounding: E[g_hat] = g and E[g_hat * posterior(s)] = g * pi(s). The
    stratified and twist cases run the library's ``resample_stratified``
    and ``_twist`` on walked uniforms.
    """

    @pytest.mark.parametrize(
        "pair, method, runs",
        [
            # Every run resamples at tau = 1 unless its two weights agree.
            (lambda: (example_a1(), TrieLanguage(["aa", "ba"], alphabet=("a", "b"))), "awrs", 114),
            # Rollouts end at step 1 or 2, and one ending in "a" dies at
            # max_len: resampling meets dead and finished particles, and 31%
            # of the probability raises AllDead.
            (lambda: (two_symbol_lm(2, [0.4, 0.3, 0.3]), ends_in_b()), "awrs", 6183),
            # At N = 2 a stratified resample has at most 2 ancestor vectors, not 4.
            (lambda: (example_a1(), TrieLanguage(["aa", "ba"], alphabet=("a", "b"))), "awrs-stratified", 62),
            (lambda: (two_symbol_lm(2, [0.4, 0.3, 0.3]), ends_in_b()), "awrs-stratified", 1989),
            # Twist weights are 0 or 1: a run resamples only when one particle dies.
            (lambda: (example_a1(), TrieLanguage(["aa", "ba"], alphabet=("a", "b"))), "twist", 16),
            (lambda: (two_symbol_lm(2, [0.4, 0.3, 0.3]), ends_in_b()), "twist", 73),
        ],
        ids=["a1", "ends-in-b", "a1-stratified", "ends-in-b-stratified", "a1-twist", "ends-in-b-twist"],
    )
    def test_unbiased(self, pair, method, runs, monkeypatch):
        lm, family = pair()
        walk, resamples = Walk(), []
        monkeypatch.setitem(smc._RESAMPLERS, "multinomial", multinomial_ancestors(walk, resamples))
        monkeypatch.setitem(smc._RESAMPLERS, "stratified", stratified_ancestors(walk, resamples))
        monkeypatch.setattr(smc, "_twist", twist_outcomes(walk))
        proposal = awrs_outcomes(walk)

        def run():
            try:
                if method == "twist":
                    return smc_twist(lm, family, n_particles=2, tau=1.0)
                resample = "stratified" if method == "awrs-stratified" else "multinomial"
                return smc_pwp(lm, family, proposal, n_particles=2, tau=1.0, resample=resample)
            except AllDead:
                return None

        exact = global_posterior(lm, family)
        total = mean_g = 0.0
        mean_g_pi = dict.fromkeys(exact.dist, 0.0)
        seen = 0
        for prob, ens in walk.runs(run):
            seen += 1
            total += prob
            if ens is not None:
                mean_g += prob * ens.g_hat
                for s, p in ens.posterior_estimate.items():
                    mean_g_pi[s] += prob * ens.g_hat * p
        assert seen == runs and resamples
        assert abs(total - 1.0) <= 1e-12
        assert abs(mean_g - exact.g) <= 1e-12
        for s, p in exact.dist.items():
            assert abs(mean_g_pi[s] - exact.g * p) <= 1e-12, s


class TestLcdGenerate:
    def test_biased_first_symbol_split(self, lm, lang):
        ens = lcd_sample(lm, lang, 4000, seed=18)
        first_a = sum(p for s, p in ens.posterior_estimate.items() if s[0] == "a")
        assert first_a == pytest.approx(0.9, abs=0.02)

    def test_ars_and_mask_rollouts_agree(self, lm, lang):
        n = 6000
        freq_ars = lcd_sample(lm, lang, n, seed=19, sampler="ars").posterior_estimate
        freq_mask = lcd_sample(lm, lang, n, seed=20, sampler="mask").posterior_estimate
        assert tv(freq_ars, freq_mask) < 0.03

    def test_matches_enumerated_rollout_distribution(self, lm, lang):
        lcd = lcd_distribution(lm, lang)
        ens = lcd_sample(lm, lang, 6000, seed=21)
        assert ens.g_hat == 1.0 and np.all(ens.weights == 1.0)
        assert tv(ens.posterior_estimate, lcd.dist) < 0.03

    def test_single_path_language_is_deterministic(self, lm):
        lang = TrieLanguage(["ab"], alphabet=lm.alphabet)
        assert lcd_sample(lm, lang, 20, seed=22).prefixes == ["ab"] * 20

    def test_dead_root_raises(self, lm):
        empty = TrieLanguage([], alphabet=lm.alphabet)
        with pytest.raises(DeadPrefix):
            lcd_sample(lm, empty, 10, seed=23)

    @pytest.mark.parametrize("sampler", ["ars", "mask"])
    def test_dead_prefix_raises(self, lm, sampler):
        # After "a" only end-of-string is valid, and the model gives it no mass.
        lang = TrieLanguage(["a"], alphabet=lm.alphabet)
        with pytest.raises(DeadPrefix):
            lcd_sample(lm, lang, 10, seed=24, sampler=sampler)


class TestBiasCorrectionContrast:
    def test_local_and_global_answers_differ_as_expected(self, lm, lang):
        """The rollout distribution and the corrected posterior disagree
        dramatically on the first symbol; both numbers must show up."""
        lcd = lcd_distribution(lm, lang)
        assert lcd.dist["aa"] == pytest.approx(0.9)
        exact = global_posterior(lm, lang).dist
        assert exact["aa"] == pytest.approx(0.083333, abs=1e-6)
        ens = smc_pwp(lm, lang, "awrs", n_particles=4000, tau=0.5, seed=24)
        assert ens.posterior_estimate["aa"] == pytest.approx(exact["aa"], abs=0.02)
