"""Sequential Monte Carlo engines, resampling, and the bias-correction layer."""

import numpy as np
import pytest

from zest.constraints import TrieLanguage
from zest.dist import sample_many
from zest.errors import AllDead, DeadPrefix
from zest.oracle import global_posterior, lcd_distribution, token_mask
from zest.rng import make_rng
from zest.samplers import awrs_batch
from zest.smc import (
    ess,
    importance_sample,
    lcd_generate,
    resample_multinomial,
    resample_stratified,
    sample_verify,
    smc_pwp,
    smc_twist,
    weighted_proposal,
)
from zest.toylm import ToyLM, example_a1, random_lm


def tv(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


@pytest.fixture
def lm():
    return example_a1()


@pytest.fixture
def lang(lm):
    return TrieLanguage(["aa", "ba"], alphabet=lm.alphabet)


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
        for name in ("awrs", "wrs", "cwrs", "gawrs", "rawrs", "exact"):
            ens = smc_pwp(lm, lang, proposal=name, n_particles=150, tau=0.5, seed=6, budget=4)
            assert set(ens.posterior_estimate) <= {"aa", "ba"}
        ens = smc_pwp(lm, lang, proposal="cawrs", n_particles=150, tau=0.5, seed=6, theta0=0.4, theta1=0.8)
        assert set(ens.posterior_estimate) <= {"aa", "ba"}

    def test_random_instance_converges(self):
        lm = random_lm(31, alphabet_size=3, k=1, max_len=4)
        strings = [s for s, _ in sorted(lm.enumerate_support(), key=lambda sp: -sp[1])[:5]]
        lang = TrieLanguage(strings, alphabet=lm.alphabet)
        ens = smc_pwp(lm, lang, "awrs", n_particles=3000, tau=0.5, seed=8)
        exact = global_posterior(lm, lang).dist
        assert tv(ens.posterior_estimate, exact) < 0.06

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
        z = token_mask(prior, lang.constraint_at("")).z
        before = lang.counter.count
        tokens, w = weighted_proposal("exact")(prior, lang.constraint_at(""), 50, make_rng(70))
        np.testing.assert_array_equal(w, np.full(50, z))
        assert np.all(lang.valid_next("")[tokens])
        # One full-vocabulary mask serves the whole batch.
        assert lang.counter.count - before == lm.vocab_size

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


class TestEnsembleArrays:
    """The population arrays, the Particle view and the estimates agree."""

    ENGINES = {
        "smc_pwp": lambda lm, lang: smc_pwp(lm, lang, "awrs", 300, tau=0.5, seed=80),
        "smc_pwp_cutoff": lambda lm, lang: smc_pwp(lm, lang, "awrs", 300, tau=0.5, seed=81, max_steps=2),
        "smc_twist": lambda lm, lang: smc_twist(lm, lang, 300, tau=0.5, seed=82),
        "importance_sample": lambda lm, lang: importance_sample(lm, lang, 300, seed=83),
        "sample_verify": lambda lm, lang: sample_verify(lm, lang, 300, seed=84),
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

    def test_tv_error_monotone_in_sample_count(self, lm, lang):
        # Per-rollout streams make the first N particles of a big run
        # identical to a size-N run, so the N grid shares draws.
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

    def test_always_false_raises(self, lm):
        with pytest.raises(AllDead):
            sample_verify(lm, lambda s: False, n=50, seed=17)


class TestLcdGenerate:
    def test_biased_first_symbol_split(self, lm, lang):
        counts = {"a": 0, "b": 0}
        for i in range(4000):
            s = lcd_generate(lm, lang, make_rng(18, i))
            counts[s[0]] += 1
        assert counts["a"] / 4000 == pytest.approx(0.9, abs=0.02)

    def test_ars_and_mask_rollouts_agree(self, lm, lang):
        n = 6000
        freq_ars: dict = {}
        freq_mask: dict = {}
        for i in range(n):
            a = lcd_generate(lm, lang, make_rng(19, i), sampler="ars")
            m = lcd_generate(lm, lang, make_rng(20, i), sampler="mask")
            freq_ars[a] = freq_ars.get(a, 0) + 1 / n
            freq_mask[m] = freq_mask.get(m, 0) + 1 / n
        assert tv(freq_ars, freq_mask) < 0.03

    def test_matches_enumerated_rollout_distribution(self, lm, lang):
        lcd = lcd_distribution(lm, lang)
        n = 6000
        freq: dict = {}
        for i in range(n):
            s = lcd_generate(lm, lang, make_rng(21, i))
            freq[s] = freq.get(s, 0) + 1 / n
        assert tv(freq, lcd.dist) < 0.03

    def test_single_path_language_is_deterministic(self, lm):
        lang = TrieLanguage(["ab"], alphabet=lm.alphabet)
        assert all(lcd_generate(lm, lang, make_rng(22, i)) == "ab" for i in range(20))

    def test_dead_root_raises(self, lm):
        empty = TrieLanguage([], alphabet=lm.alphabet)
        with pytest.raises(DeadPrefix):
            lcd_generate(lm, empty, make_rng(23))


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
