"""Print one sha256 over the outputs of the samplers, the SMC engines and the masking paths.

A change meant to leave every output bit-identical prints the same hash as
its parent. Run it from a checkout against any tree's sources:

    PYTHONPATH=<tree>/src python tools/output_hash.py <tree>

``<tree>`` is the checkout whose ``src/`` and ``bench/`` are hashed. The
hash covers, for fixed seeds:

- the bench's ``trie_pair()`` language, and ``global_posterior`` and
  ``lcd_distribution`` on two small pairs (example-a1 with ``{aa,ba}``, and
  a small ``random_lm`` with a five-string trie);
- ``importance_sample``, ``lcd_sample`` (``sampler="mask"`` and ``"ars"``)
  and ``smc_pwp(..., "exact")`` on those pairs and the trie pair;
- ``smc_pwp`` with each weighted kernel, ``smc_twist`` and
  ``sample_verify`` on the two small pairs, the latter with the language,
  with a callable verifier (strings ending in ``a``) and with one that
  passes everything (the CLI's ``lm`` method);
- every ``*_batch`` kernel at V in {2, 3, 8, 9, 50} on Dirichlet priors,
  priors with zero-mass tokens and point masses, under random, all-valid
  and all-invalid constraints: each output array, or the error raised, the
  constraint evaluations counted, and the generator's next draws;
- ``token_mask`` on the same priors and masks: the posterior's
  ``probs``, ``total``, cumulative sums and point-mass token, and z, or
  the error raised, so a change to the masking step is checked at its own
  layer;
- the ``ars``/``awrs``/``cawrs`` kernels on ``placed_mass_instance`` pairs
  up to V = 1000.

An ensemble is hashed by its prefixes, weights, estimates, evaluation
counts and steps; a run that raises is hashed by its error.
"""

from __future__ import annotations

import hashlib
import sys


def output_hash(tree: str) -> str:
    sys.path.insert(0, f"{tree}/bench")
    from workloads import trie_pair

    import numpy as np

    from zest import samplers
    from zest.constraints import TrieLanguage, mask_constraint
    from zest.dist import Categorical
    from zest.errors import ZestError
    from zest.oracle import global_posterior, lcd_distribution, token_mask
    from zest.rng import make_rng
    from zest.simharness import placed_mass_instance
    from zest.smc import importance_sample, lcd_sample, sample_verify, smc_pwp, smc_twist
    from zest.toylm import example_a1, random_lm

    h = hashlib.sha256()

    def put(x):
        h.update(repr(x).encode())

    def ensemble(run, *args, **kwargs):
        try:
            e = run(*args, **kwargs)
        except ZestError as err:
            put((type(err).__name__, str(err)))
            return
        put((e.prefixes, e.weights.tobytes(), e.g_hat, sorted(e.posterior_estimate.items()), e.eval_counts, e.steps))

    a1, small = example_a1(), random_lm(3, 3, k=1, max_len=4)
    lm, lang = trie_pair()
    put(sorted(lang.strings))
    pairs = [
        (a1, TrieLanguage(["aa", "ba"], alphabet=a1.alphabet)),
        (small, TrieLanguage(["ab", "ba", "cc", "abc", "b"], alphabet=small.alphabet)),
        (lm, lang),
    ]
    for m, f in pairs[:2]:
        put((global_posterior(m, f).__dict__, lcd_distribution(m, f).__dict__))
    for seed in range(30):
        for m, f in pairs:
            ensemble(importance_sample, m, f, 200, seed=seed)
            ensemble(lcd_sample, m, f, 200, seed=seed, sampler="mask")
            ensemble(lcd_sample, m, f, 200, seed=seed, sampler="ars")
            ensemble(smc_pwp, m, f, "exact", 200, seed=seed)
        for m, f in pairs[:2]:
            for kernel in ("awrs", "wrs", "cawrs", "cwrs", "gawrs", "rawrs"):
                ensemble(smc_pwp, m, f, kernel, 200, seed=seed)
            ensemble(smc_twist, m, f, 200, seed=seed)
            ensemble(sample_verify, m, f, 200, seed=seed)
            ensemble(sample_verify, m, lambda s: s.endswith("a"), 200, seed=seed)
            ensemble(sample_verify, m, lambda s: True, 200, seed=seed)
    kernels = ("rs", "ars", "wrs", "awrs", "cawrs", "cwrs", "gawrs", "rawrs")
    for vocab in (2, 3, 8, 9, 50):
        for i in range(12):
            g = np.random.default_rng([vocab, i])
            probs = g.dirichlet(np.ones(vocab))
            if i % 3 == 1:
                probs *= g.random(vocab) >= 0.4
                probs[g.integers(vocab)] += 0.1
            elif i % 3 == 2:
                probs = np.eye(vocab)[g.integers(vocab)]
            prior = Categorical(probs / probs.sum())
            half, most = g.random(vocab) < 0.5, g.random(vocab) < 0.8
            valid = (np.zeros(vocab, dtype=bool), np.ones(vocab, dtype=bool), half, most)[i % 4]
            try:
                local = token_mask(prior, mask_constraint(valid))
                post = local.post
                put((post.probs.tobytes(), post.total, post._cum.tobytes(), post._point, local.z))
            except ZestError as err:
                put((type(err).__name__, str(err)))
            for name in kernels:
                c = mask_constraint(valid)
                rng = make_rng(vocab, i)
                try:
                    out = getattr(samplers, f"{name}_batch")(prior, c, 60, rng)
                    put([a.tobytes() for a in vars(out).values()])
                except ZestError as err:
                    put((type(err).__name__, str(err)))
                put((c.counter.count, rng.random(2).tobytes()))
    for vocab in (3, 9, 50, 1000):
        for z in (1e-2, 1e-1, 0.9):
            prior, valid = placed_mass_instance(vocab, z, min(vocab - 1, 5))
            for kernel in (samplers.ars_batch, samplers.awrs_batch, samplers.cawrs_batch):
                rng = make_rng(vocab, int(z * 100))
                out = kernel(prior, mask_constraint(valid), 300, rng)
                put([a.tobytes() for a in vars(out).values()] + [rng.random(2).tobytes()])
    return h.hexdigest()


if __name__ == "__main__":
    print(output_hash(sys.argv[1] if len(sys.argv) > 1 else "."))
