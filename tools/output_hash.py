"""Print one sha256 over the outputs of the exact-posterior and masking paths.

A change meant to leave every output bit-identical prints the same hash as
its parent. Run it from a checkout against any tree's sources:

    PYTHONPATH=<tree>/src python tools/output_hash.py <tree>

``<tree>`` is the checkout whose ``src/`` and ``bench/`` are hashed. The
hash covers, for fixed seeds, the bench's ``trie_pair()`` language,
``global_posterior`` and ``lcd_distribution`` on two small pairs,
``importance_sample``, ``lcd_sample(..., sampler="mask")`` and
``smc_pwp(..., "exact")`` on those pairs and the trie pair, and the
``ars``/``awrs``/``cawrs`` batch kernels with the generator's next draws.
"""

from __future__ import annotations

import hashlib
import sys


def output_hash(tree: str) -> str:
    sys.path.insert(0, f"{tree}/bench")
    from workloads import trie_pair

    from zest.constraints import TrieLanguage, mask_constraint
    from zest.oracle import global_posterior, lcd_distribution
    from zest.rng import make_rng
    from zest.samplers import ars_batch, awrs_batch, cawrs_batch
    from zest.simharness import placed_mass_instance
    from zest.smc import importance_sample, lcd_sample, smc_pwp
    from zest.toylm import example_a1, random_lm

    h = hashlib.sha256()

    def put(x):
        h.update(repr(x).encode())

    def ensemble(e):
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
            ensemble(importance_sample(m, f, 200, seed=seed))
            ensemble(lcd_sample(m, f, 200, seed=seed, sampler="mask"))
            ensemble(smc_pwp(m, f, "exact", 200, seed=seed))
    for vocab in (3, 9, 50, 1000):
        for z in (1e-2, 1e-1, 0.9):
            prior, valid = placed_mass_instance(vocab, z, min(vocab - 1, 5))
            for kernel in (ars_batch, awrs_batch, cawrs_batch):
                rng = make_rng(vocab, int(z * 100))
                out = kernel(prior, mask_constraint(valid), 300, rng)
                put([a.tobytes() for a in vars(out).values()] + [rng.random(2).tobytes()])
    return h.hexdigest()


if __name__ == "__main__":
    print(output_hash(sys.argv[1] if len(sys.argv) > 1 else "."))
