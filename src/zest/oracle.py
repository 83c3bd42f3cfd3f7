"""Exact, slow reference computations that every sampler is tested against.

These enumerate rather than sample. The string oracles walk every prefix
that a constraint automaton keeps live; a ToyLM's forced end-of-string at
``max_len`` ends the walk, whose cost grows with the accepted strings.
Both refuse an automaton whose alphabet is not the model's (ValueError).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import DfaPattern, TokenConstraint, _check_alphabet
from .dist import Categorical
from .errors import DeadPrefix, EmptyPosterior, NoValidToken
from .toylm import ToyLM

__all__ = [
    "token_mask",
    "GlobalPosterior",
    "global_posterior",
    "LcdDistribution",
    "lcd_distribution",
]


def token_mask(prior: Categorical, c: TokenConstraint) -> tuple[Categorical, float]:
    """Exact local posterior by evaluating the constraint on every token.

    Returns the pair ``(post, z)``: the prior restricted to valid tokens
    and its normalizing mass. This is the full-vocabulary enumeration
    path: it always costs exactly ``vocab_size`` constraint evaluations and
    yields the exact z, unlike the rejection samplers which trade exact z
    for far fewer evaluations. The pair is ``Categorical.masked``'s, which
    derives the posterior from the checked prior and fills the fields a
    checked build of ``prior.probs * valid / z`` would have, without
    rerunning its checks.
    Raises NoValidToken when no valid token has prior mass (z = 0).
    """
    return prior.masked(c.evaluate_many(np.arange(prior.vocab_size, dtype=np.int64)))


@dataclass
class GlobalPosterior:
    """Exact distribution over complete strings given the sequence constraint."""

    dist: dict[str, float]
    g: float


def global_posterior(lm: ToyLM, family: DfaPattern) -> GlobalPosterior:
    """Condition the model on acceptance by ``family`` by full enumeration.

    Returns the posterior over accepted strings, in sorted order, together
    with g, the total prior probability of acceptance. Raises
    EmptyPosterior when g = 0.
    """
    _check_alphabet(family, lm.alphabet)
    masses = {}
    # Depth-first over live prefixes, multiplying in lm.string_prob's order.
    stack = [("", 1.0)]
    while stack:
        prefix, p = stack.pop()
        probs = lm.next_dist(prefix).probs
        for i in np.flatnonzero(family.valid_next(prefix) & (probs > 0)).tolist():
            if i == lm.eos:
                masses[prefix] = p * float(probs[i])
            else:
                stack.append((prefix + lm.alphabet[i], p * float(probs[i])))
    g = math.fsum(masses.values())
    if g <= 0.0:
        raise EmptyPosterior("no accepted string has positive model probability")
    return GlobalPosterior(dist={s: m / g for s, m in sorted(masses.items()) if m > 0}, g=g)


@dataclass
class LcdDistribution:
    """The product-of-locals string distribution and its per-string weights.

    ``dist[s]`` is the probability of producing ``s`` when every step
    samples from the locally renormalized posterior; ``weights[s]`` is the
    product of the local normalizing masses along the way. Reweighting
    ``dist`` by ``weights`` and normalizing recovers the global posterior.
    """

    dist: dict[str, float]
    weights: dict[str, float]


def lcd_distribution(lm: ToyLM, family: DfaPattern) -> LcdDistribution:
    """Enumerate the locally-constrained decoding distribution exactly.

    Raises DeadPrefix where ``lcd_sample`` would: at a reachable prefix,
    the root included, with no valid token of positive probability.
    """
    _check_alphabet(family, lm.alphabet)
    out_p: dict[str, float] = {}
    out_w: dict[str, float] = {}
    # Depth-first walk over valid prefixes, carrying the product of local
    # posteriors (path_p) and of local normalizing masses (path_w).
    stack = [("", 1.0, 1.0)]
    while stack:
        prefix, path_p, path_w = stack.pop()
        try:
            local, z = token_mask(lm.next_dist(prefix), family.constraint_at(prefix))
        except NoValidToken as e:
            raise DeadPrefix(f"prefix {prefix!r} has no valid continuation") from e
        post = local.probs
        w = path_w * z
        p_eos = float(post[lm.eos])
        if p_eos > 0:
            out_p[prefix] = path_p * p_eos
            out_w[prefix] = w
        for i, ch in enumerate(lm.alphabet):
            q = float(post[i])
            if q > 0:
                stack.append((prefix + ch, path_p * q, w))
    return LcdDistribution(dist=out_p, weights=out_w)

