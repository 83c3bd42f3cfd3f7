"""Closed-form expected-cost laws for the rejection samplers.

These are the analytic counterparts of the empirical constraint-call
counts: the with-replacement sampler costs (L + 1) / z trials in
expectation, while the adaptive sampler's cost is governed by the
distractor probabilities q_x = p(x) / (p(x) + z) of the invalid tokens.
"""

from __future__ import annotations

import math

import numpy as np

from .dist import Categorical
from .samplers import check_knobs

__all__ = [
    "wrs_expected_calls",
    "awrs_expected_calls",
    "distractor_probs",
]


def wrs_expected_calls(z: float, extra_loops: int = 1) -> float:
    """Expected constraint calls of the with-replacement sampler: (L+1)/z.

    L must be an L the kernels take (``samplers.check_knobs``).
    """
    if not (0.0 < z <= 1.0):
        raise ValueError("z must lie in (0, 1]")
    check_knobs(extra_loops=extra_loops)
    return (extra_loops + 1) / z


def distractor_probs(prior: Categorical, valid: np.ndarray) -> np.ndarray:
    """q_x = p(x) / (p(x) + z) for each invalid token x.

    q_x is the probability that invalid token x appears before any valid
    token in a (with- or without-replacement) scan; tokens with q_x near 1
    are the distractors that dominate adaptive sampling cost.
    """
    valid = np.asarray(valid, dtype=bool)
    z = float(prior.probs[valid].sum())
    if z <= 0.0:
        raise ValueError("constraint leaves no prior mass (z = 0)")
    p_inv = prior.probs[~valid]
    return p_inv / (p_inv + z)


def awrs_expected_calls(prior: Categorical, valid: np.ndarray, extra_loops: int = 1) -> float:
    """Expected constraint calls of the adaptive weighted sampler.

    Exact value: 1 + L + #invalid - sum over invalid x of (1 - q_x)^(L+1).
    Tokens with zero prior mass contribute nothing (q_x = 0 kills their
    term), matching the fact that they are never sampled. The (1-q)^(L+1)
    factor is evaluated through log1p to stay accurate for tiny q. L must
    be an L the kernels take (``samplers.check_knobs``).
    """
    check_knobs(extra_loops=extra_loops)
    q = distractor_probs(prior, valid)
    L = extra_loops
    # 1 - (1-q)^(L+1) via expm1/log1p, summed with compensation.
    terms = -np.expm1((L + 1) * np.log1p(-q))
    return 1.0 + L + math.fsum(terms.tolist())

