"""Dense categorical distributions and the draws every sampler builds on.

Probabilities are stored linearly (not in log space) as dense float64
vectors; at the vocabulary sizes this library targets (<= 1e5) that is
both simpler and faster than sparse or log-space storage. Zero-probability
tokens are legal everywhere and are never sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AllZeroMass

__all__ = [
    "Categorical",
    "normalize",
    "sample",
    "sample_many",
    "remove_renormalize",
]

SUM_TOL = 1e-9


@dataclass
class Categorical:
    """A normalized distribution over token ids ``0 .. vocab_size - 1``."""

    probs: np.ndarray
    _cum: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 1:
            raise ValueError("probs must be a 1-d vector")
        if np.any(self.probs < 0):
            raise ValueError("probs must be non-negative")
        if abs(float(self.probs.sum()) - 1.0) > SUM_TOL:
            raise ValueError("probs must sum to 1 (use normalize() on raw weights)")

    @property
    def vocab_size(self) -> int:
        return self.probs.shape[0]

    def cumulative(self) -> np.ndarray:
        """Cached cumulative sums, shared by the inverse-CDF samplers."""
        if self._cum is None:
            self._cum = np.cumsum(self.probs)
        return self._cum

    def support(self) -> np.ndarray:
        """Token ids with positive probability."""
        return np.flatnonzero(self.probs > 0)


def normalize(weights) -> Categorical:
    """Scale non-negative weights into a Categorical.

    Raises AllZeroMass when every weight is zero.
    """
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total = float(w.sum())
    if total <= 0.0:
        raise AllZeroMass("cannot normalize an all-zero weight vector")
    return Categorical(w / total)


def _inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    # Scaling u by the realized total keeps draws inside [0, cum[-1]) so
    # zero-width (zero-probability) intervals can never be selected.
    idx = np.searchsorted(cum, u * cum[-1], side="right")
    return np.minimum(idx, cum.shape[0] - 1)


def sample(dist: Categorical, rng: np.random.Generator) -> int:
    """Draw one token id distributed as ``dist.probs``."""
    return int(_inverse_cdf(dist.cumulative(), rng.random(1))[0])


def sample_many(dist: Categorical, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` iid token ids distributed as ``dist.probs``."""
    return _inverse_cdf(dist.cumulative(), rng.random(n))


def remove_renormalize(dist: Categorical, removed) -> Categorical:
    """Zero out ``removed`` token ids and rescale the survivors.

    ``removed`` may be an iterable of ids or a boolean mask. Survivors are
    scaled by 1 / (1 - removed mass). Raises AllZeroMass when the removal
    exhausts the support.
    """
    mask = np.zeros(dist.vocab_size, dtype=bool)
    removed = np.asarray(list(removed) if not isinstance(removed, np.ndarray) else removed)
    if removed.dtype == bool:
        mask |= removed
    elif removed.size:
        mask[removed.astype(np.int64)] = True
    survivors = np.where(mask, 0.0, dist.probs)
    # Summing the survivors directly is the numerically safer form of
    # dividing by (1 - removed mass).
    total = float(survivors.sum())
    if total <= 0.0:
        raise AllZeroMass("removal exhausted the support")
    return Categorical(survivors / total)
