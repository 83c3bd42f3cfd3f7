"""Dense categorical distributions and the draws every sampler builds on.

Probabilities are stored linearly (not in log space) as dense float64
vectors; at the vocabulary sizes this library targets (<= 1e5) that is
both simpler and faster than sparse or log-space storage. Zero-probability
tokens are legal everywhere and are never sampled, and a distribution with
one supported token is sampled without drawing a uniform.

Building a ``Categorical`` is its check, kept to few numpy calls: its sign
test is one reduction, ``probs.min() >= 0``, which fails on NaN as the sum
test does. The masking oracle builds no checked object per step: it derives
its posterior from a checked prior and a boolean mask with ``masked``,
which fills the same tables without the checks that cannot fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AllZeroMass, NoValidToken

__all__ = [
    "Categorical",
    "normalize",
    "sample",
    "sample_many",
]

SUM_TOL = 1e-9


@dataclass
class Categorical:
    """A normalized distribution over token ids ``0 .. vocab_size - 1``.

    The one check of a next-token distribution: ``probs`` must be
    non-negative and sum to 1 within ``SUM_TOL``, so NaN and infinite
    entries are refused. The tables the samplers read are built with the
    object, so a distribution that a model hands out again and again (a
    ToyLM holds one per context) pays for them once: ``total`` (a pairwise
    sum of ``probs``), the cumulative sums that ``sample_many`` searches,
    and the one supported token of a point mass. Only the V <= 8 tables of
    ``byte_pools``, which answer every question the samplers ask of a pool
    of removed tokens, are built on first use. Treat ``probs`` as
    immutable: the tables are not rebuilt.

    A point mass (one token of positive probability) is sampled without a
    uniform: ``sample_many`` returns its token and leaves the generator
    where it was. ``masked`` derives a distribution restricted to some
    tokens from a checked one, with the same tables and without the check.
    """

    probs: np.ndarray
    total: float = field(init=False, repr=False, compare=False)
    _cum: np.ndarray = field(init=False, repr=False, compare=False)
    # The supported token of a point mass, else -1.
    _point: int = field(init=False, repr=False, compare=False)
    _byte_pools: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        probs = self.probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1:
            raise ValueError("probs must be a 1-d vector")
        # min() of an empty vector would raise numpy's own error.
        if not probs.size:
            raise ValueError("probs must not be an empty vector")
        # Both tests fail on NaN: min() returns NaN, and every comparison with NaN is False.
        if not probs.min() >= 0:
            raise ValueError("probs must be non-negative and not NaN")
        # A pairwise sum: at V = 1e5 the sequential cumulative total is off by up to 2.3e-12.
        total = float(probs.sum())
        if not abs(total - 1.0) <= SUM_TOL:
            raise ValueError("probs must be finite and sum to 1 (use normalize() on raw weights)")
        self._tables(total)

    def _tables(self, total: float) -> None:
        """Set ``total`` and build the tables ``sample_many`` reads from ``probs``."""
        probs = self.probs
        self.total = total
        self._cum = probs.cumsum()
        self._point = int(probs.argmax()) if np.count_nonzero(probs) == 1 else -1

    def masked(self, valid: np.ndarray) -> tuple[Categorical, float]:
        """This distribution restricted to the ``valid`` tokens, and its mass z there.

        The posterior is ``probs * valid / z`` with the fields
        ``Categorical(probs * valid / z)`` would have, built without its
        checks, which cannot fail: a boolean mask keeps every entry of a
        checked distribution finite and >= 0 (a -0.0 mass stays -0.0), and
        dividing by the positive pairwise sum z keeps the total within a
        few roundings of 1. ``valid`` is a boolean vector of length V.
        Raises NoValidToken when z = 0.
        """
        # On a checked prior this is np.where(valid, probs, 0.0) bit for bit,
        # except that a -0.0 mass at an invalid token stays -0.0.
        unnorm = self.probs * valid
        z = float(unnorm.sum())
        if z <= 0.0:
            raise NoValidToken("constraint leaves no prior mass")
        post = object.__new__(Categorical)
        post.probs = probs = unnorm / z
        post._byte_pools = None
        post._tables(float(probs.sum()))
        return post, z

    @property
    def vocab_size(self) -> int:
        return self.probs.shape[0]

    def byte_pools(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """At V <= 8, the tables of every pool one byte can mark, indexed by that byte.

        Bit i of byte b (little-endian bit order) marks token i as removed,
        and pool b is ``probs`` with those tokens zeroed. Of the four arrays,
        the first ((V - 1) x 2^V) holds in column b pool b's first V - 1
        cumulative masses divided by its total, so a gather of n pools is
        V - 1 contiguous rows of n; its last, omitted, would be exactly 1.
        The others, one entry per byte, are each pool's mass summed over
        its surviving tokens, the mass summed over its removed tokens, and
        whether no surviving token has mass (the empty pool's column of the
        first is never read). Built on the first call and kept.
        """
        if self._byte_pools is None:
            vocab = self.vocab_size
            if vocab > 8:
                raise ValueError("byte pools need a vocabulary of at most 8 tokens")
            byte = np.arange(1 << vocab, dtype=np.uint8)[None, :]
            removed = np.unpackbits(byte, axis=0, count=vocab, bitorder="little")
            probs = self.probs[:, None]
            cum = np.cumsum(np.where(removed, 0.0, probs), axis=0)
            left = cum[-1]
            normed = np.divide(cum[:-1], left, out=np.ones_like(cum[:-1]), where=left > 0.0)
            self._byte_pools = (normed, left, np.where(removed, probs, 0.0).sum(axis=0), left == 0.0)
        return self._byte_pools

    def support(self) -> np.ndarray:
        """Token ids with positive probability."""
        return np.flatnonzero(self.probs > 0)


def normalize(weights) -> Categorical:
    """Scale finite non-negative weights into a Categorical.

    Raises AllZeroMass when every weight is zero.
    """
    w = np.asarray(weights, dtype=np.float64)
    if not np.all((w >= 0) & (w < np.inf)):
        raise ValueError("weights must be finite and non-negative")
    total = float(w.sum())
    if total <= 0.0:
        raise AllZeroMass("cannot normalize an all-zero weight vector")
    return Categorical(w / total)


def sample(dist: Categorical, rng: np.random.Generator) -> int:
    """Draw one token id distributed as ``dist.probs``.

    The scalar form of ``sample_many``: it returns the token that
    ``sample_many(dist, 1, rng)[0]`` returns and leaves ``rng`` in the same
    state, without building arrays for a batch of one.
    """
    if dist._point >= 0:
        return dist._point
    cum = dist._cum
    return min(int(cum.searchsorted(rng.random() * cum[-1], side="right")), cum.shape[0] - 1)


def sample_many(dist: Categorical, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` iid token ids distributed as ``dist.probs``.

    A point mass draws no uniform: its ``n`` tokens are its one supported
    token, and ``rng`` is left untouched.
    """
    if dist._point >= 0:
        return np.full(n, dist._point, dtype=np.intp)
    cum = dist._cum
    # Scaling u by the realized total keeps draws inside [0, cum[-1]) so
    # zero-width (zero-probability) intervals can never be selected.
    idx = cum.searchsorted(rng.random(n) * cum[-1], side="right")
    return np.minimum(idx, cum.shape[0] - 1, out=idx)
