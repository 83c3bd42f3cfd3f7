"""Counter-based random streams.

All randomness in the library flows through ``numpy.random.Generator``
objects backed by the Philox counter-based bit generator. A stream is
addressed by ``(seed, *stream)``: the same address always yields a
bit-identical draw sequence, and distinct addresses yield independent
streams. This is what lets callers run many sampler invocations in
parallel (one stream per call) without coordinating state. Making a
stream costs about 20 us (2-core x86 host), more than a small batch of
draws, so the SMC engines draw a whole run from one stream rather than
one per step or per group.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng"]


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Return the generator for stream ``stream`` of root ``seed``.

    Identical ``(seed, *stream)`` arguments produce bit-identical
    generators; differing arguments produce independent ones. ``seed``
    must be a non-negative integer (ValueError otherwise).
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream))
    return np.random.Generator(np.random.Philox(ss))
