"""Layer spans recorded from outside the library.

Every traced call is wrapped at a public entry point of a ``zest`` module
and recorded as a span ``(name, start, end, parent, op)``. Spans are kept
in memory for the op that produced them; ``fold`` turns them into per-layer
self times (a span's duration minus the time its child spans cover) and
then drops them, so memory stays bounded by one op's spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import zest.smc
from zest.constraints import EvalCounter, TokenConstraint


class Tracer:
    """In-memory span recorder with per-layer totals."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op = -1
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.ops = 0

    def wrap(self, name: str, fn):
        """Return ``fn`` recording one span per call under ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        return traced

    def add(self, name: str, n: int = 1):
        self.counts[name] += n

    def fold(self):
        """Add this op's span self times and counts to the totals, then drop the spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _, _), covered in zip(self.spans, child):
            self.self_s[name] += (end - start) - covered
            self.counts[name] += 1
        self.spans.clear()
        self.ops += 1


class TracedLM:
    """A ToyLM view whose ``next_dist`` is traced.

    It also records, per prefix length, which prefixes were asked for; SMC
    extends every live particle once per step and a particle at step t
    holds a prefix of length t - 1, so distinct prefixes per length over
    calls per length is the groups-per-live-particle ratio a grouped
    engine would see.
    """

    def __init__(self, lm, tracer: Tracer):
        self.alphabet = lm.alphabet
        self.eos = lm.eos
        self._next = tracer.wrap("toylm.next_dist", lm.next_dist)
        self.prefixes: dict[int, set] = defaultdict(set)

    def next_dist(self, prefix: str):
        self.prefixes[len(prefix)].add(prefix)
        return self._next(prefix)

    def take_groups(self) -> int:
        groups = sum(len(s) for s in self.prefixes.values())
        self.prefixes.clear()
        return groups


def traced_constraint(c: TokenConstraint, tracer: Tracer) -> TokenConstraint:
    """A TokenConstraint whose ``fn`` is ``c.evaluate_many`` under a span.

    The inner constraint keeps counting on its own counter (the family's),
    so the outer one gets a private counter that nobody reads.
    """
    timed = tracer.wrap("constraints.eval", c.evaluate_many)

    def fn(tokens: np.ndarray) -> np.ndarray:
        tracer.add("constraints.eval.tokens", tokens.shape[0])
        return timed(tokens)

    return TokenConstraint(fn, EvalCounter())


class TracedFamily:
    """A constraint family whose ``constraint_at`` and constraint calls are traced."""

    def __init__(self, family, tracer: Tracer):
        self.counter = family.counter
        self.is_valid_prefix = family.is_valid_prefix
        self._at = tracer.wrap("constraints.constraint_at", family.constraint_at)
        self._tracer = tracer

    def constraint_at(self, prefix: str) -> TokenConstraint:
        return traced_constraint(self._at(prefix), self._tracer)


@contextmanager
def patched_smc(tracer: Tracer):
    """Trace the functions ``zest.smc`` calls by module-level name.

    The resampler table holds its own reference to
    ``resample_multinomial``, so that entry is swapped as well.
    """
    names = {
        "make_rng": "rng.make_rng",
        "ess": "smc.ess",
        "token_mask": "oracle.token_mask",
        "sample": "dist.sample",
        "resample_multinomial": "smc.resample",
    }
    saved = {attr: getattr(zest.smc, attr) for attr in names}
    saved_table = dict(zest.smc._RESAMPLERS)
    try:
        for attr, span in names.items():
            setattr(zest.smc, attr, tracer.wrap(span, saved[attr]))
        zest.smc._RESAMPLERS["multinomial"] = zest.smc.resample_multinomial
        yield
    finally:
        for attr, fn in saved.items():
            setattr(zest.smc, attr, fn)
        zest.smc._RESAMPLERS.clear()
        zest.smc._RESAMPLERS.update(saved_table)
