"""Small exact autoregressive models over tiny alphabets.

Every model here has finite support by construction: strings longer than
``max_len`` are impossible because the final step forces end-of-string
with probability one. That makes global posteriors under any automaton
enumerable (``zest.oracle``), which is what lets the samplers and SMC
engines be tested against exact answers.

Token ids: symbol ``i`` of the alphabet is token ``i``; end-of-string is
token ``alphabet_size``. Conditional tables are keyed by the last
``min(k, len(prefix))`` symbols of the prefix. Each row becomes one
``Categorical`` when the model is made, which refuses a row that is not a
distribution, so ``next_dist`` is a lookup.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dist import Categorical
from .errors import PrefixTooLong
from .jsondoc import read_json
from .rng import make_rng

__all__ = ["ToyLM", "random_lm", "example_a1", "builtin_model", "BUILTIN_MODELS"]


@dataclass
class ToyLM:
    """An order-k autoregressive model with a hard length cutoff."""

    alphabet: tuple[str, ...]
    order: int
    max_len: int
    tables: dict[str, np.ndarray]
    # One distribution per table row, and the forced end-of-string point mass.
    _dists: dict[str, Categorical] = field(init=False, repr=False, compare=False)
    _eos_forced: Categorical = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.alphabet = tuple(self.alphabet)
        if self.order < 0 or self.max_len < 0:
            raise ValueError(f"order and max_len must be >= 0, not {self.order} and {self.max_len}")
        width = len(self.alphabet) + 1
        self._dists = {}
        for ctx, row in list(self.tables.items()):
            row = np.asarray(row, dtype=np.float64)
            if row.shape != (width,):
                raise ValueError(f"table row for context {ctx!r} has wrong width")
            try:
                self._dists[ctx] = Categorical(row)
            except ValueError as e:
                raise ValueError(f"table row for context {ctx!r} is not a distribution: {e}") from None
            self.tables[ctx] = row
        self._eos_forced = Categorical(np.arange(width) == self.eos)

    @property
    def eos(self) -> int:
        return len(self.alphabet)

    @property
    def vocab_size(self) -> int:
        return len(self.alphabet) + 1

    def context_key(self, prefix: str) -> str:
        return prefix[-self.order:] if self.order > 0 else ""

    def next_dist(self, prefix: str) -> Categorical:
        """Exact next-token conditional, including end-of-string mass.

        At ``len(prefix) == max_len`` the distribution is a forced point
        mass on end-of-string, which is what keeps the support finite.
        Returned objects are built with the model and shared; treat them as
        immutable. A context with no table row raises ValueError.
        """
        if len(prefix) > self.max_len:
            raise PrefixTooLong(f"prefix of length {len(prefix)} exceeds max_len {self.max_len}")
        if len(prefix) == self.max_len:
            return self._eos_forced
        ctx = self.context_key(prefix)
        try:
            return self._dists[ctx]
        except KeyError:
            raise ValueError(f"the model has no table row for the context {ctx!r}") from None

    def string_prob(self, s: str) -> float:
        """Probability of the complete string ``s`` (symbol steps then eos)."""
        if len(s) > self.max_len:
            return 0.0
        p = 1.0
        for t, ch in enumerate(s):
            sym = self.alphabet.index(ch)
            p *= float(self.next_dist(s[:t]).probs[sym])
        p *= float(self.next_dist(s).probs[self.eos])
        return p

    def to_json(self) -> str:
        doc = {
            "alphabet": list(self.alphabet),
            "k": self.order,
            "max_len": self.max_len,
            "tables": {ctx: row.tolist() for ctx, row in self.tables.items()},
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, source) -> "ToyLM":
        """Build from a JSON file path, JSON text, or an already-parsed dict.

        A missing key raises ValueError, as does malformed JSON text or a
        table row that is not a distribution of the right width.
        """
        doc = read_json(source)
        try:
            alphabet, order, max_len, tables = (doc[key] for key in ("alphabet", "k", "max_len", "tables"))
        except KeyError as e:
            raise ValueError(f"model JSON lacks the key {e.args[0]!r}") from None
        if not isinstance(tables, dict):
            raise TypeError("model JSON 'tables' must map contexts to rows")
        return cls(
            alphabet=tuple(alphabet),
            order=int(order),
            max_len=int(max_len),
            tables={ctx: np.asarray(row, dtype=np.float64) for ctx, row in tables.items()},
        )


def _all_contexts(alphabet: tuple[str, ...], k: int) -> list[str]:
    contexts = [""]
    frontier = [""]
    for _ in range(k):
        frontier = [ctx + ch for ctx in frontier for ch in alphabet]
        contexts.extend(frontier)
    return contexts


def random_lm(seed: int, alphabet_size: int, k: int, max_len: int) -> ToyLM:
    """A model with Dirichlet(1) conditionals, deterministic in ``seed``."""
    if alphabet_size > 26:
        raise ValueError("alphabet_size limited to 26 single-letter symbols")
    alphabet = tuple(chr(ord("a") + i) for i in range(alphabet_size))
    rng = make_rng(seed, 0)
    tables = {ctx: rng.dirichlet(np.ones(alphabet_size + 1)) for ctx in _all_contexts(alphabet, k)}
    return ToyLM(alphabet=alphabet, order=k, max_len=max_len, tables=tables)


def example_a1() -> ToyLM:
    """Two-symbol fixture with a strong first-step/continuation reversal.

    All strings are exactly two symbols long. The first symbol is 'a'
    with probability 0.9, but continuations conspire so that, conditioned
    on the language {aa, ba}, almost all posterior mass sits on 'ba'.
    Used throughout the tests and docs.
    """
    return ToyLM(
        alphabet=("a", "b"),
        order=1,
        max_len=2,
        tables={
            "": np.array([0.9, 0.1, 0.0]),
            "a": np.array([0.01, 0.99, 0.0]),
            "b": np.array([0.99, 0.01, 0.0]),
        },
    )


BUILTIN_MODELS = {"example-a1": example_a1}


def builtin_model(name: str) -> ToyLM:
    try:
        return BUILTIN_MODELS[name]()
    except KeyError:
        raise KeyError(f"unknown builtin model {name!r}; choices: {sorted(BUILTIN_MODELS)}")
