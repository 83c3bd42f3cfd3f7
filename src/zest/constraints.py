"""Local token constraints with evaluation counting.

A constraint answers, for a fixed string prefix, which next tokens keep a
valid completion reachable. Evaluation counts are the library's runtime
currency: every sampler's cost is measured in how many (prefix, token)
predicate calls it makes, so the counter must tally exactly one unit per
queried token, never more, never fewer.

Constraints here are stateless with respect to sampling: they are
re-derived per prefix from an immutable language or pattern object.
Token ids follow the convention of the toy language models: symbols are
``0 .. alphabet_size - 1`` and the end-of-string token is
``alphabet_size``, an ordinary id so samplers need no special casing.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable

import numpy as np

__all__ = [
    "EvalCounter",
    "TokenConstraint",
    "TrieLanguage",
    "DfaPattern",
    "blackbox_constraint",
    "mask_constraint",
]


class EvalCounter:
    """Shared tally of constraint evaluations.

    A language or pattern hands one counter to every per-prefix constraint
    it derives, so the family-level total survives re-derivation. Updates
    are single bulk adds per evaluated batch; callers running constraints
    in parallel should give each worker its own counter and merge.
    """

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, n: int):
        self.count += n


class TokenConstraint:
    """Boolean validity oracle over next tokens for one fixed prefix."""

    __slots__ = ("_fn", "counter")

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], counter: EvalCounter | None = None):
        # fn maps an int array of token ids to a bool array, pure and
        # prefix-bound; counting happens here, not in fn.
        self._fn = fn
        self.counter = counter if counter is not None else EvalCounter()

    def __call__(self, token: int) -> bool:
        self.counter.add(1)
        return bool(self._fn(np.asarray([token], dtype=np.int64))[0])

    def evaluate_many(self, tokens: np.ndarray) -> np.ndarray:
        """Evaluate a batch of token ids, one counted call per id."""
        tokens = np.asarray(tokens, dtype=np.int64)
        self.counter.add(tokens.shape[0])
        return np.asarray(self._fn(tokens), dtype=bool)

    @property
    def eval_count(self) -> int:
        return self.counter.count


def mask_constraint(valid: np.ndarray, counter: EvalCounter | None = None) -> TokenConstraint:
    """Constraint given directly as a boolean valid-token mask."""
    valid = np.asarray(valid, dtype=bool)
    return TokenConstraint(lambda toks: valid[toks], counter)


def blackbox_constraint(
    fn: Callable[[str, int], bool],
    prefix: str = "",
    counter: EvalCounter | None = None,
) -> TokenConstraint:
    """Wrap an arbitrary pure ``(prefix, token) -> bool`` predicate."""

    def many(tokens: np.ndarray) -> np.ndarray:
        return np.fromiter((fn(prefix, int(t)) for t in tokens), dtype=bool, count=tokens.shape[0])

    return TokenConstraint(many, counter)


class TrieLanguage:
    """A finite set of symbol strings with prefix queries via a trie.

    The derived per-prefix constraint accepts a symbol iff the extended
    prefix still leads to some stored string, and accepts end-of-string
    iff the prefix itself is a stored string. An off-trie prefix yields an
    everywhere-false constraint; callers detect that through the Z = 0
    path rather than an exception.
    """

    def __init__(self, strings: Iterable[str], alphabet: Iterable[str] | None = None):
        self.strings = frozenset(strings)
        if alphabet is None:
            alphabet = sorted({ch for s in self.strings for ch in s})
        self.alphabet = tuple(alphabet)
        self._sym_id = {ch: i for i, ch in enumerate(self.alphabet)}
        for s in self.strings:
            for ch in s:
                if ch not in self._sym_id:
                    raise ValueError(f"symbol {ch!r} not in alphabet")
        self.counter = EvalCounter()
        self._mask_cache: dict[str, np.ndarray] = {}
        self._trie: dict = {}
        for s in self.strings:
            node = self._trie
            for ch in s:
                node = node.setdefault(ch, {})

    @classmethod
    def from_file(cls, path, alphabet: Iterable[str] | None = None) -> "TrieLanguage":
        """Load one string per line from a newline-delimited UTF-8 file."""
        with open(path, encoding="utf-8") as fh:
            strings = [line.rstrip("\n") for line in fh if line.rstrip("\n") != ""]
        return cls(strings, alphabet)

    @property
    def eos(self) -> int:
        return len(self.alphabet)

    def __contains__(self, s: str) -> bool:
        return s in self.strings

    def __len__(self) -> int:
        return len(self.strings)

    def _node(self, prefix: str):
        node = self._trie
        for ch in prefix:
            node = node.get(ch)
            if node is None:
                return None
        return node

    def is_valid_prefix(self, prefix: str) -> bool:
        if not self.strings:
            return False
        return self._node(prefix) is not None

    def valid_next(self, prefix: str) -> np.ndarray:
        """Boolean accept mask over token ids (symbols then eos)."""
        mask = self._mask_cache.get(prefix)
        if mask is not None:
            return mask
        mask = np.zeros(len(self.alphabet) + 1, dtype=bool)
        node = self._node(prefix)
        if node is not None:
            for ch in node:
                mask[self._sym_id[ch]] = True
        mask[self.eos] = prefix in self.strings
        self._mask_cache[prefix] = mask
        return mask

    def constraint_at(self, prefix: str) -> TokenConstraint:
        mask = self.valid_next(prefix)
        return TokenConstraint(lambda toks: mask[toks], self.counter)


class DfaPattern:
    """A deterministic automaton over the symbol alphabet.

    A prefix is valid exactly when the state it drives the automaton to is
    live, i.e. some accepting state is still reachable. Missing
    transitions go to an implicit dead state.
    """

    def __init__(self, states, alphabet, transitions, accepting, start=None):
        self.states = list(states)
        self.alphabet = tuple(alphabet)
        self._sym_id = {ch: i for i, ch in enumerate(self.alphabet)}
        # transitions: state -> symbol -> state
        self.transitions = {s: dict(t) for s, t in transitions.items()}
        self.accepting = set(accepting)
        self.start = self.states[0] if start is None else start
        self.counter = EvalCounter()
        self.live = self._live_states()

    @classmethod
    def from_json(cls, source) -> "DfaPattern":
        """Build from a JSON file path, JSON text, or an already-parsed dict."""
        if isinstance(source, dict):
            doc = source
        else:
            source = str(source)
            if source.lstrip().startswith("{"):
                doc = json.loads(source)
            else:
                with open(source, encoding="utf-8") as fh:
                    doc = json.load(fh)
        return cls(
            states=doc["states"],
            alphabet=doc["alphabet"],
            transitions=doc["transitions"],
            accepting=doc["accepting"],
            start=doc.get("start"),
        )

    @property
    def eos(self) -> int:
        return len(self.alphabet)

    def _live_states(self) -> set:
        # Reverse reachability from the accepting set.
        live = set(self.accepting)
        changed = True
        while changed:
            changed = False
            for s, trans in self.transitions.items():
                if s not in live and any(t in live for t in trans.values()):
                    live.add(s)
                    changed = True
        return live

    def state_after(self, prefix: str):
        """Drive the automaton along ``prefix``; None once it dies."""
        state = self.start
        for ch in prefix:
            state = self.transitions.get(state, {}).get(ch)
            if state is None or state not in self.live:
                return None
        return state

    def accepts(self, s: str) -> bool:
        state = self.state_after(s)
        return state is not None and state in self.accepting

    def is_valid_prefix(self, prefix: str) -> bool:
        return self.state_after(prefix) is not None

    def valid_next(self, prefix: str) -> np.ndarray:
        mask = np.zeros(len(self.alphabet) + 1, dtype=bool)
        state = self.state_after(prefix)
        if state is None:
            return mask
        trans = self.transitions.get(state, {})
        for ch, nxt in trans.items():
            if nxt in self.live:
                mask[self._sym_id[ch]] = True
        mask[self.eos] = state in self.accepting
        return mask

    def constraint_at(self, prefix: str) -> TokenConstraint:
        mask = self.valid_next(prefix)
        return TokenConstraint(lambda toks: mask[toks], self.counter)
