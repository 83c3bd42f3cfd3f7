"""Local token constraints with evaluation counting.

A constraint answers, for a fixed string prefix, which next tokens keep a
valid completion reachable. Evaluation counts are the library's runtime
currency: every sampler's cost is measured in how many (prefix, token)
predicate calls it makes, so the counter must tally exactly one unit per
queried token, never more, never fewer.

Every constraint family compiles to one table-driven automaton,
``DfaPattern``: integer states, a dead state, and a precomputed
state-by-token accept mask, so a per-prefix constraint is one walk along
the prefix plus a table row. ``TrieLanguage`` is the automaton whose
states are the nodes of a trie over a finite string set. Families are
stateless with respect to sampling: each per-prefix constraint is
re-derived from the immutable table.
Token ids follow the convention of the toy language models: symbols are
``0 .. alphabet_size - 1`` and the end-of-string token is
``alphabet_size``, an ordinary id so samplers need no special casing.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from .jsondoc import read_json

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
    return TokenConstraint(np.asarray(valid, dtype=bool).__getitem__, counter)


def blackbox_constraint(
    fn: Callable[[str, int], bool],
    prefix: str = "",
    counter: EvalCounter | None = None,
) -> TokenConstraint:
    """Wrap an arbitrary pure ``(prefix, token) -> bool`` predicate."""

    def many(tokens: np.ndarray) -> np.ndarray:
        return np.fromiter((fn(prefix, int(t)) for t in tokens), dtype=bool, count=tokens.shape[0])

    return TokenConstraint(many, counter)


class DfaPattern:
    """A deterministic automaton over the symbol alphabet, compiled to tables.

    States are the ints ``0 .. S-1`` in the order of ``states``, plus the
    dead state ``S``. Missing transitions lead to the dead state, and so
    do transitions into any state from which no accepting state is
    reachable, so a prefix is valid exactly when its state is not dead.
    ``valid`` is the read-only ``(S+1) x (alphabet_size+1)`` accept mask:
    row ``s`` allows a symbol whose transition stays live, and allows
    end-of-string when ``s`` accepts. State names are any hashable
    values; an undeclared state, start or symbol raises ValueError.
    """

    def __init__(self, states, alphabet, transitions, accepting, start=None):
        names = list(states)
        index = {name: i for i, name in enumerate(names)}

        def state_id(name):
            if name not in index:
                raise ValueError(f"undeclared state {name!r}")
            return index[name]

        self.alphabet = tuple(alphabet)
        sym_id = {ch: i for i, ch in enumerate(self.alphabet)}
        dead = len(names)
        # edges[s] maps symbol -> state; the dead state has no edges.
        edges: list[dict] = [{} for _ in range(dead + 1)]
        for name, row in dict(transitions).items():
            src = state_id(name)
            for ch, dst in dict(row).items():
                if ch not in sym_id:
                    raise ValueError(f"symbol {ch!r} not in alphabet")
                edges[src][ch] = state_id(dst)
        final = {state_id(name) for name in accepting}
        start = state_id(names[0] if start is None and names else start)

        # Live states reach an accepting state: search back from the finals.
        preds: list[list[int]] = [[] for _ in range(dead + 1)]
        for src, row in enumerate(edges):
            for dst in row.values():
                preds[dst].append(src)
        live, stack = set(final), list(final)
        while stack:
            for src in preds[stack.pop()]:
                if src not in live:
                    live.add(src)
                    stack.append(src)

        self._edges = [{ch: dst for ch, dst in row.items() if dst in live} for row in edges]
        self._start = start if start in live else dead
        self._dead = dead
        self.counter = EvalCounter()
        valid = np.zeros((dead + 1, len(self.alphabet) + 1), dtype=bool)
        for s, row in enumerate(self._edges):
            valid[s, [sym_id[ch] for ch in row]] = True
        valid[list(final), self.eos] = True
        valid.flags.writeable = False
        self.valid = valid
        self._rows = list(valid)  # one view per state: a list index is cheaper than valid[s]

    @classmethod
    def from_json(cls, source) -> "DfaPattern":
        """Build from a JSON file path, JSON text, or an already-parsed dict.

        A missing key raises ValueError, as does malformed JSON text.
        """
        doc = read_json(source)
        try:
            fields = {key: doc[key] for key in ("states", "alphabet", "transitions", "accepting")}
        except KeyError as e:
            raise ValueError(f"automaton JSON lacks the key {e.args[0]!r}") from None
        return cls(**fields, start=doc.get("start"))

    @property
    def eos(self) -> int:
        return len(self.alphabet)

    def state_after(self, prefix: str) -> int:
        """The state ``prefix`` drives the automaton to (the dead state once it dies)."""
        edges, dead, state = self._edges, self._dead, self._start
        for ch in prefix:
            state = edges[state].get(ch, dead)
        return state

    def accepts(self, s: str) -> bool:
        return bool(self.valid[self.state_after(s), self.eos])

    __contains__ = accepts

    def is_valid_prefix(self, prefix: str) -> bool:
        return self.state_after(prefix) != self._dead

    def valid_next(self, prefix: str) -> np.ndarray:
        """Read-only boolean accept mask over token ids (symbols then eos)."""
        return self._rows[self.state_after(prefix)]

    def constraint_at(self, prefix: str) -> TokenConstraint:
        return mask_constraint(self.valid_next(prefix), self.counter)


def _check_alphabet(family, alphabet) -> None:
    """Raise ValueError if ``family`` is a DfaPattern not over ``alphabet``, in order: token i is symbol i of both."""
    if isinstance(family, DfaPattern) and family.alphabet != tuple(alphabet):
        raise ValueError(f"the automaton's alphabet {family.alphabet} is not the model's {tuple(alphabet)}")


class TrieLanguage(DfaPattern):
    """A finite set of symbol strings, compiled with trie nodes as states.

    A state is a prefix of some stored string; the per-prefix constraint
    accepts a symbol iff the extended prefix still leads to a stored
    string, and accepts end-of-string iff the prefix itself is stored. An
    off-trie prefix yields an everywhere-false constraint; callers detect
    that through the Z = 0 path rather than an exception.
    """

    def __init__(self, strings: Iterable[str], alphabet: Iterable[str] | None = None):
        self.strings = frozenset(strings)
        if alphabet is None:
            alphabet = sorted({ch for s in self.strings for ch in s})
        nodes = sorted({s[:i] for s in self.strings for i in range(len(s) + 1)} | {""})
        children: dict[str, dict[str, str]] = {node: {} for node in nodes}
        for node in nodes[1:]:
            children[node[:-1]][node[-1]] = node
        super().__init__(nodes, alphabet, children, self.strings, start="")

    @classmethod
    def from_file(cls, path, alphabet: Iterable[str] | None = None) -> "TrieLanguage":
        """Load one string per line from a newline-delimited UTF-8 file."""
        with open(path, encoding="utf-8") as fh:
            strings = [line.rstrip("\n") for line in fh if line.rstrip("\n") != ""]
        return cls(strings, alphabet)

    def __len__(self) -> int:
        return len(self.strings)
