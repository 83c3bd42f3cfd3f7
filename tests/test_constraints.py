"""Local constraints: trie languages, automaton patterns, counting."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zest.constraints import (
    DfaPattern,
    TrieLanguage,
    blackbox_constraint,
    mask_constraint,
)


@pytest.fixture
def ab_lang():
    return TrieLanguage(["aa", "ba"], alphabet=("a", "b"))


def accepted_set(c, vocab):
    return set(np.flatnonzero(c.evaluate_many(np.arange(vocab))).tolist())


class TestTrieConstraint:
    def test_mid_prefix(self, ab_lang):
        c = ab_lang.constraint_at("a")
        assert accepted_set(c, 3) == {0}  # only 'a' continues toward "aa"

    def test_root(self, ab_lang):
        c = ab_lang.constraint_at("")
        assert accepted_set(c, 3) == {0, 1}

    def test_complete_string_accepts_only_eos(self, ab_lang):
        c = ab_lang.constraint_at("aa")
        assert accepted_set(c, 3) == {2}

    def test_dead_prefix_is_all_false(self, ab_lang):
        c = ab_lang.constraint_at("ab")
        assert accepted_set(c, 3) == set()

    def test_string_that_is_also_a_prefix(self):
        lang = TrieLanguage(["a", "ab"], alphabet=("a", "b"))
        c = lang.constraint_at("a")
        assert accepted_set(c, 3) == {1, 2}  # continue with 'b' or stop

    def test_membership_and_size(self, ab_lang):
        assert "aa" in ab_lang and "ab" not in ab_lang
        assert len(ab_lang) == 2

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "lang.txt"
        p.write_text("aa\nba\n", encoding="utf-8")
        lang = TrieLanguage.from_file(p, alphabet=("a", "b"))
        assert lang.strings == frozenset({"aa", "ba"})


class TestDfaConstraint:
    @pytest.fixture
    def a_star_b(self):
        # Language a*b over {a, b}.
        return DfaPattern(
            states=["s0", "s1"],
            alphabet=("a", "b"),
            transitions={"s0": {"a": "s0", "b": "s1"}, "s1": {}},
            accepting=["s1"],
        )

    def test_mid_pattern(self, a_star_b):
        c = a_star_b.constraint_at("aa")
        assert accepted_set(c, 3) == {0, 1}

    def test_after_match_only_eos(self, a_star_b):
        assert accepted_set(a_star_b.constraint_at("ab"), 3) == {2}
        assert accepted_set(a_star_b.constraint_at("b"), 3) == {2}

    def test_dead_prefix(self, a_star_b):
        assert accepted_set(a_star_b.constraint_at("ba"), 3) == set()

    def test_accepts(self, a_star_b):
        assert a_star_b.accepts("aaab") and not a_star_b.accepts("aba")

    def test_dead_states_not_live(self):
        # A trap state: reachable but no path to acceptance.
        dfa = DfaPattern(
            states=["s0", "ok", "trap"],
            alphabet=("a", "b"),
            transitions={"s0": {"a": "ok", "b": "trap"}, "ok": {}, "trap": {"a": "trap"}},
            accepting=["ok"],
        )
        assert accepted_set(dfa.constraint_at(""), 3) == {0}

    def test_from_json(self, tmp_path):
        doc = {
            "states": ["s0", "s1"],
            "alphabet": ["a", "b"],
            "transitions": {"s0": {"a": "s0", "b": "s1"}, "s1": {}},
            "accepting": ["s1"],
        }
        path = tmp_path / "dfa.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        dfa = DfaPattern.from_json(path)
        assert dfa.accepts("ab")
        inline = DfaPattern.from_json(json.dumps(doc))
        assert inline.accepts("b")

    @pytest.mark.parametrize(
        "change",
        [
            {"transitions": {"s0": {"a": "s9"}}},
            {"transitions": {"s9": {}}},
            {"transitions": {"s0": {"z": "s1"}}},
            {"accepting": ["s9"]},
            {"start": "s9"},
            {"states": [], "accepting": []},
        ],
        ids=["target", "source", "symbol", "accepting", "start", "no-states"],
    )
    def test_undeclared_names_raise(self, change):
        doc = {"states": ["s0", "s1"], "alphabet": ["a", "b"], "transitions": {}, "accepting": ["s1"]}
        with pytest.raises(ValueError):
            DfaPattern(**{**doc, **change})

    def test_from_json_missing_key_raises(self):
        with pytest.raises(ValueError, match="transitions"):
            DfaPattern.from_json('{"states": ["q0"], "alphabet": ["a"], "accepting": []}')

    def test_mask_table_is_read_only(self, a_star_b):
        with pytest.raises(ValueError):
            a_star_b.valid_next("a")[0] = False


class TestBlackbox:
    def test_always_true_counts(self):
        c = blackbox_constraint(lambda prefix, t: True)
        assert c.evaluate_many(np.arange(5)).all()
        assert c.eval_count == 5

    def test_even_ids(self):
        c = blackbox_constraint(lambda prefix, t: t % 2 == 0)
        assert accepted_set(c, 6) == {0, 2, 4}

    def test_prefix_sensitive_gate(self):
        fn = lambda prefix, t: (len(prefix) + t) % 2 == 0
        even = blackbox_constraint(fn, prefix="xx")
        odd = blackbox_constraint(fn, prefix="x")
        assert accepted_set(even, 4) == {0, 2}
        assert accepted_set(odd, 4) == {1, 3}


class TestCounting:
    def test_evaluate_many_bulk_count(self):
        c = mask_constraint(np.array([True, False, True]))
        out = c.evaluate_many(np.array([0, 1, 2, 0]))
        assert out.tolist() == [True, False, True, True]
        assert c.eval_count == 4

    def test_family_counter_shared_across_prefixes(self, ab_lang):
        c0 = ab_lang.constraint_at("")
        c1 = ab_lang.constraint_at("a")
        c0.evaluate_many(np.array([0, 1]))
        c1.evaluate_many(np.array([0]))
        assert ab_lang.counter.count == 3
        assert c0.eval_count == 3  # same underlying tally


def _completions(lang, prefix):
    return [s for s in lang.strings if s.startswith(prefix)]


@st.composite
def small_language(draw):
    alphabet = ("a", "b", "c")
    strings = draw(st.sets(st.text(alphabet=alphabet, max_size=5), min_size=1, max_size=12))
    return TrieLanguage(strings, alphabet=alphabet)


class TestPrefixOracleExactness:
    """Trie/DFA constraints never cut off a reachable completion."""

    @given(small_language())
    @settings(max_examples=80)
    def test_acceptance_iff_completion_exists(self, lang):
        prefixes = {s[:i] for s in lang.strings for i in range(len(s) + 1)}
        for prefix in prefixes:
            c = lang.constraint_at(prefix)
            mask = c.evaluate_many(np.arange(len(lang.alphabet) + 1, dtype=np.int64))
            for sym_id, sym in enumerate(lang.alphabet):
                assert mask[sym_id] == bool(_completions(lang, prefix + sym))
            assert mask[lang.eos] == (prefix in lang)

    @given(small_language())
    @settings(max_examples=40)
    def test_dead_prefixes_reject_everything(self, lang):
        dead = "cccccc"
        if any(s.startswith(dead) for s in lang.strings):
            return
        mask = lang.constraint_at(dead).evaluate_many(np.arange(4, dtype=np.int64))
        assert not mask.any()


SYMBOLS = ("a", "b", "c")
PREFIXES = ["".join(p) for k in range(5) for p in itertools.product(SYMBOLS, repeat=k)]


@st.composite
def small_dfa(draw):
    """A random automaton doc: up to 5 states named by mixed JSON values."""
    names = draw(st.lists(st.one_of(st.text("pqr", min_size=1, max_size=2), st.integers(0, 9)),
                          min_size=1, max_size=5, unique=True))
    transitions = {}
    for name in names:
        row = draw(st.dictionaries(st.sampled_from(SYMBOLS), st.sampled_from(names), max_size=3))
        if row or draw(st.booleans()):
            transitions[name] = row
    accepting = draw(st.lists(st.sampled_from(names), unique=True, max_size=len(names)))
    start = draw(st.one_of(st.none(), st.sampled_from(names)))
    return {"states": names, "alphabet": SYMBOLS, "transitions": transitions,
            "accepting": accepting, "start": start}


def _ref_walk(doc, prefix):
    state = doc["states"][0] if doc["start"] is None else doc["start"]
    for ch in prefix:
        state = doc["transitions"].get(state, {}).get(ch)
        if state is None:
            return None
    return state


def _ref_completable(doc, state):
    # Breadth-first search: is some accepting state reachable from ``state``?
    seen, frontier = {state}, [state]
    while frontier:
        if any(s in doc["accepting"] for s in frontier):
            return True
        frontier = [t for s in frontier for t in doc["transitions"].get(s, {}).values() if t not in seen]
        seen.update(frontier)
    return False


class TestCompiledAutomaton:
    """The compiled tables agree with the automaton's definition."""

    @given(small_dfa())
    @settings(max_examples=150)
    def test_matches_definition(self, doc):
        dfa = DfaPattern(**doc)
        for prefix in PREFIXES:
            state = _ref_walk(doc, prefix)
            expected = np.zeros(len(SYMBOLS) + 1, dtype=bool)
            if state is not None:
                for i, ch in enumerate(SYMBOLS):
                    nxt = doc["transitions"].get(state, {}).get(ch)
                    expected[i] = nxt is not None and _ref_completable(doc, nxt)
                expected[-1] = state in doc["accepting"]
            assert dfa.valid_next(prefix).tolist() == expected.tolist(), prefix
            assert dfa.accepts(prefix) == (prefix in dfa) == bool(expected[-1])
            live = state is not None and _ref_completable(doc, state)
            assert dfa.is_valid_prefix(prefix) == live

    def test_trie_matches_hand_written_automaton(self):
        strings = ["b", "ab", "abc", "cb"]
        # Minimal automaton for the same language, plus a trap state and an
        # unreachable state, neither of which may show in any mask.
        dfa = DfaPattern(
            states=["q0", "q1", "q2", "q3", "fin", "trap", "orphan"],
            alphabet=SYMBOLS,
            transitions={
                "q0": {"a": "q1", "b": "fin", "c": "q3"},
                "q1": {"a": "trap", "b": "q2"},
                "q2": {"c": "fin"},
                "q3": {"b": "fin"},
                "trap": {"a": "trap", "b": "trap"},
                "orphan": {"a": "q0"},
            },
            accepting=["q2", "fin"],
        )
        lang = TrieLanguage(strings, alphabet=SYMBOLS)
        for prefix in PREFIXES:
            assert lang.valid_next(prefix).tolist() == dfa.valid_next(prefix).tolist(), prefix
            assert (prefix in lang) == (prefix in dfa) == (prefix in strings)
            assert lang.is_valid_prefix(prefix) == dfa.is_valid_prefix(prefix)
