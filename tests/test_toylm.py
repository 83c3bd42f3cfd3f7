"""Toy autoregressive models: exact conditionals and finite support."""

import math

import numpy as np
import pytest

from enumeration import support
from zest.errors import PrefixTooLong
from zest.toylm import ToyLM, builtin_model, example_a1, random_lm


class TestExampleModel:
    def test_root_conditional(self):
        lm = example_a1()
        np.testing.assert_allclose(lm.next_dist("").probs, [0.9, 0.1, 0.0])

    def test_mid_conditional(self):
        lm = example_a1()
        np.testing.assert_allclose(lm.next_dist("a").probs, [0.01, 0.99, 0.0])

    def test_length_boundary_forces_eos(self):
        lm = example_a1()
        np.testing.assert_allclose(lm.next_dist("ab").probs, [0.0, 0.0, 1.0])

    def test_beyond_boundary_raises(self):
        with pytest.raises(PrefixTooLong):
            example_a1().next_dist("aba")

    def test_string_probs(self):
        lm = example_a1()
        assert lm.string_prob("ab") == pytest.approx(0.891)
        assert lm.string_prob("aa") == pytest.approx(0.009)
        assert lm.string_prob("ba") == pytest.approx(0.099)
        assert lm.string_prob("bb") == pytest.approx(0.001)

    def test_builtin_lookup(self):
        assert builtin_model("example-a1").alphabet == ("a", "b")
        with pytest.raises(KeyError):
            builtin_model("nope")


class TestDegenerateModels:
    def test_point_mass_chain_gives_unit_probability(self):
        lm = ToyLM(
            alphabet=("a",),
            order=1,
            max_len=3,
            tables={"": np.array([1.0, 0.0]), "a": np.array([1.0, 0.0])},
        )
        assert lm.string_prob("aaa") == 1.0  # forced eos supplies the final factor

    def test_dead_branch_has_no_support(self):
        lm = ToyLM(
            alphabet=("a", "b"),
            order=1,
            max_len=2,
            tables={
                "": np.array([1.0, 0.0, 0.0]),
                "a": np.array([0.5, 0.0, 0.5]),
                "b": np.array([0.5, 0.5, 0.0]),
            },
        )
        # No string in the support passes through a zero-probability step.
        assert support(lm) == {"a": 0.5, "aa": 0.5}
        assert lm.string_prob("b") == 0.0
        assert lm.string_prob("ab") == 0.0


class TestRandomLM:
    def test_deterministic_in_seed(self):
        a = random_lm(3, alphabet_size=3, k=1, max_len=4)
        b = random_lm(3, alphabet_size=3, k=1, max_len=4)
        for ctx in a.tables:
            np.testing.assert_array_equal(a.tables[ctx], b.tables[ctx])

    def test_conditionals_normalized(self):
        lm = random_lm(5, alphabet_size=4, k=2, max_len=5)
        for row in lm.tables.values():
            assert abs(row.sum() - 1.0) <= 1e-9

    def test_support_is_finite_and_normalized(self):
        lm = random_lm(8, alphabet_size=3, k=1, max_len=4)
        probs = support(lm)
        assert len(probs) <= sum(3**t for t in range(5))
        assert math.fsum(lm.string_prob(s) for s in probs) == pytest.approx(1.0, abs=1e-9)
        for s, p in probs.items():
            assert lm.string_prob(s) == pytest.approx(p, abs=1e-12)


class TestJsonFormat:
    def test_round_trip(self, tmp_path):
        lm = random_lm(1, alphabet_size=2, k=1, max_len=3)
        path = tmp_path / "model.json"
        path.write_text(lm.to_json(), encoding="utf-8")
        back = ToyLM.from_json(path)
        assert back.alphabet == lm.alphabet
        assert back.order == lm.order and back.max_len == lm.max_len
        for ctx, row in lm.tables.items():
            np.testing.assert_allclose(back.tables[ctx], row)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_rejects_a_nan_or_inf_row_naming_its_context(self, bad):
        tables = f'{{"": [0.5, 0.5, 0.0], "b": [{bad}, 0.5, 0.5]}}'
        text = f'{{"alphabet": ["a", "b"], "k": 1, "max_len": 2, "tables": {tables}}}'
        with pytest.raises(ValueError, match="table row for context 'b'"):
            ToyLM.from_json(text)

    def test_rejects_malformed_rows(self):
        with pytest.raises(ValueError):
            ToyLM(alphabet=("a",), order=1, max_len=2, tables={"": np.array([0.5, 0.4])})

    @pytest.mark.parametrize("order, max_len", [(-1, 2), (0, -1)])
    def test_rejects_negative_order_or_length(self, order, max_len):
        with pytest.raises(ValueError, match=">= 0"):
            ToyLM(alphabet=("a",), order=order, max_len=max_len, tables={"": np.array([0.5, 0.5])})

    def test_missing_context_row_names_the_context(self):
        lm = ToyLM(alphabet=("a", "b"), order=1, max_len=3, tables={"": np.array([0.5, 0.4, 0.1])})
        assert lm.next_dist("").probs[0] == 0.5
        with pytest.raises(ValueError, match="'b'"):
            lm.next_dist("ab")
