import pytest
from hypothesis import given, settings, strategies as st

from triltl import (
    ABSENT,
    NEG,
    POS,
    Atom,
    Next,
    Not,
    StateSpaceLimitError,
    closure_of,
    enumerate_elementary,
    format_formula,
    format_state,
    parse_core,
    state_members,
)
from triltl.gnba import ANY, LazyFamily, pack
from helpers import CORPUS, naive_elementary, small_formulas, vec_of

A = Atom("a")


class TestConsistency:
    """Whether a candidate is elementary, asked of the naive oracle."""

    def test_full_conjunction_is_consistent(self):
        c = closure_of(parse_core("a & b"))
        vec = vec_of(c, {"a": POS, "b": POS, "a & b": POS})
        assert vec in naive_elementary(c)

    def test_both_conjuncts_force_the_conjunction(self):
        c = closure_of(parse_core("a & b"))
        vec = vec_of(c, {"a": POS, "b": POS})
        assert vec not in naive_elementary(c)

    def test_negated_conjunction_needs_a_negated_conjunct(self):
        c = closure_of(parse_core("a & b"))
        vec = vec_of(c, {"a & b": NEG})
        assert vec not in naive_elementary(c)

    def test_negated_conjunct_forces_negated_conjunction(self):
        c = closure_of(parse_core("a & b"))
        assert vec_of(c, {"a": NEG, "a & b": NEG}) in naive_elementary(c)
        assert vec_of(c, {"a": NEG}) not in naive_elementary(c)

    def test_negated_operand_inside_conjunction(self):
        c = closure_of(parse_core("a & !b"))
        assert vec_of(c, {"a": POS, "b": NEG, "a & !b": POS}) in naive_elementary(c)
        assert vec_of(c, {"a": POS, "b": NEG}) not in naive_elementary(c)

    def test_true_base_must_be_positive(self):
        c = closure_of(parse_core("F a"))
        empty = (ABSENT,) * len(c.bases)
        assert empty not in naive_elementary(c)
        assert vec_of(c, {"true": POS}) in naive_elementary(c)


class TestLocalConsistency:
    def test_right_operand_forces_the_until(self):
        c = closure_of(parse_core("a U b"))
        assert vec_of(c, {"b": POS}) not in naive_elementary(c)
        assert vec_of(c, {"b": POS, "a U b": POS}) in naive_elementary(c)

    def test_until_without_right_needs_left(self):
        c = closure_of(parse_core("a U b"))
        assert vec_of(c, {"a U b": POS, "a": POS}) in naive_elementary(c)
        assert vec_of(c, {"a U b": POS}) not in naive_elementary(c)

    def test_negated_operands_force_negated_until(self):
        c = closure_of(parse_core("a U b"))
        assert vec_of(c, {"a": NEG, "b": NEG}) not in naive_elementary(c)
        assert vec_of(c, {"a": NEG, "b": NEG, "a U b": NEG}) in naive_elementary(c)

    def test_negated_until_needs_negated_right(self):
        c = closure_of(parse_core("a U b"))
        assert vec_of(c, {"a U b": NEG}) not in naive_elementary(c)
        assert vec_of(c, {"a U b": NEG, "b": NEG}) in naive_elementary(c)


class TestEnumeration:
    def test_next_a_lists_all_nine(self):
        c = closure_of(parse_core("X a"))
        states = enumerate_elementary(c)
        labels = {format_state(v, c) for v in states}
        assert labels == {
            "∅",
            "{a}",
            "{!a}",
            "{X a}",
            "{!X a}",
            "{a, X a}",
            "{a, !X a}",
            "{!a, X a}",
            "{!a, !X a}",
        }

    def test_lexicographic_order(self):
        c = closure_of(parse_core("X a"))
        states = enumerate_elementary(c)
        assert states == sorted(states)
        assert states[0] == (ABSENT, ABSENT)

    def test_single_atom(self):
        c = closure_of(A)
        assert enumerate_elementary(c) == [(ABSENT,), (POS,), (NEG,)]

    def test_conjunction_count_is_golden(self):
        c = closure_of(parse_core("a & b"))
        states = enumerate_elementary(c)
        assert set(states) == naive_elementary(c)
        assert len(states) == 9

    def test_until_count_is_golden(self):
        c = closure_of(parse_core("a U b"))
        states = enumerate_elementary(c)
        assert set(states) == naive_elementary(c)
        assert len(states) == 13

    def test_empty_set_is_elementary_without_constants(self):
        for text in ("a", "X a", "a U b", "a & b", "!(a U b)"):
            c = closure_of(parse_core(text))
            assert (ABSENT,) * len(c.bases) in enumerate_elementary(c)

    def test_constant_forces_membership_everywhere(self):
        c = closure_of(parse_core("F a"))
        true_idx = c.true_index
        for vec in enumerate_elementary(c):
            assert vec[true_idx] == POS

    def test_cap_exceeded(self):
        c = closure_of(parse_core("a U (b U (a & X b))"))
        with pytest.raises(StateSpaceLimitError, match="state-space limit exceeded"):
            enumerate_elementary(c, cap=26)

    def test_enumeration_is_stable(self):
        c = closure_of(parse_core("G (a -> F b)"))
        assert enumerate_elementary(c) == enumerate_elementary(c)

    @settings(max_examples=60, deadline=None)
    @given(small_formulas)
    def test_matches_naive_powerset_filter(self, f):
        c = closure_of(f)
        if len(c.bases) > 6:
            return
        states = enumerate_elementary(c)
        assert len(set(states)) == len(states)
        assert set(states) == naive_elementary(c)

    @settings(max_examples=60, deadline=None)
    @given(small_formulas, st.data())
    def test_masked_enumeration_is_the_sorted_filtered_oracle(self, f, data):
        # LazyFamily's letter pins and the eager numbering rely on this order.
        c = closure_of(f)
        if len(c.bases) > 6:
            return
        n = len(c.bases)
        allowed = data.draw(st.lists(st.integers(0, ANY), min_size=n, max_size=n))
        expected = [
            vec
            for vec in sorted(naive_elementary(c))
            if all(bits >> mark & 1 for bits, mark in zip(allowed, vec))
        ]
        family = LazyFamily(c, [None])
        assert [family.vecs[leaf] for leaf in family.walk(pack(allowed))] == expected
        assert enumerate_elementary(c) == sorted(naive_elementary(c))


def test_state_members_and_format():
    c = closure_of(parse_core("X a"))
    vec = vec_of(c, {"a": POS, "X a": NEG})
    assert state_members(vec, c) == (A, Not(Next(A)))
    assert format_state(vec, c) == "{a, !X a}"
    assert format_state((ABSENT, ABSENT), c) == "∅"


@pytest.mark.parametrize("text", CORPUS)
def test_format_state_renders_each_member(text):
    c = closure_of(parse_core(text))
    for vec in enumerate_elementary(c):
        members = state_members(vec, c)
        expected = (
            "{" + ", ".join(format_formula(g) for g in members) + "}"
            if members
            else "∅"
        )
        assert format_state(vec, c) == expected
