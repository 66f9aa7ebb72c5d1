import ast
import copy
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from triltl import (
    And,
    Atom,
    LassoFormatError,
    LassoWord,
    Next,
    TRUE,
    Truth,
    UnknownAtomError,
    Until,
    build_automaton,
    degeneralize,
    eval_lasso,
    lasso,
    nba_accepts_lasso,
    negated,
    parse_core,
)
from triltl import semantics
from triltl.letters import parse_letter_sequence
from helpers import (
    all_letters,
    enumerate_lassos,
    eval_lasso_two_valued,
    reference_eval_lasso,
    shift,
)

A, B = Atom("a"), Atom("b")
AB = ("a", "b")

POS_A = frozenset({("a", True)})
NEG_A = frozenset({("a", False)})
EMPTY = frozenset()

core_formulas = st.recursive(
    st.one_of(st.sampled_from([A, B]), st.just(TRUE)),
    lambda children: st.one_of(
        st.builds(negated, children),
        st.builds(Next, children),
        st.builds(And, children, children),
        st.builds(Until, children, children),
    ),
    max_leaves=6,
)

letters_ab = st.sampled_from(all_letters(AB))
lassos_ab = st.builds(
    lasso,
    st.lists(letters_ab, max_size=3),
    st.lists(letters_ab, min_size=1, max_size=3),
    st.just(AB),
)

#: Longer than `lassos_ab`, so the until pass wraps around loops with
#: witnesses and breaks far from the loop start.
long_lassos_ab = st.builds(
    lasso,
    st.lists(letters_ab, max_size=8),
    st.lists(letters_ab, min_size=1, max_size=8),
    st.just(AB),
)

total_letters_ab = st.sampled_from([l for l in all_letters(AB) if len(l) == 2])
total_lassos_ab = st.builds(
    lasso,
    st.lists(total_letters_ab, max_size=3),
    st.lists(total_letters_ab, min_size=1, max_size=3),
    st.just(AB),
)


class TestLassoWord:
    def test_empty_loop_rejected(self):
        with pytest.raises(LassoFormatError):
            lasso([], [], ["a"])

    def test_letters_must_stay_inside_the_alphabet(self):
        with pytest.raises(LassoFormatError):
            lasso([], [frozenset({("c", True)})], ["a", "b"])

    @pytest.mark.parametrize("name", ["true", "false", "B"])
    def test_alphabet_name_that_is_no_atom_name_rejected(self, name):
        with pytest.raises(LassoFormatError, match=f"alphabet name {name!r} is not an atom name"):
            lasso([], [frozenset({(name, False)})], [name])

    def test_constructor_validates(self):
        with pytest.raises(LassoFormatError, match="loop must not be empty"):
            LassoWord((POS_A,), (), ("a",))
        with pytest.raises(LassoFormatError, match="outside the alphabet"):
            LassoWord((), (frozenset({("b", True)}),), ("a",))

    def test_parse_lasso_empty_loop_rejected(self):
        # Lasso text with a stem but a blank loop parses to no loop letter,
        # which the lasso constructor refuses.
        stem = parse_letter_sequence("a")
        loop = parse_letter_sequence("")
        assert loop == []
        with pytest.raises(LassoFormatError, match="loop must not be empty"):
            lasso(stem, loop, ["a"])

    def test_value_semantics(self):
        w = LassoWord((EMPTY,), (POS_A, NEG_A), ("a",))
        assert repr(w) == (
            "LassoWord(stem=(frozenset(),), loop=(frozenset({('a', True)}), "
            "frozenset({('a', False)})), alphabet=('a',))"
        )
        assert w == lasso([EMPTY], [POS_A, NEG_A], ["a"])
        assert w != lasso([], [POS_A, NEG_A], ["a"])
        assert hash(w) == hash((w.stem, w.loop, w.alphabet))
        for name in ("stem", "loop", "alphabet", "other"):
            with pytest.raises(AttributeError):
                setattr(w, name, ())

    @given(lassos_ab)
    def test_pickle_and_deepcopy_round_trip(self, w):
        for twin in (pickle.loads(pickle.dumps(w)), copy.deepcopy(w)):
            assert twin == w
            assert hash(twin) == hash(w)

    def test_position_arithmetic(self):
        w = lasso([EMPTY], [POS_A, NEG_A], ["a"])
        assert w.length == 3
        assert [w.successor(i) for i in range(3)] == [1, 2, 1]


class TestEvalLasso:
    def test_next_true(self):
        psi = parse_core("X a")
        assert eval_lasso(psi, lasso([], [POS_A], ["a"])) is Truth.TRUE

    def test_next_unknown(self):
        psi = parse_core("X a")
        assert eval_lasso(psi, lasso([], [EMPTY], ["a"])) is Truth.UNKNOWN

    def test_until_unknown_when_target_never_settles(self):
        psi = parse_core("a U b")
        w = lasso([], [frozenset({("a", True)})], AB)
        assert eval_lasso(psi, w) is Truth.UNKNOWN

    def test_until_true_with_later_witness(self):
        psi = parse_core("a U b")
        w = lasso([POS_A], [frozenset({("b", True)})], AB)
        assert eval_lasso(psi, w) is Truth.TRUE

    def test_until_false_when_right_always_false(self):
        psi = parse_core("a U b")
        w = lasso([], [frozenset({("a", True), ("b", False)})], AB)
        assert eval_lasso(psi, w) is Truth.FALSE

    def test_until_false_inclusive_break_position(self):
        # The falsifying left operand must come with the right operand
        # already false at that same position.
        psi = parse_core("a U b")
        both_false = frozenset({("a", False), ("b", False)})
        b_true = frozenset({("a", False), ("b", True)})
        assert eval_lasso(psi, lasso([both_false], [b_true], AB)) is Truth.FALSE
        # A true b at the break position rescues the until.
        a_false_b_true = frozenset({("a", False), ("b", True)})
        assert eval_lasso(psi, lasso([a_false_b_true], [b_true], AB)) is Truth.TRUE

    def test_globally_on_unknown_atom(self):
        psi = parse_core("G a")
        assert eval_lasso(psi, lasso([], [EMPTY], ["a"])) is Truth.UNKNOWN

    def test_unknown_atom_rejected(self):
        with pytest.raises(UnknownAtomError):
            eval_lasso(parse_core("X c"), lasso([], [EMPTY], ["a"]))

    def test_constant_true(self):
        assert eval_lasso(TRUE, lasso([], [EMPTY], [])) is Truth.TRUE

    @given(core_formulas, lassos_ab)
    @settings(max_examples=200, deadline=None)
    def test_negation_duality(self, psi, w):
        assert eval_lasso(negated(psi), w) is eval_lasso(psi, w).negate()

    @given(core_formulas, lassos_ab)
    @settings(max_examples=200, deadline=None)
    def test_suffix_shift(self, psi, w):
        assert eval_lasso(Next(psi), w) is eval_lasso(psi, shift(w))

    @given(core_formulas, lassos_ab)
    @settings(max_examples=200, deadline=None)
    def test_loop_unrolling_is_invisible(self, psi, w):
        doubled = lasso(w.stem, w.loop + w.loop, w.alphabet)
        assert eval_lasso(psi, w) is eval_lasso(psi, doubled)

    @given(core_formulas, long_lassos_ab)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_definitions_on_long_lassos(self, psi, w):
        # X^i psi reads psi at position i, so every position is compared.
        for _ in range(w.length):
            assert eval_lasso(psi, w) is reference_eval_lasso(psi, w)
            psi = Next(psi)


class TestIndependence:
    def test_imports_no_automaton_code(self):
        # The evaluator is the oracle for the automaton, so it must not
        # share code with the construction or the product search.
        tree = ast.parse(Path(semantics.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                parts = (["triltl"] if node.level else []) + [node.module or ""]
                base = ".".join(filter(None, parts))
                imported.add(base)
                imported.update(f"{base}.{alias.name}" for alias in node.names)
        forbidden = {"triltl.gnba", "triltl.search", "triltl.modelcheck"}
        assert not {
            name
            for name in imported
            for module in forbidden
            if name == module or name.startswith(module + ".")
        }


class TestTwoValued:
    def test_globally_true(self):
        psi = parse_core("G a")
        assert eval_lasso_two_valued(psi, lasso([], [POS_A], ["a"]))

    def test_next_false(self):
        psi = parse_core("X a")
        assert not eval_lasso_two_valued(psi, lasso([POS_A], [NEG_A], ["a"]))

    @given(core_formulas, total_lassos_ab)
    @settings(max_examples=200, deadline=None)
    def test_three_valued_collapses_on_total_words(self, psi, w):
        value = eval_lasso(psi, w)
        assert value is not Truth.UNKNOWN
        assert (value is Truth.TRUE) == eval_lasso_two_valued(psi, w)

    def test_exhaustive_agreement_at_small_sizes(self):
        formulas = [parse_core(t) for t in ("a U b", "G a", "X (a U b)", "!(a U b)")]
        total = [l for l in all_letters(AB) if len(l) == 2]
        from itertools import product

        for psi in formulas:
            for stem_len in range(2):
                for stem in product(total, repeat=stem_len):
                    for loop in product(total, repeat=2):
                        w = lasso(stem, loop, AB)
                        assert (eval_lasso(psi, w) is Truth.TRUE) == (
                            eval_lasso_two_valued(psi, w)
                        )


class TestNbaMembership:
    def test_unknown_automaton_accepts_unknown_word(self):
        n = degeneralize(build_automaton(parse_core("X a"), ["a"], Truth.UNKNOWN))
        assert nba_accepts_lasso(n, lasso([], [EMPTY], ["a"]))

    def test_true_automaton_rejects_unknown_word(self):
        n = degeneralize(build_automaton(parse_core("X a"), ["a"], Truth.TRUE))
        assert not nba_accepts_lasso(n, lasso([], [EMPTY], ["a"]))

    def test_empty_initial_set_rejects_everything(self):
        n = degeneralize(build_automaton(TRUE, [], Truth.FALSE))
        assert n.initial == frozenset()
        assert not nba_accepts_lasso(n, lasso([], [EMPTY], []))

    def test_accepting_state_must_recur(self):
        # b U a demands an eventual a; the all-unknown word must be rejected
        # by the true-automaton but accepted by the unknown-automaton.
        psi = parse_core("b U a")
        w = lasso([], [EMPTY], AB)
        top = degeneralize(build_automaton(psi, AB, Truth.TRUE))
        unk = degeneralize(build_automaton(psi, AB, Truth.UNKNOWN))
        assert not nba_accepts_lasso(top, w)
        assert nba_accepts_lasso(unk, w)


class TestEnumerateLassos:
    def test_counts_single_atom(self):
        assert len(list(enumerate_lassos(["a"], 0, 1))) == 3
        assert len(list(enumerate_lassos(["a"], 1, 1))) == 12

    def test_letter_count_two_atoms(self):
        assert len(all_letters(AB)) == 9
        assert len(list(enumerate_lassos(AB, 0, 1))) == 9

    def test_first_lassos_in_order(self):
        first = list(enumerate_lassos(["a"], 0, 1))
        assert [w.loop for w in first] == [(EMPTY,), (POS_A,), (NEG_A,)]

    def test_no_duplicates(self):
        seen = list(enumerate_lassos(["a"], 2, 2))
        assert len({(w.stem, w.loop) for w in seen}) == len(seen)

    def test_loop_bound_validated(self):
        with pytest.raises(ValueError):
            list(enumerate_lassos(["a"], 1, 0))
