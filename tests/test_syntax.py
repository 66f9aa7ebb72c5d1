import copy
import pickle
import sys
import threading
import time

import pytest
from hypothesis import given, strategies as st

from triltl import (
    And,
    Atom,
    FalseConst,
    Finally,
    FormulaSyntaxError,
    Globally,
    Implies,
    MAX_NESTING,
    Next,
    Not,
    Or,
    Release,
    TRUE,
    TrueConst,
    Until,
    atoms_of,
    closure_of,
    desugar,
    format_formula,
    formula_size,
    negated,
    parse,
    parse_core,
)
from helpers import CORPUS
from triltl import syntax
from triltl.syntax import subformulas as _subformulas_bottom_up
from triltl.syntax import check_core
from triltl.semantics import eval_lasso, eval_lasso_two_valued, lasso
from triltl.truth import Truth

A, B, P, Q = Atom("a"), Atom("b"), Atom("p"), Atom("q")


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


class TestParse:
    def test_single_next(self):
        assert parse("X a") == Next(A)

    def test_until_binds_tighter_than_and(self):
        assert parse("a U b & c") == And(Until(A, B), Atom("c"))

    def test_nested_parens_and_implies(self):
        assert parse("G (p -> F q)") == Globally(Implies(P, Finally(Q)))

    def test_until_right_associative(self):
        assert parse("a U b U c") == Until(A, Until(B, Atom("c")))

    def test_implies_right_associative(self):
        assert parse("a -> b -> c") == Implies(A, Implies(B, Atom("c")))

    def test_and_left_associative(self):
        assert parse("a & b & c") == And(And(A, B), Atom("c"))

    def test_or_looser_than_and(self):
        assert parse("a | b & c") == Or(A, And(B, Atom("c")))

    def test_unary_chain(self):
        assert parse("!X a") == Not(Next(A))
        assert parse("X !a") == Next(Not(A))

    def test_identifier_with_digits_and_underscore(self):
        assert parse("req_1") == Atom("req_1")

    def test_empty_input(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("   ")
        assert err.value.position == 0

    def test_unknown_token_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("a & @b")
        assert err.value.position == 4

    def test_uppercase_junk_is_a_lex_error(self):
        with pytest.raises(FormulaSyntaxError):
            parse("a & Y")

    def test_dangling_operator(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("a U")
        assert err.value.position == 3

    def test_trailing_junk(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("a b")
        assert err.value.position == 2

    def test_unclosed_paren(self):
        with pytest.raises(FormulaSyntaxError):
            parse("(a U b")

    def test_lone_arrow_fragment(self):
        with pytest.raises(FormulaSyntaxError):
            parse("a - b")


class TestNestingLimit:
    """Each operator and each pair of parentheses is one level; the
    limit holds whether the depth comes from recursion in the parser
    (prefix operators, parentheses, right-associative operators) or
    from a left-associative chain."""

    SHAPES = {
        "next": lambda d: "X " * d + "a",
        "parens": lambda d: "(" * d + "a" + ")" * d,
        "until": lambda d: " U ".join(["a"] * (d + 1)),
        "and": lambda d: " & ".join(["a"] * (d + 1)),
        "not-or": lambda d: "!" + " | ".join(["a"] * d),
        "globally-parens": lambda d: "G (" * (d // 2) + "a" + ")" * (d // 2),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_limit_is_exact(self, shape):
        make = self.SHAPES[shape]
        parse(make(MAX_NESTING))
        with pytest.raises(FormulaSyntaxError, match="nests deeper"):
            parse(make(MAX_NESTING + 2))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_recursive_functions_fit_at_the_limit(self, shape):
        f = parse(self.SHAPES[shape](MAX_NESTING))
        core = desugar(f)
        atoms_of(f)
        formula_size(f)
        check_core(core)
        format_formula(core)
        closure_of(core)
        _subformulas_bottom_up(core)

    def test_error_points_at_the_first_level_too_many(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("X " * 1200 + "a")
        assert err.value.position == 2 * MAX_NESTING


class TestParseErrors:
    """Each kind of syntax error, with its exact message and position."""

    SHAPES = TestNestingLimit.SHAPES
    NESTS = f"formula nests deeper than {MAX_NESTING} levels"

    @pytest.mark.parametrize(
        "text,message,position",
        [
            ("   ", "empty input", 0),
            ("a & @b", "unknown token '@'", 4),
            ("a - b", "unknown token '-'", 2),
            ("a U", "expected a formula, found end of input", 3),
            ("a & & b", "expected a formula, found '&'", 4),
            (")", "expected a formula, found ')'", 0),
            ("(a U b", "expected ')', found end of input", 6),
            ("(a b)", "expected ')', found 'b'", 3),
            ("a b", "expected end of input, found 'b'", 2),
            ("a X b", "expected end of input, found 'X'", 2),
            ("a )", "expected end of input, found ')'", 2),
            # The first level too many: prefix operators, parentheses and
            # right-associative operators fail as they open; left chains
            # when the operator that makes them too high is reduced.
            (SHAPES["next"](MAX_NESTING + 1), NESTS, 2 * MAX_NESTING),
            (SHAPES["parens"](MAX_NESTING + 1), NESTS, MAX_NESTING),
            (SHAPES["until"](MAX_NESTING + 1), NESTS, 4 * MAX_NESTING + 2),
            (SHAPES["and"](MAX_NESTING + 1), NESTS, 4 * MAX_NESTING + 2),
            (SHAPES["not-or"](MAX_NESTING + 1), NESTS, 4 * MAX_NESTING - 1),
            # Levels come in pairs here, so MAX_NESTING + 1 still parses.
            (SHAPES["globally-parens"](MAX_NESTING + 2), NESTS, 3 * (MAX_NESTING // 2)),
        ],
        ids=lambda v: v[:20] if isinstance(v, str) else None,
    )
    def test_message_and_position(self, text, message, position):
        with pytest.raises(FormulaSyntaxError) as err:
            parse(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position


#: One step of each deep shape, applied to the formula built so far.
DEEP_SHAPES = {
    "next": lambda f, i: Next(f),
    "left-and": lambda f, i: And(f, B),
    "right-until": lambda f, i: Until(B, f),
    "surface-mix": lambda f, i: Or(f, B) if i % 3 == 0 else Globally(f) if i % 3 == 1 else Not(f),
}


class TestDeepFormulas:
    """Formulas built through the constructors may nest far deeper than
    the parser allows and than Python's recursion limit."""

    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_walks_do_not_recurse(self, shape):
        levels = 3 * sys.getrecursionlimit()
        f = A
        for i in range(levels):
            f = DEEP_SHAPES[shape](f, i)
        core = desugar(f)
        assert atoms_of(f) == ({"a"} if shape == "next" else {"a", "b"})
        check_core(core)
        text = format_formula(core)
        closure = closure_of(core)
        base = core.child if isinstance(core, Not) else core
        i = closure.index[base]
        assert text == (closure.base_texts[i] if base is core else closure.negated_texts[i])
        for letter in ({("a", True), ("b", False)}, {("a", False), ("b", True)}):
            word = lasso([], [frozenset(letter)], ["a", "b"])
            expected = Truth.TRUE if eval_lasso_two_valued(core, word) else Truth.FALSE
            assert eval_lasso(core, word) is expected
        for g in (f, core):
            assert pickle.loads(pickle.dumps(g)) is g
            assert copy.deepcopy(g) is g

    def test_repr_and_error_messages_do_not_recurse(self):
        levels = 3 * sys.getrecursionlimit()
        f = A
        for _ in range(levels):
            f = Next(f)
        assert repr(f) == "Next(child=" * levels + "Atom(name='a')" + ")" * levels
        # Or is not a core connective: each message formats the node.
        word = lasso([], [frozenset({("a", True), ("b", False)})], ["a", "b"])
        for call in (check_core, closure_of, lambda g: eval_lasso(g, word)):
            with pytest.raises(ValueError, match="not a core"):
                call(Or(f, B))

    def test_error_messages_are_bounded(self):
        # 40 doublings: 41 distinct nodes, but a repr of about 2^45 characters.
        f = A
        for _ in range(40):
            f = And(f, f)
        word = lasso([], [frozenset({("a", True), ("b", False)})], ["a", "b"])
        started = time.perf_counter()
        for call in (check_core, closure_of, lambda g: eval_lasso(g, word)):
            with pytest.raises(ValueError, match="not a core") as caught:
                call(Or(f, B))
            message = str(caught.value)
            assert message.endswith("…") and len(message) < 200
            assert "Or(left=And(left=And(" in message
        assert time.perf_counter() - started < 1.0


class TestNonFormulaOperands:
    """A node whose operand is not a formula is refused with ValueError,
    which names the node."""

    @pytest.mark.parametrize("call", [check_core, desugar, atoms_of, closure_of])
    @pytest.mark.parametrize("node", [Not("a"), And(A, 3)], ids=["not-str", "and-int"])
    def test_refused_with_value_error(self, call, node):
        with pytest.raises(ValueError, match="is not a formula") as caught:
            call(node)
        assert f"of {node!r}" in str(caught.value)

    @pytest.mark.parametrize("call", [check_core, desugar, atoms_of, closure_of])
    def test_a_non_formula_is_refused(self, call):
        with pytest.raises(ValueError, match="not a formula: 'a'"):
            call("a")


class TestDesugar:
    def test_finally_is_true_until(self):
        assert parse_core("F q") == Until(TRUE, Q)

    def test_globally(self):
        assert parse_core("G p") == Not(Until(TRUE, Not(P)))

    def test_double_negation_removed(self):
        assert parse_core("!!a") == A

    def test_release(self):
        assert parse_core("a R b") == Not(Until(Not(A), Not(B)))

    def test_or_and_implies_via_de_morgan(self):
        assert parse_core("a | b") == Not(And(Not(A), Not(B)))
        assert parse_core("a -> b") == Not(And(A, Not(B)))

    def test_false_is_negated_true(self):
        assert parse_core("false") == Not(TRUE)

    def test_false_release_matches_globally(self):
        assert parse_core("false R a") == parse_core("G a")

    @given(core_formulas)
    def test_desugar_is_identity_on_core(self, f):
        assert desugar(f) == f

    @given(core_formulas)
    def test_desugared_formulas_are_canonical_core(self, f):
        check_core(f)


class TestNegate:
    def test_atom(self):
        assert negated(A) == Not(A)

    def test_negated_until_unwraps(self):
        assert negated(Not(Until(A, B))) == Until(A, B)

    def test_next(self):
        assert negated(Next(A)) == Not(Next(A))

    @given(core_formulas)
    def test_involution(self, f):
        assert negated(negated(f)) == f


class TestPrinter:
    @given(core_formulas)
    def test_parse_print_round_trip(self, f):
        assert desugar(parse(format_formula(f))) == f

    def test_parenthesization(self):
        assert format_formula(Until(Until(A, B), A)) == "(a U b) U a"
        assert format_formula(Until(A, Until(B, A))) == "a U b U a"
        assert format_formula(And(A, And(B, A))) == "a & (b & a)"
        assert format_formula(Not(Until(A, B))) == "!(a U b)"
        assert format_formula(Next(And(A, B))) == "X (a & b)"


class TestClosure:
    def test_next_a(self):
        c = closure_of(parse_core("X a"))
        assert c.bases == (A, Next(A))

    def test_single_atom(self):
        assert closure_of(A).bases == (A,)

    def test_until(self):
        c = closure_of(parse_core("a U b"))
        assert c.bases == (A, B, Until(A, B))
        assert len(c.signed_members()) == 6

    def test_negated_operands_contribute_bases(self):
        c = closure_of(parse_core("!(a U !b)"))
        assert set(c.bases) == {A, B, Until(A, Not(B))}

    @given(core_formulas)
    def test_own_base_present_and_bounded(self, f):
        c = closure_of(f)
        base = f.child if isinstance(f, Not) else f
        assert base in c.index
        assert len(c.bases) <= formula_size(f)

    @given(core_formulas)
    def test_closed_under_subformulas(self, f):
        c = closure_of(f)
        for base in c.bases:
            for child in _children(base):
                stripped = child.child if isinstance(child, Not) else child
                assert stripped in c.index

    @given(core_formulas)
    def test_operand_bases_precede_compounds(self, f):
        c = closure_of(f)
        for base in c.bases:
            for child in _children(base):
                ref_idx, _ = c.ref(child)
                assert ref_idx < c.index[base]


def _children(f):
    if isinstance(f, (Not, Next)):
        return (f.child,)
    if isinstance(f, (And, Until)):
        return (f.left, f.right)
    return ()


def test_atoms_of():
    assert atoms_of(parse_core("G (a -> F b)")) == {"a", "b"}
    assert atoms_of(TRUE) == frozenset()


def test_formula_size():
    assert formula_size(A) == 1
    assert formula_size(parse_core("a U b")) == 3
    assert formula_size(parse_core("X X a")) == 3


def test_check_core_rejects_surface_nodes():
    with pytest.raises(ValueError):
        check_core(parse("a | b"))
    with pytest.raises(ValueError):
        check_core(Not(Not(A)))


# One node of every class, with the repr text each had as a frozen dataclass.
NODES = {
    "Atom(name='a')": A,
    "TrueConst()": TRUE,
    "FalseConst()": FalseConst(),
    "Not(child=Atom(name='a'))": Not(A),
    "Next(child=Atom(name='a'))": Next(A),
    "Finally(child=Atom(name='a'))": Finally(A),
    "Globally(child=Atom(name='a'))": Globally(A),
    "And(left=Atom(name='a'), right=Atom(name='b'))": And(A, B),
    "Or(left=Atom(name='a'), right=Atom(name='b'))": Or(A, B),
    "Implies(left=Atom(name='a'), right=Atom(name='b'))": Implies(A, B),
    "Until(left=Atom(name='a'), right=Atom(name='b'))": Until(A, B),
    "Release(left=Atom(name='a'), right=Atom(name='b'))": Release(A, B),
}

surface_formulas = st.recursive(
    st.one_of(st.sampled_from([A, B, TRUE, FalseConst()])),
    lambda children: st.one_of(
        *(st.builds(kind, children) for kind in (Not, Next, Finally, Globally)),
        *(
            st.builds(kind, children, children)
            for kind in (And, Or, Implies, Until, Release)
        ),
    ),
    max_leaves=8,
)


def _fields(f):
    return tuple(getattr(f, name) for name in f.__match_args__)


def _nodes(f):
    yield f
    for child in _fields(f):
        if not isinstance(child, str):
            yield from _nodes(child)


class TestNodeClasses:
    """Formula nodes keep the contract they had as frozen dataclasses."""

    @pytest.mark.parametrize("text", NODES)
    def test_repr_text(self, text):
        assert repr(NODES[text]) == text

    def test_nested_repr_text(self):
        assert repr(And(A, Not(Next(TRUE)))) == (
            "And(left=Atom(name='a'), right=Not(child=Next(child=TrueConst())))"
        )

    @pytest.mark.parametrize(
        "kind,operands",
        [(And, (A,)), (Not, ()), (Atom, ()), (TrueConst, (A,)), (Until, (A, B, A))],
        ids=["And(A)", "Not()", "Atom()", "TrueConst(A)", "Until(A, B, A)"],
    )
    def test_wrong_operand_count_raises_and_interns_nothing(self, kind, operands):
        before = len(syntax._interned)
        with pytest.raises(TypeError):
            kind(*operands)
        assert len(syntax._interned) == before

    def test_equality_is_by_class_and_fields(self):
        assert And(A, B) == And(Atom("a"), Atom("b"))
        assert And(A, B) != And(B, A)
        assert And(A, B) != Or(A, B)
        assert Until(A, B) != Release(A, B)
        assert Not(A) != Next(A)
        assert Finally(A) != Globally(A)
        assert TRUE != FalseConst()
        assert TrueConst() == TRUE
        assert A != "a"
        distinct = list(NODES.values())
        for i, f in enumerate(distinct):
            assert [g == f for g in distinct] == [j == i for j in range(len(distinct))]

    @given(surface_formulas)
    def test_hash_is_the_hash_of_the_field_tuple(self, f):
        for node in _nodes(f):
            assert hash(node) == hash(_fields(node))

    @pytest.mark.parametrize("text", NODES)
    def test_fields_are_read_only(self, text):
        # Also for a name that is not a field, where a frozen slots
        # dataclass raised TypeError.
        f = NODES[text]
        for name in (*f.__match_args__, "other"):
            with pytest.raises(AttributeError):
                setattr(f, name, A)
            with pytest.raises(AttributeError):
                delattr(f, name)
        assert repr(f) == text

    def test_positional_match_patterns(self):
        match And(Until(A, Not(B)), Next(TRUE)):
            case And(Until(left, Not(child)), Next(TrueConst())):
                assert (left, child) == (A, B)
            case _:
                pytest.fail("positional pattern did not match")
        match Atom("q"):
            case Atom(name):
                assert name == "q"

    @given(surface_formulas)
    def test_pickle_and_deepcopy_round_trip(self, f):
        for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
            assert twin is f
            assert twin == f
            assert type(twin) is type(f)
            assert hash(twin) == hash(f)
            assert repr(twin) == repr(f)


class TestInterning:
    """Each distinct formula is one object, so equality is identity."""

    @given(surface_formulas)
    def test_rebuilding_a_node_from_its_fields_returns_it(self, f):
        for node in _nodes(f):
            assert type(node)(*_fields(node)) is node

    @pytest.mark.parametrize("text", CORPUS)
    def test_parsing_twice_gives_one_object(self, text):
        assert parse_core(text) is parse_core(text)
        assert parse(text) is parse(text)

    def test_threads_that_race_get_one_object(self):
        # Fresh atom names, so that every construction is a miss.
        names = [f"race{i}" for i in range(300)]
        built = [None] * 4

        def build(slot):
            built[slot] = [Next(Until(Atom(n), Not(Atom(n)))) for n in names]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        for nodes in built[1:]:
            assert all(f is g for f, g in zip(nodes, built[0], strict=True))

    @given(surface_formulas)
    def test_stored_size_is_the_node_count(self, f):
        for node in _nodes(f):
            assert formula_size(node) == _count(node)


def _count(f):
    """Number of nodes in the tree, counted by recursion."""
    return 1 + sum(_count(child) for child in _fields(f) if not isinstance(child, str))
