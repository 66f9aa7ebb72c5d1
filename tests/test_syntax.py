import copy
import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from triltl import (
    And,
    Atom,
    FormulaSyntaxError,
    MAX_NESTING,
    Next,
    Not,
    TRUE,
    TrueConst,
    Until,
    atoms_of,
    closure_of,
    format_formula,
    formula_size,
    negated,
    parse_core,
)
from helpers import CORPUS, depth_by_walk, eval_lasso_two_valued
from triltl import syntax
from triltl.syntax import subformulas as _subformulas_bottom_up
from triltl.syntax import check_core
from triltl.semantics import eval_lasso, lasso
from triltl.truth import Truth

A, B, C, P, Q = Atom("a"), Atom("b"), Atom("c"), Atom("p"), Atom("q")


class Or(syntax._Binary):
    """A node of no core connective, for the messages that refuse one."""

    __slots__ = ()


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

#: The README's rules: the core formula of each operator of formula
#: text, built from the core formulas of its operands.
RULES = {
    "!": negated,
    "X": Next,
    "F": lambda c: Until(TRUE, c),
    "G": lambda c: negated(Until(TRUE, negated(c))),
    "&": And,
    "|": lambda l, r: negated(And(negated(l), negated(r))),
    "->": lambda l, r: negated(And(l, negated(r))),
    "U": Until,
    "R": lambda l, r: negated(Until(negated(l), negated(r))),
}

#: Pairs of fully parenthesized formula text and the core formula that
#: the rules make of it.
surface_texts = st.recursive(
    st.sampled_from([("a", A), ("b", B), ("true", TRUE), ("false", Not(TRUE))]),
    lambda children: st.one_of(
        st.builds(
            lambda op, c: (f"{op}({c[0]})", RULES[op](c[1])),
            st.sampled_from("!XFG"),
            children,
        ),
        st.builds(
            lambda op, l, r: (f"({l[0]}) {op} ({r[0]})", RULES[op](l[1], r[1])),
            st.sampled_from(["&", "|", "->", "U", "R"]),
            children,
            children,
        ),
    ),
    max_leaves=8,
)


class TestParse:
    def test_single_next(self):
        assert parse_core("X a") is Next(A)

    def test_until_binds_tighter_than_and(self):
        assert parse_core("a U b & c") is And(Until(A, B), C)

    def test_nested_parens_and_implies(self):
        assert parse_core("G (p -> F q)") is Not(Until(TRUE, And(P, Not(Until(TRUE, Q)))))

    def test_until_right_associative(self):
        assert parse_core("a U b U c") is Until(A, Until(B, C))

    def test_implies_right_associative(self):
        assert parse_core("a -> b -> c") is Not(And(A, And(B, Not(C))))

    def test_and_left_associative(self):
        assert parse_core("a & b & c") is And(And(A, B), C)

    def test_or_looser_than_and(self):
        assert parse_core("a | b & c") is Not(And(Not(A), Not(And(B, C))))

    def test_unary_chain(self):
        assert parse_core("!X a") is Not(Next(A))
        assert parse_core("X !a") is Next(Not(A))

    def test_identifier_with_digits_and_underscore(self):
        assert parse_core("req_1") is Atom("req_1")

    @given(surface_texts)
    def test_each_operator_follows_its_rule(self, pair):
        text, expected = pair
        assert parse_core(text) is expected

    def test_empty_input(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_core("   ")
        assert err.value.position == 0

    def test_unknown_token_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_core("a & @b")
        assert err.value.position == 4

    def test_uppercase_junk_is_a_lex_error(self):
        with pytest.raises(FormulaSyntaxError):
            parse_core("a & Y")

    def test_dangling_operator(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_core("a U")
        assert err.value.position == 3

    def test_trailing_junk(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_core("a b")
        assert err.value.position == 2

    def test_unclosed_paren(self):
        with pytest.raises(FormulaSyntaxError):
            parse_core("(a U b")

    def test_lone_arrow_fragment(self):
        with pytest.raises(FormulaSyntaxError):
            parse_core("a - b")


#: One step of each deep shape, applied to the formula built so far.
DEEP_SHAPES = {
    "next": lambda f, i: Next(f),
    "left-and": lambda f, i: And(f, B),
    "right-until": lambda f, i: Until(B, f),
    "surface-mix": lambda f, i: (
        RULES["|"](f, B) if i % 3 == 0 else RULES["G"](f) if i % 3 == 1 else negated(f)
    ),
}

#: The three chains of 99 operators whose printed text the parser once
#: refused, since the printer adds parentheses and the rules negations.
BASELINE_CHAINS = (
    "G " * (MAX_NESTING - 1) + "a",
    " R ".join(["a"] * (MAX_NESTING - 1) + ["b"]),
    " -> ".join(["a"] * (MAX_NESTING - 1) + ["b"]),
)
#: More texts at the limit whose closures print deep member texts.
MEMBER_TEXT_CASES = ("X " * MAX_NESTING + "a", "!" + " | ".join(["a"] * MAX_NESTING))

#: Operands that any step below may add beside the formula it grows.
SIDES = (A, B, TRUE, Not(A), Not(TRUE), Next(B), Until(A, Not(B)), And(Not(A), B))
#: Steps that each make a formula one level deeper, given an operand
#: no deeper than it.
STEPS = (
    lambda f, g: Next(f),
    lambda f, g: And(f, g),
    lambda f, g: And(g, f),
    lambda f, g: Until(f, g),
    lambda f, g: Until(g, f),
)


@st.composite
def deep_core_formulas(draw):
    """Canonical core formulas up to MAX_NESTING deep, often exactly at
    it: a small formula grown one level at a time, each step maybe
    negated."""
    f = draw(core_formulas)
    target = draw(st.one_of(st.just(MAX_NESTING), st.integers(f._depth, MAX_NESTING)))
    while f._depth < target:
        g = draw(st.sampled_from([g for g in SIDES if g._depth <= f._depth]))
        f = draw(st.sampled_from(STEPS))(f, g)
        if draw(st.booleans()):
            f = negated(f)
    return f


class TestNestingLimit:
    """The limit bounds the depth of the core formula: each X, & and U
    is one level and ! none.  A text operator adds at most one level and
    parentheses none, so the limit holds alike for prefix operators,
    right-associative and left-associative chains."""

    SHAPES = {
        "next": lambda d: "X " * d + "a",
        "parens": lambda d: "(" * d + "a" + ")" * d,
        "until": lambda d: " U ".join(["a"] * (d + 1)),
        "and": lambda d: " & ".join(["a"] * (d + 1)),
        "not-or": lambda d: "!" + " | ".join(["a"] * d),
        "globally-parens": lambda d: "G (" * (d // 2) + "a" + ")" * (d // 2),
    }

    #: Per shape, the argument whose core formula is exactly MAX_NESTING
    #: deep and the next one that makes a deeper text.  Parentheses are
    #: no level, so "parens" has no limit.
    LIMITS = {
        "next": (MAX_NESTING, MAX_NESTING + 1),
        "until": (MAX_NESTING, MAX_NESTING + 1),
        "and": (MAX_NESTING, MAX_NESTING + 1),
        "not-or": (MAX_NESTING + 1, MAX_NESTING + 2),
        "globally-parens": (2 * MAX_NESTING, 2 * MAX_NESTING + 2),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_limit_is_exact(self, shape):
        make = self.SHAPES[shape]
        parse_core(make(MAX_NESTING))
        if shape not in self.LIMITS:
            assert parse_core(make(10 * MAX_NESTING)) is A
            return
        at, over = self.LIMITS[shape]
        assert parse_core(make(at))._depth == MAX_NESTING
        with pytest.raises(FormulaSyntaxError, match="nests deeper"):
            parse_core(make(over))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_recursive_functions_fit_at_the_limit(self, shape):
        f = parse_core(self.SHAPES[shape](MAX_NESTING))
        atoms_of(f)
        formula_size(f)
        check_core(f)
        format_formula(f)
        closure_of(f)
        _subformulas_bottom_up(f)

    def test_error_points_at_the_first_level_too_many(self):
        # The innermost X is reduced first, so the error names the X
        # whose node is MAX_NESTING + 1 deep, counted from the atom.
        with pytest.raises(FormulaSyntaxError) as err:
            parse_core("X " * 1200 + "a")
        assert err.value.position == 2 * (1200 - MAX_NESTING - 1)

    def test_parentheses_and_negations_add_no_level(self):
        deep = "X " * MAX_NESTING + "a"
        f = parse_core(deep)
        assert parse_core("(" * 1000 + deep + ")" * 1000) is f
        assert parse_core("!" * 1001 + deep) is Not(f)
        assert parse_core("!(" * 1000 + deep + ")" * 1000) is f
        assert f._depth == Not(f)._depth == MAX_NESTING

    @pytest.mark.parametrize("text", [*BASELINE_CHAINS, *MEMBER_TEXT_CASES])
    def test_printed_and_closure_member_texts_parse_back(self, text):
        psi = parse_core(text)
        assert parse_core(format_formula(psi)) is psi
        closure = closure_of(psi)
        for base, pos, neg in zip(closure.bases, closure.base_texts, closure.negated_texts):
            assert parse_core(pos) is base
            assert parse_core(neg) is negated(base)

    @given(deep_core_formulas())
    def test_print_parse_round_trip_up_to_the_limit(self, psi):
        assert psi._depth <= MAX_NESTING
        assert parse_core(format_formula(psi)) is psi

    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_a_formula_one_level_too_deep_prints_text_that_is_refused(self, shape):
        f = A
        i = 0
        while f._depth <= MAX_NESTING:
            f, i = DEEP_SHAPES[shape](f, i), i + 1
        assert f._depth == MAX_NESTING + 1
        with pytest.raises(FormulaSyntaxError) as err:
            parse_core(format_formula(f))
        assert str(err.value).startswith(f"formula nests deeper than {MAX_NESTING} levels (")


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
            # The error names the operator whose node first nests too
            # deep: the outermost one of a prefix or right-associative
            # chain, which is reduced last, and the last one of a left
            # chain.  Parentheses and ! are no level.
            (SHAPES["next"](MAX_NESTING + 1), NESTS, 0),
            (
                "(" * (MAX_NESTING + 1) + SHAPES["next"](MAX_NESTING + 1) + ")" * (MAX_NESTING + 1),
                NESTS,
                MAX_NESTING + 1,
            ),
            (SHAPES["until"](MAX_NESTING + 1), NESTS, 2),
            (SHAPES["and"](MAX_NESTING + 1), NESTS, 4 * MAX_NESTING + 2),
            (SHAPES["not-or"](MAX_NESTING + 2), NESTS, 4 * MAX_NESTING + 3),
            # One G and one pair of parentheses per two text levels.
            (SHAPES["globally-parens"](2 * MAX_NESTING + 2), NESTS, 0),
        ],
        ids=lambda v: v[:20] if isinstance(v, str) else None,
    )
    def test_message_and_position(self, text, message, position):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_core(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position


class TestDeepFormulas:
    """Formulas built through the constructors may nest far deeper than
    the parser allows and than Python's recursion limit."""

    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_walks_do_not_recurse(self, shape):
        levels = 3 * sys.getrecursionlimit()
        f = A
        for i in range(levels):
            f = DEEP_SHAPES[shape](f, i)
        assert atoms_of(f) == ({"a"} if shape == "next" else {"a", "b"})
        check_core(f)
        text = format_formula(f)
        closure = closure_of(f)
        base = f.child if isinstance(f, Not) else f
        i = closure.index[base]
        assert text == (closure.base_texts[i] if base is f else closure.negated_texts[i])
        for letter in ({("a", True), ("b", False)}, {("a", False), ("b", True)}):
            word = lasso([], [frozenset(letter)], ["a", "b"])
            expected = Truth.TRUE if eval_lasso_two_valued(f, word) else Truth.FALSE
            assert eval_lasso(f, word) is expected
        assert pickle.loads(pickle.dumps(f)) is f
        assert copy.deepcopy(f) is f

    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_stored_depth_matches_the_oracle(self, shape):
        f = A
        for i in range(3 * sys.getrecursionlimit()):
            f = DEEP_SHAPES[shape](f, i)
        assert f._depth == depth_by_walk(f)
        for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert twin._depth == depth_by_walk(twin)

    def test_unpickling_in_a_fresh_interpreter_stores_each_depth(self):
        # No node exists there yet, so unpickling builds every node anew.
        formulas = [parse_core(text) for text in (*BASELINE_CHAINS, *MEMBER_TEXT_CASES)]
        for step in DEEP_SHAPES.values():
            f = A
            for i in range(3 * sys.getrecursionlimit()):
                f = step(f, i)
            formulas.append(f)
        script = (
            "import pickle, sys\n"
            "from helpers import depth_by_walk\n"
            "for f in pickle.loads(sys.stdin.buffer.read()):\n"
            "    print(f._depth, depth_by_walk(f))\n"
        )
        tests = Path(__file__).parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(formulas),
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr.decode()
        expected = "".join(f"{f._depth} {f._depth}\n" for f in formulas)
        assert done.stdout.decode() == expected

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

    @pytest.mark.parametrize("call", [check_core, atoms_of, closure_of])
    @pytest.mark.parametrize("node", [Not("a"), And(A, 3)], ids=["not-str", "and-int"])
    def test_refused_with_value_error(self, call, node):
        with pytest.raises(ValueError, match="is not a formula") as caught:
            call(node)
        assert f"of {node!r}" in str(caught.value)

    @pytest.mark.parametrize("call", [check_core, atoms_of, closure_of])
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

    @given(surface_texts)
    def test_desugared_formulas_are_canonical_core(self, pair):
        check_core(parse_core(pair[0]))


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
        assert parse_core(format_formula(f)) is f

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
        check_core(Or(A, B))
    with pytest.raises(ValueError):
        check_core(Not(Not(A)))


# One node of every class, with the repr text each had as a frozen dataclass.
NODES = {
    "Atom(name='a')": A,
    "TrueConst()": TRUE,
    "Not(child=Atom(name='a'))": Not(A),
    "Next(child=Atom(name='a'))": Next(A),
    "And(left=Atom(name='a'), right=Atom(name='b'))": And(A, B),
    "Until(left=Atom(name='a'), right=Atom(name='b'))": Until(A, B),
}


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
        assert And(A, B) != Until(A, B)
        assert Not(A) != Next(A)
        assert TRUE != Not(TRUE)
        assert TrueConst() == TRUE
        assert A != "a"
        distinct = list(NODES.values())
        for i, f in enumerate(distinct):
            assert [g == f for g in distinct] == [j == i for j in range(len(distinct))]

    @given(core_formulas)
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

    @given(core_formulas)
    def test_pickle_and_deepcopy_round_trip(self, f):
        for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
            assert twin is f
            assert twin == f
            assert type(twin) is type(f)
            assert hash(twin) == hash(f)
            assert repr(twin) == repr(f)


class TestInterning:
    """Each distinct formula is one object, so equality is identity."""

    @given(core_formulas)
    def test_rebuilding_a_node_from_its_fields_returns_it(self, f):
        for node in _nodes(f):
            assert type(node)(*_fields(node)) is node

    @pytest.mark.parametrize("text", CORPUS)
    def test_parsing_twice_gives_one_object(self, text):
        assert parse_core(text) is parse_core(text)

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

    @given(st.one_of(core_formulas, deep_core_formulas()))
    def test_stored_depth_matches_the_oracle(self, f):
        assert f._depth == depth_by_walk(f)
        for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert twin._depth == depth_by_walk(twin)

    @given(core_formulas)
    def test_stored_size_is_the_node_count(self, f):
        for node in _nodes(f):
            assert formula_size(node) == _count(node)


def _count(f):
    """Number of nodes in the tree, counted by recursion."""
    return 1 + sum(_count(child) for child in _fields(f) if not isinstance(child, str))
