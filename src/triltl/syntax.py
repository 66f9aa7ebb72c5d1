"""LTL formulas: the parser, the core grammar, and closures.

Formula text knows atoms, true, false, !, &, |, ->, X, U, R, F and G.
The parser rewrites each operator into the core connectives {atom,
true, !, &, X, U} as it reads it and eliminates double negations, so
a formula is canonical: no node is a negation of a negation.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Callable, Iterator, Optional


class FormulaSyntaxError(ValueError):
    """Malformed formula text; `position` is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Formula nodes are interned: `Formula.__new__` returns the one node of a
# class with given fields, so equality is identity and a formula is a
# cheap dict key.  Each node stores, when it is made, its hash (hash()
# of its field tuple, the value a frozen dataclass computes), size and
# depth.  The table keeps every distinct formula the process has built.
_set = object.__setattr__
_interned: dict[tuple, Formula] = {}


class Formula:
    """Base class for formula nodes."""

    __slots__ = ("_hash", "_size", "_depth")
    __match_args__: tuple[str, ...] = ()
    #: Levels a node adds to its deepest operand's depth (atoms are 0 deep).
    _step = 1

    def __new__(cls, *fields):
        key = (cls, fields)
        node = _interned.get(key)
        if node is not None:
            return node
        names = cls.__match_args__
        if len(fields) != len(names):
            raise TypeError(
                f"{cls.__qualname__}() takes {len(names)} operands ({len(fields)} given)"
            )
        node = object.__new__(cls)
        for name, value in zip(names, fields):
            _set(node, name, value)
        operands = [f for f in fields if isinstance(f, Formula)]
        _set(node, "_hash", hash(fields))
        _set(node, "_size", 1 + sum(f._size for f in operands))
        _set(node, "_depth", max(f._depth for f in operands) + cls._step if operands else 0)
        # setdefault keeps the first node made if two threads race here.
        return _interned.setdefault(key, node)

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __reduce__(self):
        # A flat table in post-order, so that neither pickling nor
        # unpickling recurses: per distinct node its class and fields,
        # with each operand node given as [its entry's index].  A list is
        # never a field, since fields are hashable.
        order = subformulas(self)
        index = {g: i for i, g in enumerate(order)}
        table = tuple(
            (g.__class__, tuple([index[v]] if isinstance(v, Formula) else v for v in g._fields()))
            for g in order
        )
        return (_from_table, (table,))

    def _pieces(self) -> Iterator[str]:
        """The text of `repr`, piece by piece.  The text still to write
        and the nodes still to print sit on one explicit stack, so that a
        deep formula prints without recursion."""
        todo: list = [self]
        while todo:
            item = todo.pop()
            if isinstance(item, Formula):
                parts = [f"{item.__class__.__qualname__}("]
                for k, (name, value) in enumerate(zip(item.__match_args__, item._fields())):
                    parts.append(f"{', ' if k else ''}{name}=")
                    parts.append(value if isinstance(value, Formula) else repr(value))
                parts.append(")")
                todo += reversed(parts)
            else:
                yield item

    def __repr__(self) -> str:
        return "".join(self._pieces())


def _from_table(table: tuple) -> Formula:
    """The last node of a `Formula.__reduce__` table, rebuilt bottom up."""
    nodes: list[Formula] = []
    for cls, fields in table:
        operands = [nodes[v[0]] if isinstance(v, list) else v for v in fields]
        nodes.append(Formula.__new__(cls, *operands))
    return nodes[-1]


#: How many characters of a node's `repr` an error message shows.
_SHOWN = 100


def short_repr(f) -> str:
    """The first `_SHOWN` characters of `repr(f)`, then "…" if it is
    longer.  Error messages name nodes this way: the `repr` of a formula
    with shared operands grows with its tree size, which can be
    exponential in its count of distinct nodes."""
    text = "".join(islice(f._pieces(), _SHOWN + 1)) if isinstance(f, Formula) else repr(f)
    return text if len(text) <= _SHOWN else text[:_SHOWN] + "…"


class Atom(Formula):
    __slots__ = ("name",)
    __match_args__ = ("name",)


class _Unary(Formula):
    """A connective with one operand."""

    __slots__ = ("child",)
    __match_args__ = ("child",)


class _Binary(Formula):
    """A connective with two operands."""

    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")


class TrueConst(Formula):
    __slots__ = ()


class Not(_Unary):
    __slots__ = ()
    # A negation is the sign of a closure member: `!b` is as deep as `b`.
    _step = 0


class And(_Binary):
    __slots__ = ()


class Next(_Unary):
    __slots__ = ()


class Until(_Binary):
    __slots__ = ()


TRUE = TrueConst()

#: The connectives of a core formula.
CORE_KINDS = (Atom, TrueConst, Not, And, Next, Until)


def negated(f: Formula) -> Formula:
    """Canonical negation: strips a leading negation instead of stacking."""
    if isinstance(f, Not):
        return f.child
    return Not(f)


ATOM_NAME_RE = re.compile(r"[a-z][A-Za-z0-9_]*")


def is_atom_name(text: str) -> bool:
    """Can `text` name an atom?  `true` and `false` always parse as the
    constants, so no formula could name an atom called either."""
    return ATOM_NAME_RE.fullmatch(text) is not None and text not in ("true", "false")


# ---------------------------------------------------------------------------
# Lexer / parser
# ---------------------------------------------------------------------------

#: The tokens one character long; "->" is the only longer operator, and
#: every other token is a word (an atom, `true` or `false`).
_SYMBOLS = frozenset("()!&|XFGUR")


def _lex(text: str) -> Iterator[tuple[str, int]]:
    """The tokens of `text` with their positions, then ("", len(text))."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _SYMBOLS:
            yield ch, i
            i += 1
        elif text.startswith("->", i):
            yield "->", i
            i += 2
        else:
            m = ATOM_NAME_RE.match(text, i)
            if m is None:
                raise FormulaSyntaxError(f"unknown token {ch!r}", i)
            yield m.group(), i
            i = m.end()
    yield "", n


#: Deepest core formula the parser builds: each `X`, `&` and `U` on a
#: path from the root down to an atom or `true` is one level, and `!`
#: none.  A text operator adds at most one level and parentheses none,
#: so the printed text of an accepted formula and of each member of its
#: closure parses back.  Nothing in the library recurses over formulas,
#: so this is an input policy.
MAX_NESTING = 100

#: Binary operator token -> (precedence, right-associative, rule); a
#: higher precedence binds tighter.  A rule builds the core formula of
#: an operator from the core formulas of its operands.
_BINARY: dict[str, tuple[int, bool, Callable[[Formula, Formula], Formula]]] = {
    "->": (1, True, lambda l, r: negated(And(l, negated(r)))),
    "|": (2, False, lambda l, r: negated(And(negated(l), negated(r)))),
    "&": (3, False, And),
    "U": (4, True, Until),
    "R": (4, True, lambda l, r: negated(Until(negated(l), negated(r)))),
}
#: Precedence of the prefix operators, which bind tighter than every
#: binary one.
_PREFIX = 5
#: The same for the tokens that open a level before an operand.  An open
#: parenthesis is reduced by nothing but its ")".
_OPENING: dict[str, tuple[int, bool, Optional[Callable[[Formula], Formula]]]] = {
    "!": (_PREFIX, True, negated),
    "X": (_PREFIX, True, Next),
    "F": (_PREFIX, True, lambda c: Until(TRUE, c)),
    "G": (_PREFIX, True, lambda c: negated(Until(TRUE, negated(c)))),
    "(": (0, True, None),
}
#: What any other token after an operand does: it reduces every open
#: operator down to the innermost open parenthesis.
_CLOSE = (0, False, None)


def _checked(f: Formula, pos: int) -> Formula:
    if f._depth > MAX_NESTING:
        raise FormulaSyntaxError(f"formula nests deeper than {MAX_NESTING} levels", pos)
    return f


def _expected(what: str, word: str, pos: int) -> FormulaSyntaxError:
    shown = repr(word) if word else "end of input"
    return FormulaSyntaxError(f"expected {what}, found {shown}", pos)


def parse_core(text: str) -> Formula:
    """Parse LTL text into a canonical core formula.

    Precedence, loosest first: -> | & (U, R) prefix; ->, U and R
    associate to the right, & and | to the left.  Each operator is
    rewritten into the core connectives as it is read: a -> b becomes
    !(a & !b), a | b becomes !(!a & !b), a R b becomes !(!a U !b), F a
    becomes true U a, G a becomes !(true U !a), false becomes !true,
    and a double negation is removed.  Raises FormulaSyntaxError on
    empty input, unknown tokens, unexpected tokens, or nesting deeper
    than MAX_NESTING levels, reporting the character position.
    """
    tokens = list(_lex(text))
    if not tokens[0][0]:
        raise FormulaSyntaxError("empty input", 0)
    # One operator-precedence loop over explicit stacks: `operands` holds
    # the core formula of each operand read, `pending` each open operator
    # or parenthesis as (precedence, right-associative, rule, position).
    # Each node a rule builds is checked against the limit, so the error
    # names the operator whose node first nests too deep.
    operands: list[Formula] = []
    pending: list[tuple[int, bool, Optional[Callable], int]] = []
    read = iter(tokens)
    while True:
        # An operand: prefix operators and open parentheses, then a word.
        word, pos = next(read)
        while word in _OPENING:
            pending.append((*_OPENING[word], pos))
            word, pos = next(read)
        if word == "true":
            operands.append(TRUE)
        elif word == "false":
            operands.append(Not(TRUE))
        elif word[:1].islower():
            operands.append(Atom(word))
        else:
            raise _expected("a formula", word, pos)
        # After an operand: the next token reduces the open operators that
        # bind tighter than it, and those that bind as tight and associate
        # to the left.  A binary operator then waits for its right operand;
        # ")" closes its parenthesis.
        while True:
            word, pos = next(read)
            prec, right, rule = _BINARY.get(word, _CLOSE)
            while pending:
                top_prec, top_right, top_rule, top_pos = pending[-1]
                if top_prec < prec or top_prec == prec and top_right:
                    break
                pending.pop()
                n = 1 if top_prec == _PREFIX else 2
                operands[-n:] = [_checked(top_rule(*operands[-n:]), top_pos)]
            if rule is not None:
                pending.append((prec, right, rule, pos))
                break
            if word == ")" and pending:
                pending.pop()
            elif pending:
                raise _expected("')'", word, pos)
            elif word:
                raise _expected("end of input", word, pos)
            else:
                return operands[0]


# ---------------------------------------------------------------------------
# Core formulas
# ---------------------------------------------------------------------------


def _operands(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, _Binary):
        return (f.left, f.right)
    if isinstance(f, _Unary):
        return (f.child,)
    return ()


def subformulas(f: Formula) -> list[Formula]:
    """Every distinct node of `f`, smallest first, so that each comes
    after its operands.  Nodes of equal size keep the order in which a
    depth-first walk from `f` finds them.  Raises ValueError when `f`
    or an operand of one of its nodes is not a formula."""
    if not isinstance(f, Formula):
        raise ValueError(f"not a formula: {short_repr(f)}")
    found = {f: None}
    stack = [f]
    while stack:
        node = stack.pop()
        for child in _operands(node):
            if child not in found:
                if not isinstance(child, Formula):
                    raise ValueError(
                        f"operand {short_repr(child)} of {short_repr(node)} is not a formula"
                    )
                found[child] = None
                stack.append(child)
    return sorted(found, key=formula_size)


def formula_size(f: Formula) -> int:
    """Number of nodes in the tree, stored when the node was made."""
    return f._size


def atoms_of(f: Formula) -> frozenset[str]:
    """Names of all atoms occurring in the formula."""
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Atom))


def check_core(f: Formula) -> None:
    """Raise ValueError unless f is a canonical core formula."""
    for g in subformulas(f):
        if not isinstance(g, CORE_KINDS):
            raise ValueError(f"not a core connective: {short_repr(g)}")
        if isinstance(g, Not) and isinstance(g.child, Not):
            raise ValueError(f"double negation is not canonical: {short_repr(g)}")


# Printer precedence: atoms 4, unary 3, U 2, & 1.
def _prec(f: Formula) -> int:
    if isinstance(f, (Atom, TrueConst)):
        return 4
    if isinstance(f, (Not, Next)):
        return 3
    if isinstance(f, Until):
        return 2
    if isinstance(f, And):
        return 1
    raise ValueError(f"not a core formula: {short_repr(f)}")


def _wrapped(text: dict[Formula, str], g: Formula, min_prec: int) -> str:
    """The text of `g`, in parentheses if it binds looser than `min_prec`."""
    return text[g] if _prec(g) >= min_prec else f"({text[g]})"


def _texts(f: Formula) -> dict[Formula, str]:
    """The printed text of every subformula of a core formula, made
    bottom-up from its operands' texts."""
    text: dict[Formula, str] = {}
    for g in subformulas(f):
        if isinstance(g, Atom):
            text[g] = g.name
        elif isinstance(g, TrueConst):
            text[g] = "true"
        elif isinstance(g, Not):
            text[g] = "!" + _wrapped(text, g.child, 3)
        elif isinstance(g, Next):
            text[g] = "X " + _wrapped(text, g.child, 3)
        elif isinstance(g, Until):
            # Right-associative: the left operand needs parens when it is
            # itself an until; the right one only when it is a conjunction.
            text[g] = f"{_wrapped(text, g.left, 3)} U {_wrapped(text, g.right, 2)}"
        elif isinstance(g, And):
            text[g] = f"{_wrapped(text, g.left, 1)} & {_wrapped(text, g.right, 2)}"
        else:
            raise ValueError(f"not a core formula: {short_repr(g)}")
    return text


def format_formula(f: Formula) -> str:
    """Render a core formula as text that parses back to it."""
    return _texts(f)[f]


# ---------------------------------------------------------------------------
# Closure
# ---------------------------------------------------------------------------

#: Reference to a closure member: (base index, True) stands for the base
#: itself, (base index, False) for its negation.
Ref = tuple[int, bool]


class Closure:
    """The subformulas of a core formula together with their negations.

    Only the positive `bases` are stored (none is negation-rooted); the
    signed pair (b, +) / (b, -) is implicit.  Bases are ordered by
    (size, text), which puts every operand before the compound built
    from it and makes all enumerations reproducible.
    """

    def __init__(self, formula: Formula):
        check_core(formula)
        self.formula = formula

        text = _texts(formula)
        self.bases: tuple[Formula, ...] = tuple(
            sorted((g for g in text if not isinstance(g, Not)), key=lambda b: (b._size, text[b]))
        )
        #: Rendered text of each base and of its negation, in base order.
        self.base_texts: tuple[str, ...] = tuple(text[b] for b in self.bases)
        # A base is never negation-rooted, so its negation prints as
        # `format_formula(Not(b))` does: "!" and the base's text, wrapped.
        self.negated_texts: tuple[str, ...] = tuple(
            "!" + _wrapped(text, b, 3) for b in self.bases
        )
        self.index: dict[Formula, int] = {b: i for i, b in enumerate(self.bases)}

        atom_coords = []
        conjunctions = []
        untils = []
        nexts = []
        true_index: Optional[int] = None
        for i, b in enumerate(self.bases):
            if isinstance(b, Atom):
                atom_coords.append((i, b.name))
            elif isinstance(b, TrueConst):
                true_index = i
            elif isinstance(b, And):
                conjunctions.append((i, self.ref(b.left), self.ref(b.right)))
            elif isinstance(b, Until):
                untils.append((i, self.ref(b.left), self.ref(b.right)))
            elif isinstance(b, Next):
                nexts.append((i, self.ref(b.child)))
        self.atom_coords: tuple[tuple[int, str], ...] = tuple(atom_coords)
        self.atoms: tuple[str, ...] = tuple(sorted(n for _, n in atom_coords))
        self.true_index = true_index
        self.conjunctions: tuple[tuple[int, Ref, Ref], ...] = tuple(conjunctions)
        self.untils: tuple[tuple[int, Ref, Ref], ...] = tuple(untils)
        self.nexts: tuple[tuple[int, Ref], ...] = tuple(nexts)

    def __len__(self) -> int:
        return len(self.bases)

    def ref(self, g: Formula) -> Ref:
        """Locate a closure member, folding a leading negation into the sign."""
        if isinstance(g, Not):
            return (self.index[g.child], False)
        return (self.index[g], True)


def closure_of(f: Formula) -> Closure:
    """Build the closure of a canonical core formula."""
    return Closure(f)
