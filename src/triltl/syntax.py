"""LTL surface syntax, desugaring to the core grammar, and closures.

The surface grammar knows atoms, true, false, !, &, |, ->, X, U, R, F
and G.  Desugaring rewrites every formula into the core connectives
{atom, true, !, &, X, U} and eliminates double negations, so a core
formula is canonical: no node is a negation of a negation.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, Optional


class FormulaSyntaxError(ValueError):
    """Malformed formula text; `position` is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Formula nodes are interned: `Formula.__new__` returns the one node of a
# class with given fields, so equality is identity and a formula is a
# cheap dict key.  Each node stores, when it is made, its hash (hash()
# of its field tuple, the value a frozen dataclass computes) and its
# size.  The table keeps every distinct formula the process has built.
_set = object.__setattr__
_interned: dict[tuple, Formula] = {}


class Formula:
    """Base class for formula nodes."""

    __slots__ = ("_hash", "_size")
    __match_args__: tuple[str, ...] = ()

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
        _set(node, "_hash", hash(fields))
        _set(node, "_size", 1 + sum(f._size for f in fields if isinstance(f, Formula)))
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
        return (self.__class__, self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__match_args__, self._fields())
        )
        return f"{self.__class__.__qualname__}({shown})"


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


class FalseConst(Formula):
    __slots__ = ()


class Not(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Next(_Unary):
    __slots__ = ()


class Until(_Binary):
    __slots__ = ()


class Release(_Binary):
    __slots__ = ()


class Finally(_Unary):
    __slots__ = ()


class Globally(_Unary):
    __slots__ = ()


TRUE = TrueConst()

#: Core connectives; everything else is surface sugar.
CORE_KINDS = (Atom, TrueConst, Not, And, Next, Until)

ATOM_NAME_RE = re.compile(r"[a-z][A-Za-z0-9_]*")


def is_atom_name(text: str) -> bool:
    return ATOM_NAME_RE.fullmatch(text) is not None


# ---------------------------------------------------------------------------
# Lexer / parser
# ---------------------------------------------------------------------------

_UNARY_KEYWORDS = {"X": Next, "F": Finally, "G": Globally}


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _lex(text: str) -> Iterator[_Token]:
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()!&|":
            kind = {"(": "lparen", ")": "rparen", "!": "not", "&": "and", "|": "or"}[ch]
            yield _Token(kind, ch, i)
            i += 1
        elif ch == "-":
            if text.startswith("->", i):
                yield _Token("implies", "->", i)
                i += 2
            else:
                raise FormulaSyntaxError(f"unknown token {ch!r}", i)
        elif ch in "XFG":
            yield _Token("unary", ch, i)
            i += 1
        elif ch == "U":
            yield _Token("until", ch, i)
            i += 1
        elif ch == "R":
            yield _Token("release", ch, i)
            i += 1
        else:
            m = ATOM_NAME_RE.match(text, i)
            if m is None:
                raise FormulaSyntaxError(f"unknown token {ch!r}", i)
            word = m.group()
            if word == "true":
                yield _Token("true", word, i)
            elif word == "false":
                yield _Token("false", word, i)
            else:
                yield _Token("atom", word, i)
            i = m.end()
    yield _Token("end", "", n)


#: Deepest nesting a formula may have.  Each operator and each pair of
#: parentheses on a path from the whole formula down to an atom counts
#: one level.  The bound keeps the parser and the recursive functions
#: over formulas (desugaring, printing, closures) well inside Python's
#: default recursion limit.
MAX_NESTING = 100

_Parsed = tuple[Formula, int]


class _Parser:
    """Recursive descent; every level returns a formula with its nesting
    height, so that too deep an input fails as a syntax error.

    `depth` counts the parentheses, unary operators and right-recursive
    operators currently open.  Each of them adds a level to the result,
    so the count reaches MAX_NESTING only on inputs that nest too deep
    anyway; checking it stops the recursion before the stack runs out.
    """

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    @property
    def head(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: str) -> FormulaSyntaxError:
        tok = self.head
        shown = repr(tok.text) if tok.kind != "end" else "end of input"
        return FormulaSyntaxError(f"expected {expected}, found {shown}", tok.pos)

    def checked(self, height: int, tok: _Token) -> int:
        if height > MAX_NESTING:
            raise FormulaSyntaxError(
                f"formula nests deeper than {MAX_NESTING} levels", tok.pos
            )
        return height

    def nested(self, tok: _Token, parse_operand: Callable[[], _Parsed]) -> _Parsed:
        """Parse the operand that follows `tok`, one level deeper."""
        self.depth += 1
        self.checked(self.depth, tok)
        parsed = parse_operand()
        self.depth -= 1
        return parsed

    def node(self, tok: _Token, kind: type, *operands: _Parsed) -> _Parsed:
        height = 1 + max(h for _, h in operands)
        return kind(*(f for f, _ in operands)), self.checked(height, tok)

    # Precedence, loosest first: -> | & (U, R) unary.
    def implies_level(self) -> _Parsed:
        left = self.or_level()
        if self.head.kind == "implies":
            tok = self.advance()
            return self.node(tok, Implies, left, self.nested(tok, self.implies_level))
        return left

    def or_level(self) -> _Parsed:
        f = self.and_level()
        while self.head.kind == "or":
            f = self.node(self.advance(), Or, f, self.and_level())
        return f

    def and_level(self) -> _Parsed:
        f = self.until_level()
        while self.head.kind == "and":
            f = self.node(self.advance(), And, f, self.until_level())
        return f

    def until_level(self) -> _Parsed:
        left = self.unary_level()
        if self.head.kind in ("until", "release"):
            tok = self.advance()
            kind = Until if tok.kind == "until" else Release
            return self.node(tok, kind, left, self.nested(tok, self.until_level))
        return left

    def unary_level(self) -> _Parsed:
        tok = self.head
        if tok.kind == "not":
            self.advance()
            return self.node(tok, Not, self.nested(tok, self.unary_level))
        if tok.kind == "unary":
            self.advance()
            kind = _UNARY_KEYWORDS[tok.text]
            return self.node(tok, kind, self.nested(tok, self.unary_level))
        return self.atom_level()

    def atom_level(self) -> _Parsed:
        tok = self.head
        if tok.kind == "atom":
            self.advance()
            return Atom(tok.text), 0
        if tok.kind == "true":
            self.advance()
            return TRUE, 0
        if tok.kind == "false":
            self.advance()
            return FalseConst(), 0
        if tok.kind == "lparen":
            self.advance()
            f, height = self.nested(tok, self.implies_level)
            if self.head.kind != "rparen":
                raise self.fail("')'")
            self.advance()
            return f, self.checked(height + 1, tok)
        raise self.fail("a formula")


def parse(text: str) -> Formula:
    """Parse surface LTL text into a formula tree.

    Raises FormulaSyntaxError on empty input, unknown tokens, unexpected
    tokens, or nesting deeper than MAX_NESTING levels, reporting the
    character position.
    """
    tokens = list(_lex(text))
    if tokens[0].kind == "end":
        raise FormulaSyntaxError("empty input", 0)
    parser = _Parser(tokens)
    f, _height = parser.implies_level()
    if parser.head.kind != "end":
        raise parser.fail("end of input")
    return f


# ---------------------------------------------------------------------------
# Core formulas
# ---------------------------------------------------------------------------


def negated(f: Formula) -> Formula:
    """Canonical negation: strips a leading negation instead of stacking."""
    if isinstance(f, Not):
        return f.child
    return Not(f)


def desugar(f: Formula) -> Formula:
    """Rewrite a surface formula into the core grammar.

    or/implies become negated conjunctions, R becomes negated until,
    F p becomes true U p, G p becomes !(true U !p), and false becomes
    !true.  The result is canonical (no double negation).
    """
    match f:
        case Atom() | TrueConst():
            return f
        case FalseConst():
            return Not(TRUE)
        case Not(child):
            return negated(desugar(child))
        case And(left, right):
            return And(desugar(left), desugar(right))
        case Or(left, right):
            return negated(And(negated(desugar(left)), negated(desugar(right))))
        case Implies(left, right):
            return negated(And(desugar(left), negated(desugar(right))))
        case Next(child):
            return Next(desugar(child))
        case Until(left, right):
            return Until(desugar(left), desugar(right))
        case Release(left, right):
            return negated(Until(negated(desugar(left)), negated(desugar(right))))
        case Finally(child):
            return Until(TRUE, desugar(child))
        case Globally(child):
            return negated(Until(TRUE, negated(desugar(child))))
    raise TypeError(f"not a formula: {f!r}")


def parse_core(text: str) -> Formula:
    """Parse and desugar in one step."""
    return desugar(parse(text))


def formula_size(f: Formula) -> int:
    """Number of nodes in the tree, stored when the node was made."""
    return f._size


def atoms_of(f: Formula) -> frozenset[str]:
    """Names of all atoms occurring in the formula."""
    if isinstance(f, Atom):
        return frozenset((f.name,))
    if isinstance(f, (TrueConst, FalseConst)):
        return frozenset()
    if isinstance(f, (Not, Next, Finally, Globally)):
        return atoms_of(f.child)
    return atoms_of(f.left) | atoms_of(f.right)


def check_core(f: Formula) -> None:
    """Raise ValueError unless f is a canonical core formula."""
    if isinstance(f, Atom) or isinstance(f, TrueConst):
        return
    if isinstance(f, Not):
        if isinstance(f.child, Not):
            raise ValueError(f"double negation is not canonical: {f!r}")
        check_core(f.child)
        return
    if isinstance(f, Next):
        check_core(f.child)
        return
    if isinstance(f, (And, Until)):
        check_core(f.left)
        check_core(f.right)
        return
    raise ValueError(f"not a core connective: {f!r}")


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
    raise ValueError(f"not a core formula: {f!r}")


def _wrap(f: Formula, min_prec: int) -> str:
    text = format_formula(f)
    if _prec(f) < min_prec:
        return f"({text})"
    return text


def format_formula(f: Formula) -> str:
    """Render a core formula as text that parses back to it."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, TrueConst):
        return "true"
    if isinstance(f, Not):
        return "!" + _wrap(f.child, 3)
    if isinstance(f, Next):
        return "X " + _wrap(f.child, 3)
    if isinstance(f, Until):
        # Right-associative: the left operand needs parens when it is
        # itself an until; the right one only when it is a conjunction.
        return f"{_wrap(f.left, 3)} U {_wrap(f.right, 2)}"
    if isinstance(f, And):
        return f"{_wrap(f.left, 1)} & {_wrap(f.right, 2)}"
    raise ValueError(f"not a core formula: {f!r}")


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

        seen: set[Formula] = set()
        stack = [formula]
        while stack:
            g = stack.pop()
            if isinstance(g, Not):
                g = g.child
            if g in seen:
                continue
            seen.add(g)
            if isinstance(g, Next):
                stack.append(g.child)
            elif isinstance(g, (And, Until)):
                stack.append(g.left)
                stack.append(g.right)

        text = {b: format_formula(b) for b in seen}
        self.bases: tuple[Formula, ...] = tuple(
            sorted(seen, key=lambda b: (b._size, text[b]))
        )
        #: Rendered text of each base and of its negation, in base order.
        self.base_texts: tuple[str, ...] = tuple(text[b] for b in self.bases)
        # A base is never negation-rooted, so its negation prints as
        # `format_formula(Not(b))` does: "!" and the base's text, wrapped.
        self.negated_texts: tuple[str, ...] = tuple(
            "!" + (text[b] if _prec(b) >= 3 else f"({text[b]})") for b in self.bases
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

    def signed_members(self) -> tuple[Formula, ...]:
        """The full signed closure: every base and its negation."""
        out = []
        for b in self.bases:
            out.append(b)
            out.append(negated(b))
        return tuple(out)


def closure_of(f: Formula) -> Closure:
    """Build the closure of a canonical core formula."""
    return Closure(f)
