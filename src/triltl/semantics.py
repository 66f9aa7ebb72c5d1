"""Direct evaluation of three-valued LTL on ultimately periodic words.

A lasso denotes the infinite word stem followed by the loop repeated
forever.  Evaluation labels every subformula at every one of the
n = |stem| + |loop| positions with two predicates, "definitely true"
and "definitely false", computed bottom-up; the until labels are the
least (true side) and greatest (false side) fixpoints of their
one-step unfoldings on the position graph with wrap-around, reached in
one backward pass of fixed order.  This is independent of the
automaton construction, which makes it a usable oracle for it.
"""

from __future__ import annotations

from .letters import Letter, UnknownAtomError, letter_atoms, make_letter
from .syntax import And, Atom, Formula, Next, Not, TrueConst, Until, is_atom_name
from .syntax import short_repr, subformulas
from .truth import Truth


class LassoFormatError(ValueError):
    """Malformed lasso (empty loop, an alphabet name that is no atom
    name, or letters outside the alphabet)."""


class LassoWord:
    """The infinite word stem . loop . loop . loop ...

    Immutable; compared and hashed by (stem, loop, alphabet).
    """

    __slots__ = ("stem", "loop", "alphabet")

    def __init__(
        self, stem: tuple[Letter, ...], loop: tuple[Letter, ...], alphabet: tuple[str, ...]
    ):
        if not loop:
            raise LassoFormatError("lasso loop must not be empty")
        for name in alphabet:
            if not is_atom_name(name):
                raise LassoFormatError(f"alphabet name {name!r} is not an atom name")
        atoms = set(alphabet)
        for letter in (*stem, *loop):
            make_letter(letter)
            extra = letter_atoms(letter) - atoms
            if extra:
                raise LassoFormatError(
                    f"letter uses atom {sorted(extra)[0]!r} outside the alphabet"
                )
        _set = object.__setattr__
        _set(self, "stem", stem)
        _set(self, "loop", loop)
        _set(self, "alphabet", alphabet)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return (self.stem, self.loop, self.alphabet)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return (self.__class__, self._fields())

    def __repr__(self) -> str:
        return f"LassoWord(stem={self.stem!r}, loop={self.loop!r}, alphabet={self.alphabet!r})"

    @property
    def length(self) -> int:
        return len(self.stem) + len(self.loop)

    @property
    def letters(self) -> tuple[Letter, ...]:
        return self.stem + self.loop

    def successor(self, i: int) -> int:
        """Next position: i + 1, wrapping from the last back to the loop start."""
        return i + 1 if i + 1 < self.length else len(self.stem)


def lasso(stem, loop, alphabet) -> LassoWord:
    return LassoWord(tuple(stem), tuple(loop), tuple(alphabet))


def _labels_of(
    order: list[Formula], word: LassoWord
) -> dict[Formula, tuple[list[bool], list[bool]]]:
    """For each formula in `order`, positionwise (definitely-true,
    definitely-false).  Every operand must come before its compounds, as
    in `subformulas`."""
    n = word.length
    m = len(word.stem)
    succ = [word.successor(i) for i in range(n)]
    letters = word.letters
    # The until pass: the loop backward twice, then the stem backward.
    # After one lap the loop start is final, since the first position
    # deciding it lies within one lap; the second lap then settles every
    # loop position, and the stem reads only settled ones.
    loop_back = range(n - 1, m - 1, -1)
    backward = [*loop_back, *loop_back, *range(m - 1, -1, -1)]

    tables: dict[Formula, tuple[list[bool], list[bool]]] = {}
    for g in order:
        if isinstance(g, Atom):
            t = [(g.name, True) in letters[i] for i in range(n)]
            f = [(g.name, False) in letters[i] for i in range(n)]
        elif isinstance(g, TrueConst):
            t = [True] * n
            f = [False] * n
        elif isinstance(g, Not):
            ct, cf = tables[g.child]
            t, f = list(cf), list(ct)
        elif isinstance(g, Next):
            ct, cf = tables[g.child]
            t = [ct[succ[i]] for i in range(n)]
            f = [cf[succ[i]] for i in range(n)]
        elif isinstance(g, And):
            lt, lf = tables[g.left]
            rt, rf = tables[g.right]
            t = [lt[i] and rt[i] for i in range(n)]
            f = [lf[i] or rf[i] for i in range(n)]
        elif isinstance(g, Until):
            lt, lf = tables[g.left]
            rt, rf = tables[g.right]
            # Least fixpoint of t[i] = rt[i] or (lt[i] and t[succ(i)]),
            # greatest of f[i] = rf[i] and (lf[i] or f[succ(i)]).
            t = [False] * n
            f = [True] * n
            for i in backward:
                t[i] = rt[i] or (lt[i] and t[succ[i]])
                f[i] = rf[i] and (lf[i] or f[succ[i]])
        else:
            raise ValueError(f"not a core formula: {short_repr(g)}")
        if any(a and b for a, b in zip(t, f)):
            raise RuntimeError("internal error: label tables overlap")
        tables[g] = (t, f)
    return tables


def eval_lasso(psi: Formula, word: LassoWord) -> Truth:
    """The three-valued value of `psi` on the infinite word at position 0."""
    order = subformulas(psi)
    missing = {g.name for g in order if isinstance(g, Atom)} - set(word.alphabet)
    if missing:
        raise UnknownAtomError(
            f"formula atom {sorted(missing)[0]!r} is not in the lasso alphabet"
        )
    t, f = _labels_of(order, word)[psi]
    if t[0]:
        return Truth.TRUE
    if f[0]:
        return Truth.FALSE
    return Truth.UNKNOWN
