"""Direct evaluation of three-valued LTL on ultimately periodic words.

A lasso denotes the infinite word stem followed by the loop repeated
forever.  Evaluation labels every subformula at every one of the
n = |stem| + |loop| positions with two predicates, "definitely true"
and "definitely false", computed bottom-up; the until labels are the
least (true side) and greatest (false side) fixpoints of their
one-step unfoldings on the position graph with wrap-around.  This is
independent of the automaton construction, which makes it a usable
oracle for it.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Optional, Sequence

from .letters import (
    Letter,
    UnknownAtomError,
    all_letters,
    letter_atoms,
    make_letter,
    parse_letter_sequence,
)
from .syntax import And, Atom, Formula, Next, Not, TrueConst, Until, short_repr, subformulas
from .truth import Truth


class LassoFormatError(ValueError):
    """Malformed lasso (empty loop or letters outside the alphabet)."""


class NonTotalLetterError(ValueError):
    """A letter leaves some alphabet atom unassigned."""


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

    def is_total(self) -> bool:
        """Does every letter assign every alphabet atom?"""
        return all(
            letter_atoms(letter) == set(self.alphabet) for letter in self.letters
        )


def lasso(stem, loop, alphabet) -> LassoWord:
    return LassoWord(tuple(stem), tuple(loop), tuple(alphabet))


def parse_lasso(
    stem_text: str, loop_text: str, alphabet: Optional[Sequence[str]] = None
) -> LassoWord:
    """Parse stem and loop strings ("a;!a" and "a,!b" style) into a lasso.

    Without an explicit alphabet, the atoms mentioned in the letters are
    used.
    """
    stem = parse_letter_sequence(stem_text)
    loop = parse_letter_sequence(loop_text)
    if alphabet is None:
        names: set[str] = set()
        for letter in (*stem, *loop):
            names |= letter_atoms(letter)
        alphabet = sorted(names)
    return lasso(stem, loop, alphabet)


def _subformulas_in(psi: Formula, word: LassoWord) -> list[Formula]:
    """The subformulas of psi, bottom-up, once its atoms are known to be
    in the word's alphabet."""
    order = subformulas(psi)
    missing = {g.name for g in order if isinstance(g, Atom)} - set(word.alphabet)
    if missing:
        raise UnknownAtomError(
            f"formula atom {sorted(missing)[0]!r} is not in the lasso alphabet"
        )
    return order


def _fixpoint_sweeps(n: int) -> int:
    # Each sweep stabilises at least one position; one extra detects it.
    return n + 1


def _label_tables(
    order: list[Formula], word: LassoWord
) -> dict[Formula, tuple[list[bool], list[bool]]]:
    """For each formula in `order`, positionwise (definitely-true,
    definitely-false).  Every operand must come before its compounds, as
    in `subformulas`."""
    n = word.length
    succ = [word.successor(i) for i in range(n)]
    letters = word.letters
    budget = _fixpoint_sweeps(n)

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
            # Least fixpoint of t[i] = rt[i] or (lt[i] and t[succ(i)]).
            t = [False] * n
            sweeps = 0
            changed = True
            while changed:
                changed = False
                sweeps += 1
                if sweeps > budget:
                    raise RuntimeError(
                        "internal error: until fixpoint failed to converge"
                    )
                for i in range(n - 1, -1, -1):
                    if not t[i] and (rt[i] or (lt[i] and t[succ[i]])):
                        t[i] = True
                        changed = True
            # Greatest fixpoint of f[i] = rf[i] and (lf[i] or f[succ(i)]).
            f = [True] * n
            sweeps = 0
            changed = True
            while changed:
                changed = False
                sweeps += 1
                if sweeps > budget:
                    raise RuntimeError(
                        "internal error: until fixpoint failed to converge"
                    )
                for i in range(n - 1, -1, -1):
                    if f[i] and not (rf[i] and (lf[i] or f[succ[i]])):
                        f[i] = False
                        changed = True
        else:
            raise ValueError(f"not a core formula: {short_repr(g)}")
        if any(a and b for a, b in zip(t, f)):
            raise RuntimeError("internal error: label tables overlap")
        tables[g] = (t, f)
    return tables


def eval_lasso(psi: Formula, word: LassoWord) -> Truth:
    """The three-valued value of `psi` on the infinite word at position 0."""
    t, f = _label_tables(_subformulas_in(psi, word), word)[psi]
    if t[0]:
        return Truth.TRUE
    if f[0]:
        return Truth.FALSE
    return Truth.UNKNOWN


def eval_lasso_two_valued(psi: Formula, word: LassoWord) -> bool:
    """Classical satisfaction on a word whose letters are all total.

    Runs the same fixpoint machinery with falsehood as the complement
    of truth, so only the true-side tables are needed.
    """
    order = _subformulas_in(psi, word)
    n = word.length
    for i, letter in enumerate(word.letters):
        if letter_atoms(letter) != set(word.alphabet):
            raise NonTotalLetterError(f"letter at position {i} is not total")
    succ = [word.successor(i) for i in range(n)]
    letters = word.letters
    tables: dict[Formula, list[bool]] = {}
    for g in order:
        if isinstance(g, Atom):
            t = [(g.name, True) in letters[i] for i in range(n)]
        elif isinstance(g, TrueConst):
            t = [True] * n
        elif isinstance(g, Not):
            t = [not v for v in tables[g.child]]
        elif isinstance(g, Next):
            ct = tables[g.child]
            t = [ct[succ[i]] for i in range(n)]
        elif isinstance(g, And):
            lt, rt = tables[g.left], tables[g.right]
            t = [lt[i] and rt[i] for i in range(n)]
        elif isinstance(g, Until):
            lt, rt = tables[g.left], tables[g.right]
            t = [False] * n
            changed = True
            while changed:
                changed = False
                for i in range(n - 1, -1, -1):
                    if not t[i] and (rt[i] or (lt[i] and t[succ[i]])):
                        t[i] = True
                        changed = True
        else:
            raise ValueError(f"not a core formula: {short_repr(g)}")
        tables[g] = t
    return tables[psi][0]


def enumerate_lassos(
    alphabet: Sequence[str], max_stem: int, max_loop: int
) -> Iterator[LassoWord]:
    """All lassos with the given stem and loop bounds over consistent
    letters, in deterministic order and without syntactic duplicates."""
    if max_loop < 1:
        raise ValueError("max_loop must be at least 1")
    alphabet = tuple(alphabet)
    letters = all_letters(alphabet)
    for stem_len in range(max_stem + 1):
        for stem in product(letters, repeat=stem_len):
            for loop_len in range(1, max_loop + 1):
                for loop in product(letters, repeat=loop_len):
                    yield LassoWord(stem, loop, alphabet)
