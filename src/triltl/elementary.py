"""Elementary sets: the candidate automaton states over a closure.

A candidate assigns each closure base one of three marks: absent,
present positively, or present negatively (so a formula and its
negation can never both be present).  A candidate is elementary when it
is propositionally consistent and locally consistent with respect to
until.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import Optional, Sequence

from .syntax import Closure, Formula, negated

ABSENT = 0
POS = 1
NEG = 2
MARKS = (ABSENT, POS, NEG)
#: Bit set of marks a coordinate may take, bit m for mark m: every mark.
ANY = 0b111

#: Assignment vector, one mark per closure base, in base order.
StateVec = tuple[int, ...]

#: Guard against enumerating 3^n candidates for large closures.
DEFAULT_CANDIDATE_CAP = 3**15


class StateSpaceLimitError(RuntimeError):
    """Raised when the candidate state space exceeds the configured cap."""


def signed(mark: int, positive: bool) -> int:
    """The mark of a referenced formula, given the mark of its base: a
    negative reference swaps present-positively and present-negatively."""
    return mark if positive or mark == ABSENT else POS + NEG - mark


# The local rules, over the marks of a base and of its operands as
# referenced.  Consistency checks and enumeration tables both read them.


def _and_holds(c: int, l: int, r: int) -> bool:
    """c = l & r is present positively iff both operands are, and
    negatively iff some operand is present negatively."""
    return (c == POS) == (l == POS and r == POS) and (c == NEG) == (NEG in (l, r))


def _until_holds(u: int, l: int, r: int) -> bool:
    """For u = l U r: r present forces u present; u present negatively
    forces r present negatively; u present without r forces l present;
    and l, r both present negatively force u present negatively."""
    return (
        (r != POS or u == POS)
        and (u != NEG or r == NEG)
        and (u != POS or r == POS or l == POS)
        and (l != NEG or r != NEG or u == NEG)
    )


def is_consistent(vec: Sequence[int], closure: Closure) -> bool:
    """Propositional consistency: every conjunction base obeys
    `_and_holds`, and the constant true, when present in the closure, is
    marked positive."""
    if closure.true_index is not None and vec[closure.true_index] != POS:
        return False
    return all(
        _and_holds(vec[i], signed(vec[l], lpos), signed(vec[r], rpos))
        for i, (l, lpos), (r, rpos) in closure.conjunctions
    )


def is_locally_consistent(vec: Sequence[int], closure: Closure) -> bool:
    """Local consistency: every until base obeys `_until_holds`."""
    return all(
        _until_holds(vec[i], signed(vec[l], lpos), signed(vec[r], rpos))
        for i, (l, lpos), (r, rpos) in closure.untils
    )


#: Suffixes a prefix may be extended by, per allowed-mark bit set.
_Choices = tuple[StateVec, ...]

_FREE: tuple[_Choices, ...] = tuple(
    tuple((m,) for m in MARKS if allowed >> m & 1) for allowed in range(ANY + 1)
)
_TRUE: tuple[_Choices, ...] = tuple(
    ((POS,),) if allowed >> POS & 1 else () for allowed in range(ANY + 1)
)


@cache
def _operand_tables(rule, lpos: bool, rpos: bool) -> tuple[tuple[_Choices, ...], ...]:
    """Per allowed-mark bit set, the marks `rule` lets a base take,
    indexed by 3 * (left operand's base mark) + (right operand's)."""
    return tuple(
        tuple(
            tuple(
                (m,)
                for m in MARKS
                if allowed >> m & 1 and rule(m, signed(l, lpos), signed(r, rpos))
            )
            for l, r in product(MARKS, repeat=2)
        )
        for allowed in range(ANY + 1)
    )


class Tables:
    """A closure compiled for enumeration: per base, the coordinates of
    its operands (None for a base without) and its choice tables."""

    __slots__ = ("levels",)

    def __init__(self, closure: Closure):
        levels = [(None, None, _FREE)] * len(closure.bases)
        if closure.true_index is not None:
            levels[closure.true_index] = (None, None, _TRUE)
        rules = ((_and_holds, closure.conjunctions), (_until_holds, closure.untils))
        for rule, compounds in rules:
            for i, (l, lpos), (r, rpos) in compounds:
                levels[i] = (l, r, _operand_tables(rule, lpos, rpos))
        self.levels = tuple(levels)

    def states(self, allowed: Optional[Sequence[int]] = None) -> list[StateVec]:
        """All elementary sets, optionally restricted per coordinate.

        `allowed[i]`, when given, is the bit set of marks coordinate i
        may take (bit m for mark m, `ANY` for every mark).  Results come
        out in lexicographic order of the assignment vector (absent <
        positive < negative): bases are sorted so that operands precede
        compounds, and each level extends the ordered prefixes of the
        previous one in mark order.
        """
        prefixes: list[StateVec] = [()]
        for i, (l, r, tables) in enumerate(self.levels):
            table = tables[ANY if allowed is None else allowed[i]]
            if l is None:
                prefixes = [p + s for p in prefixes for s in table]
            else:
                prefixes = [p + s for p in prefixes for s in table[3 * p[l] + p[r]]]
        return prefixes


def enumerate_states(
    closure: Closure, allowed: Optional[Sequence[int]] = None
) -> list[StateVec]:
    """All elementary sets, optionally restricted per coordinate; see
    `Tables.states`."""
    return Tables(closure).states(allowed)


def check_candidate_cap(closure: Closure, cap: int) -> None:
    """Raise StateSpaceLimitError when 3^(number of bases) exceeds `cap`."""
    candidates = 3 ** len(closure.bases)
    if candidates > cap:
        raise StateSpaceLimitError(
            f"state-space limit exceeded: 3^{len(closure.bases)} = {candidates} "
            f"candidate sets, cap is {cap}"
        )


def enumerate_elementary(
    closure: Closure, cap: int = DEFAULT_CANDIDATE_CAP
) -> list[StateVec]:
    """All elementary sets of the closure, in deterministic order.

    Raises StateSpaceLimitError when 3^(number of bases) exceeds `cap`.
    """
    check_candidate_cap(closure, cap)
    return Tables(closure).states()


def state_members(vec: Sequence[int], closure: Closure) -> tuple[Formula, ...]:
    """The formulas present in the set, in base order."""
    out = []
    for value, base in zip(vec, closure.bases):
        if value == POS:
            out.append(base)
        elif value == NEG:
            out.append(negated(base))
    return tuple(out)


def format_state(vec: Sequence[int], closure: Closure) -> str:
    """Human-readable set notation, with a dedicated empty-set symbol.

    Members appear in base order, as `format_formula` renders them.
    """
    texts = [
        pos if value == POS else neg
        for value, pos, neg in zip(vec, closure.base_texts, closure.negated_texts)
        if value != ABSENT
    ]
    if not texts:
        return "∅"
    return "{" + ", ".join(texts) + "}"
