"""Elementary sets: the candidate automaton states over a closure.

A candidate assigns each closure base one of three marks: absent,
present positively, or present negatively (so a formula and its
negation can never both be present).  A candidate is elementary when it
is propositionally consistent and locally consistent with respect to
until.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .syntax import Closure, Formula, negated

ABSENT = 0
POS = 1
NEG = 2

#: Assignment vector, one mark per closure base, in base order.
StateVec = tuple[int, ...]

#: Guard against enumerating 3^n candidates for large closures.
DEFAULT_CANDIDATE_CAP = 3**15


class StateSpaceLimitError(RuntimeError):
    """Raised when the candidate state space exceeds the configured cap."""


def member(vec: Sequence[int], ref: tuple[int, bool]) -> bool:
    """Is the referenced formula present (positively) in the set?"""
    idx, positive = ref
    return vec[idx] == (POS if positive else NEG)


def member_negated(vec: Sequence[int], ref: tuple[int, bool]) -> bool:
    """Is the negation of the referenced formula present in the set?"""
    idx, positive = ref
    return vec[idx] == (NEG if positive else POS)


def is_consistent(vec: Sequence[int], closure: Closure) -> bool:
    """Propositional consistency over the conjunctions of the closure.

    For every conjunction base c = l & r: c is present positively iff
    both operands are, and negatively iff some operand is present
    negatively.  The constant true, when present in the closure, must be
    marked positive.
    """
    if closure.true_index is not None and vec[closure.true_index] != POS:
        return False
    for i, lref, rref in closure.conjunctions:
        if (vec[i] == POS) != (member(vec, lref) and member(vec, rref)):
            return False
        if (vec[i] == NEG) != (member_negated(vec, lref) or member_negated(vec, rref)):
            return False
    return True


def is_locally_consistent(vec: Sequence[int], closure: Closure) -> bool:
    """Local consistency with respect to until.

    For every until base u = p U q: q present forces u present; u
    present negatively forces q present negatively; u present without q
    forces p present; and p, q both present negatively force u present
    negatively.
    """
    for i, lref, rref in closure.untils:
        if member(vec, rref) and vec[i] != POS:
            return False
        if vec[i] == NEG and not member_negated(vec, rref):
            return False
        if vec[i] == POS and not member(vec, rref) and not member(vec, lref):
            return False
        if member_negated(vec, lref) and member_negated(vec, rref) and vec[i] != NEG:
            return False
    return True


def _until_choices(vec: Sequence[int], lref, rref) -> tuple[int, ...]:
    """Marks an until base may take, given its operands' marks."""
    if member(vec, rref):
        return (POS,)
    if member_negated(vec, lref) and member_negated(vec, rref):
        return (NEG,)
    choices = [ABSENT]
    if member(vec, lref):
        choices.append(POS)
    if member_negated(vec, rref):
        choices.append(NEG)
    return tuple(choices)


def _conjunction_choice(vec: Sequence[int], lref, rref) -> int:
    """The single mark a conjunction base is forced to take."""
    if member(vec, lref) and member(vec, rref):
        return POS
    if member_negated(vec, lref) or member_negated(vec, rref):
        return NEG
    return ABSENT


def enumerate_states(
    closure: Closure, allowed: Optional[Sequence[Optional[frozenset[int]]]] = None
) -> list[StateVec]:
    """All elementary sets, optionally restricted per coordinate.

    `allowed[i]`, when not None, limits the marks coordinate i may take.
    Results come out in lexicographic order of the assignment vector
    (absent < positive < negative).  Bases are sorted so that operands
    precede compounds, which lets consistency be enforced as each
    coordinate is chosen.
    """
    n = len(closure.bases)
    kinds: list[tuple] = [("free",)] * n
    for i, lref, rref in closure.conjunctions:
        kinds[i] = ("and", lref, rref)
    for i, lref, rref in closure.untils:
        kinds[i] = ("until", lref, rref)
    if closure.true_index is not None:
        kinds[closure.true_index] = ("true",)

    out: list[StateVec] = []
    vec = [ABSENT] * n

    def descend(i: int) -> None:
        if i == n:
            out.append(tuple(vec))
            return
        kind = kinds[i]
        tag = kind[0]
        if tag == "free":
            choices: tuple[int, ...] = (ABSENT, POS, NEG)
        elif tag == "true":
            choices = (POS,)
        elif tag == "and":
            choices = (_conjunction_choice(vec, kind[1], kind[2]),)
        else:
            choices = _until_choices(vec, kind[1], kind[2])
        mask = None if allowed is None else allowed[i]
        for value in choices:
            if mask is None or value in mask:
                vec[i] = value
                descend(i + 1)
        vec[i] = ABSENT

    descend(0)
    return out


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
    return enumerate_states(closure)


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
