"""Elementary sets: the candidate automaton states over a closure.

A candidate assigns each closure base one of three marks: absent,
present positively, or present negatively (so a formula and its
negation can never both be present).  A candidate is elementary when it
is propositionally consistent and locally consistent with respect to
until.

This module states the local rules and compiles them into the layouts
of a prefix trie of elementary sets (`level_layouts`); the trie itself
and its walks are `gnba.LazyFamily`.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import Sequence

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
# referenced.  The trie layouts below are generated from them.


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


#: Per operand-mark index, the marks a base may take.
_Choices = tuple[tuple[int, ...], ...]

def _layout(choices: _Choices) -> tuple:
    """How a node expands, per operand-mark index ix, by the marks of
    `choices[ix]`: `choices` itself; per bit set of marks (0 to `ANY`),
    the offsets from the node's first child of the children whose mark
    is in the set; the one-mark suffixes of the children's vectors; and
    the index 3 * ix + m of each child's key constant."""
    select = tuple(
        tuple(tuple(j for j, m in enumerate(marks) if bits >> m & 1) for marks in choices)
        for bits in range(ANY + 1)
    )
    suffixes = tuple(tuple((m,) for m in marks) for marks in choices)
    slots = tuple(tuple(3 * ix + m for m in marks) for ix, marks in enumerate(choices))
    return choices, select, suffixes, slots


#: The layouts of a base without operands, and of the constant true.
_FREE = _layout((MARKS,))
_TRUE = _layout(((POS,),))


@cache
def _operand_layout(rule, lpos: bool, rpos: bool) -> tuple:
    """The `_layout` of the marks `rule` lets a base take, indexed by
    3 * (left operand's base mark) + (right operand's)."""
    return _layout(
        tuple(
            tuple(m for m in MARKS if rule(m, signed(l, lpos), signed(r, rpos)))
            for l, r in product(MARKS, repeat=2)
        )
    )


def pack(allowed: Sequence[int]) -> int:
    """Per-coordinate mark bit sets as one int, 3 bits per coordinate,
    coordinate 0 highest: of n coordinates, coordinate i's bit set is
    at `slot(n, i)`.  So packed masks compare as their bit sets do,
    from coordinate 0 on."""
    packed = 0
    for bits in allowed:
        packed = packed << 3 | bits
    return packed


def slot(n: int, i: int) -> int:
    """The shift of coordinate i's bit set in a mask of n coordinates
    packed by `pack`."""
    return 3 * (n - 1 - i)


def level_layouts(closure: Closure) -> list[tuple]:
    """How the prefix trie of the closure's elementary sets grows, per
    base i in order: (l, r, choices, select, suffixes, slots), where l
    and r are the coordinates of base i's operands (None for a base
    without operands) and the rest is the `_layout` of the marks the
    local rule of base i allows, per operand-mark index ix = 3 * (left
    operand's mark) + (right's), or ix = 0 for a base without operands."""
    levels = [(None, None, *_FREE)] * len(closure.bases)
    if closure.true_index is not None:
        levels[closure.true_index] = (None, None, *_TRUE)
    rules = ((_and_holds, closure.conjunctions), (_until_holds, closure.untils))
    for rule, compounds in rules:
        for i, (l, lpos), (r, rpos) in compounds:
            levels[i] = (l, r, *_operand_layout(rule, lpos, rpos))
    return levels


def check_candidate_cap(closure: Closure, cap: int) -> None:
    """Raise StateSpaceLimitError when 3^(number of bases) exceeds `cap`."""
    candidates = 3 ** len(closure.bases)
    if candidates > cap:
        raise StateSpaceLimitError(
            f"state-space limit exceeded: 3^{len(closure.bases)} = {candidates} "
            f"candidate sets, cap is {cap}"
        )


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
