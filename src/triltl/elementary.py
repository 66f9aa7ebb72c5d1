"""Elementary sets: the candidate automaton states over a closure.

A candidate assigns each closure base one of three marks: absent,
present positively, or present negatively (so a formula and its
negation can never both be present).  A candidate is elementary when it
is propositionally consistent and locally consistent with respect to
until.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, product
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
# referenced.  The enumeration tables read them.


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


#: Key constants of a level that leave every key as it is.
_KEEP = (-1,) * 27


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


class Tables:
    """A closure compiled for enumeration: the prefix trie of its
    elementary sets, grown on demand.

    Node 0 is the empty prefix.  A node at depth i is a consistent
    assignment to bases 0..i-1; its children extend it by each mark the
    local rule of base i allows, given the marks of base i's operands,
    which come earlier, at operand-mark index ix = 3 * (left operand's
    mark) + (right's), or 0 for a base without operands.  A node is
    expanded once, the first time a walk reaches it: its children get
    consecutive ids in mark order, and `kids[node]` is the pair (first
    child, ix).  `vecs[node]` is the node's assignment vector, and
    `keys[node]` its key: the parent's key AND-ed with
    `level_keys[i][3 * ix + m]` for the child's mark m (a level given as
    None, or no `level_keys`, keeps every key), and `root_key` for node
    0.  `walk` is the one enumerator of elementary sets.
    """

    __slots__ = ("levels", "vecs", "keys", "kids", "_shifts", "_lead", "_walked")

    def __init__(
        self,
        closure: Closure,
        level_keys: Optional[Sequence[Optional[Sequence[int]]]] = None,
        root_key: int = 0,
    ):
        n = len(closure.bases)
        levels = [(None, None, _FREE)] * n
        if closure.true_index is not None:
            levels[closure.true_index] = (None, None, _TRUE)
        rules = ((_and_holds, closure.conjunctions), (_until_holds, closure.untils))
        for rule, compounds in rules:
            for i, (l, lpos), (r, rpos) in compounds:
                levels[i] = (l, r, _operand_layout(rule, lpos, rpos))
        self.levels = tuple(
            (l, r, *layout, consts or _KEEP)
            for (l, r, layout), consts in zip(levels, level_keys or [None] * n)
        )
        self.vecs: list[StateVec] = [()]
        self.keys: list[int] = [root_key]
        self.kids: dict[int, tuple[int, int]] = {}
        self._shifts = list(range(slot(n, 0), -1, -3))
        # The literal bases (atoms and true, the bases of size 1) come
        # first.  Walks resume per value of a mask's bits at them; see
        # `walk`.
        literals = len(closure.atom_coords) + (closure.true_index is not None)
        self._lead = 3 * (n - literals)
        self._walked: dict[int, tuple[int, list]] = {}

    def _expand(self, depth: int, nodes: list[int]) -> None:
        """Expand the nodes of `nodes` (all at `depth`) not expanded yet."""
        l, r, _, _, suffixes, slots, consts = self.levels[depth]
        vecs, keys, kids = self.vecs, self.keys, self.kids
        todo = [node for node in nodes if node not in kids]
        parents = list(map(vecs.__getitem__, todo))
        ixs = [0] * len(todo) if l is None else [3 * vec[l] + vec[r] for vec in parents]
        rows = list(map(suffixes.__getitem__, ixs))
        first = len(vecs)
        vecs += [vec + suffix for vec, row in zip(parents, rows) for suffix in row]
        keys += [
            key & consts[k] for key, ix in zip(map(keys.__getitem__, todo), ixs) for k in slots[ix]
        ]
        kids.update(zip(todo, zip(accumulate(map(len, rows), initial=first), ixs)))

    def walk(self, mask: int) -> list[int]:
        """The leaves (nodes at full depth) that `mask` admits, in
        lexicographic order of their vectors (absent < positive <
        negative).

        `mask` is packed as by `pack`.  Each level moves a list of node
        ids down by the marks allowed there, so no prefix is rebuilt.
        The node lists of the last walk are kept per value of the mask's
        bits at the literal bases, and a walk resumes from the first
        level where its mask differs from that walk's.  So letter-pinned
        walks share their later levels with earlier walks pinned to the
        same letter, and walks in increasing mask order, which is the
        order of their bit sets from level 0 on, share every level where
        their masks agree.
        """
        n = len(self._shifts)
        lead = mask >> self._lead
        last = self._walked.get(lead)
        if last is None:
            depth, frontiers = 0, [[0]] + [None] * n
        else:
            before, frontiers = last
            differ = mask ^ before
            if not differ:
                return frontiers[n]
            depth = n - 1 - (differ.bit_length() - 1) // 3
        self._walked[lead] = (mask, frontiers)
        kids, levels, shifts = self.kids, self.levels, self._shifts
        nodes = frontiers[depth]
        for depth in range(depth, n):
            if not all(map(kids.__contains__, nodes)):
                self._expand(depth, nodes)
            select = levels[depth][3][mask >> shifts[depth] & ANY]
            nodes = [b + j for b, ix in map(kids.__getitem__, nodes) for j in select[ix]]
            frontiers[depth + 1] = nodes
            if not nodes:
                frontiers[depth + 2 :] = [nodes] * (n - depth - 1)
                break
        return nodes

    def labels(self, closure: Closure) -> list[str]:
        """`format_state` of every leaf, in lexicographic order, each
        made once from its parent's text and its own member's text.  The
        trie must be fully grown, as a walk that allows every mark leaves
        it."""
        nodes, texts = [0], [""]
        kids = self.kids
        levels = zip(self.levels, closure.base_texts, closure.negated_texts)
        for (_, _, choices, select, *_), pos, neg in levels:
            member = ("", ", " + pos, ", " + neg)
            pieces = [[member[m] for m in marks] for marks in choices]
            children = list(map(kids.__getitem__, nodes))
            texts = [text + piece for text, (_, ix) in zip(texts, children) for piece in pieces[ix]]
            nodes = [b + j for b, ix in children for j in select[ANY][ix]]
        return ["{" + text[2:] + "}" if text else "∅" for text in texts]


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
    """All elementary sets of the closure, in lexicographic order: the
    leaves of one walk that allows every mark.

    Raises StateSpaceLimitError when 3^(number of bases) exceeds `cap`.
    """
    check_candidate_cap(closure, cap)
    tables = Tables(closure)
    return list(map(tables.vecs.__getitem__, tables.walk((1 << 3 * len(closure.bases)) - 1)))


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
