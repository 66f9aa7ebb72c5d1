"""Construction of the three-valued Buchi automaton for a core formula.

A candidate state assigns each closure base one of three marks: absent,
present positively, or present negatively (so a formula and its
negation can never both be present).  A candidate is an elementary set
when it is propositionally consistent and locally consistent with
respect to until.  For a formula and a truth value, the generalized
automaton's states are the elementary sets of the formula's closure;
the chosen truth value selects the initial states and nothing else.
Transitions are guarded by the state's own literal pattern: a state
can only read letters that agree with it on the atoms the closure
mentions, while atoms outside the closure are unconstrained.

Four rules, over the marks of a base and of its operands, define the
automaton: the local rules of conjunction and until say which
candidates are elementary, and the until linkage and fulfilment rules
say which states may follow a state and which states accept.  They are
compiled once into the levels of a prefix trie of elementary sets
(`_levels`).  One engine, `LazyFamily`, grows that trie and builds
states and successor lists when they are asked for: `check_model`
reads it letter by letter, and `build_family` and `build_automaton`
read it in full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import accumulate, compress, product, repeat
from typing import Optional, Sequence

from .letters import Letter, UnknownAtomError
from .syntax import Closure, Formula, atoms_of, closure_of, is_atom_name, negated
from .truth import Truth

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


def state_pattern(vec: Sequence[int], closure: Closure) -> Letter:
    """The literal pattern of a state: its positive and negated atoms."""
    return frozenset(
        (name, vec[i] == POS) for i, name in closure.atom_coords if vec[i] != ABSENT
    )


# The four rules, over the marks of a base and of its operands as
# referenced.  The levels of the trie are compiled from them.


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


def _until_links(u: int, l: int, r: int, x: int) -> bool:
    """May a successor give u = l U r the mark x?  The expansion law
    u = r | (l & X u) must hold exactly when u is present, and its
    negation !u = !r & (!l | X !u) exactly when u is present negatively."""
    holds = r == POS or (l == POS and x == POS)
    fails = r == NEG and (l == NEG or x == NEG)
    return (u == POS) == holds and (u == NEG) == fails


def _fulfils(u: int, r: int) -> bool:
    """Is a state in the acceptance set of u = l U r?  It is unless u is
    pending (present without r) or r is refuted while u is not."""
    return (u != POS or r == POS) and (r != NEG or u == NEG)


def _layout(choices: tuple[tuple[int, ...], ...]) -> tuple:
    """How a node expands, per operand-mark index ix, by the marks of
    `choices[ix]`: per bit set of marks (0 to `ANY`), the offsets from
    the node's first child of the children whose mark is in the set;
    the one-mark suffixes of the children's vectors; and the index
    3 * ix + m of each child's key constant."""
    select = tuple(
        tuple(tuple(j for j, m in enumerate(marks) if bits >> m & 1) for marks in choices)
        for bits in range(ANY + 1)
    )
    suffixes = tuple(tuple((m,) for m in marks) for marks in choices)
    slots = tuple(tuple(3 * ix + m for m in marks) for ix, marks in enumerate(choices))
    return select, suffixes, slots


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


@cache
def _until_key_table(lpos: bool, rpos: bool) -> tuple[int, ...]:
    """Per index 3 * (3 * l + r) + u of an until level's key constants,
    the bit set `_until_links` allows the successor's u, plus 8 if
    `_fulfils` holds."""
    return tuple(
        sum(1 << x for x in MARKS if _until_links(u, signed(l, lpos), signed(r, rpos), x))
        + 8 * _fulfils(u, signed(r, rpos))
        for l, r, u in product(MARKS, repeat=3)
    )


#: Key constants of a level that leave every key as it is.
_KEEP = (-1,) * 27


def _levels(closure: Closure) -> tuple[list[tuple], int]:
    """The levels of a `LazyFamily` trie, one per base, and the root key.

    Level i is the record (l, r, select, suffixes, slots, keys): l and r
    are the coordinates of base i's operands (None for a base without
    operands); select, suffixes and slots are the `_layout` of the marks
    the local rule of base i allows, per operand-mark index
    ix = 3 * (left operand's mark) + (right's), or ix = 0 for a base
    without operands; and a child's key is its parent's AND-ed with
    `keys[3 * ix + m]`, for its own mark m.

    A leaf's key holds, in one int, a state's linkage mask, acceptance
    mask and pattern.  The low 3n bits are the marks the linkage lets a
    successor give each coordinate, packed as by `pack`; the next bits
    its acceptance mask, bit k for set k of `acceptance_sets`; and 3
    bits per atom coordinate above them the atom's mark as one bit.
    Each part is read once per (level, mark, operand marks) instead of
    once per state: an `X` base sets its operand's successor marks, an
    until base its own successor marks and its acceptance bit, and an
    atom its pattern bits.
    """
    n = len(closure.bases)
    pattern_at = 3 * n + len(closure.untils) + 1
    root = (1 << pattern_at + 3 * len(closure.atom_coords)) - 1
    levels = [(None, None, *_FREE, _KEEP)] * n
    if closure.true_index is not None:
        levels[closure.true_index] = (None, None, *_TRUE, _KEEP)
    for i, (j, positive) in closure.nexts:
        at = slot(n, j)
        keys = [root ^ ANY << at | 1 << signed(m, positive) << at for m in MARKS]
        levels[i] = (None, None, *_FREE, keys)
    for a, (i, _name) in enumerate(closure.atom_coords):
        at = pattern_at + 3 * a
        levels[i] = (None, None, *_FREE, [root ^ ANY << at | 1 << m << at for m in MARKS])
    for i, (l, lpos), (r, rpos) in closure.conjunctions:
        levels[i] = (l, r, *_operand_layout(_and_holds, lpos, rpos), _KEEP)
    for k, (i, (l, lpos), (r, rpos)) in enumerate(closure.untils):
        at = slot(n, i)
        fulfilled = 1 << 3 * n + k
        # The constant for each entry of `_until_key_table`.
        made = [root ^ (ANY ^ b) << at ^ fulfilled for b in range(ANY + 1)]
        made += [keep | fulfilled for keep in made]
        keys = list(map(made.__getitem__, _until_key_table(lpos, rpos)))
        levels[i] = (l, r, *_operand_layout(_until_holds, lpos, rpos), keys)
    return levels, root


class PatternIndex:
    """An eager `Gnba` or `Nba` read the way `_product` reads an
    automaton, and the way `LazyFamily` answers: `roots(l)`,
    `targets(q, l)`, `marks[q]`, `all_marks` and `nletters`.

    A letter id is a pattern number: `ids` numbers the automaton's
    distinct patterns in order of first appearance, and every letter
    that is no state's pattern reads as the one id `len(ids)`, which no
    state has.  So the index depends on the automaton alone and is built
    once per automaton (`Gnba.pattern_index`, `Nba.pattern_index`).  It
    keeps each state's pattern number and the initial states grouped by
    pattern; `targets` filters a successor list when it is asked for.
    """

    __slots__ = ("ids", "_pattern_of", "_roots", "_succ", "nletters", "marks", "all_marks")

    def __init__(self, automaton: Gnba | Nba):
        ids: dict[Letter, int] = {}
        self._pattern_of = [ids.setdefault(p, len(ids)) for p in automaton.patterns]
        self.ids = ids
        self.nletters = len(ids) + 1
        self._roots: list[list[int]] = [[] for _ in range(self.nletters)]
        for q in sorted(automaton.initial):
            self._roots[self._pattern_of[q]].append(q)
        self._succ = automaton.succ
        self.marks = automaton.marks
        self.all_marks = automaton.all_marks

    def letter_id(self, letter: Letter) -> int:
        """The id of a letter already restricted to the closure's atoms."""
        return self.ids.get(letter, len(self.ids))

    def roots(self, letter: int) -> list[int]:
        """Initial states with pattern `letter`, in increasing order."""
        return self._roots[letter]

    def targets(self, q: int, letter: int) -> list[int]:
        """Successors of state q with pattern `letter`."""
        pattern_of = self._pattern_of
        return [q2 for q2 in self._succ[q] if pattern_of[q2] == letter]


@dataclass(frozen=True)
class Gnba:
    """Generalized Buchi automaton over letters of signed atoms.

    Transitions are stored per source state as the successor id list;
    the required letter pattern is `patterns[sid]`, free on atoms the
    closure does not mention.
    """

    closure: Closure
    alphabet: tuple[str, ...]
    states: tuple[StateVec, ...]
    initial: frozenset[int]
    patterns: tuple[Letter, ...]
    succ: tuple[tuple[int, ...], ...]
    #: Per state, its acceptance bitmask as `LazyFamily.marks` holds it.
    marks: tuple[int, ...]
    #: Per state, `format_state` of its vector.
    labels: tuple[str, ...] = field(repr=False, compare=False)

    @property
    def all_marks(self) -> int:
        """One bit per acceptance set: per until, then the full set."""
        return (1 << (len(self.closure.untils) + 1)) - 1

    #: The membership index that `nba_accepts_lasso` and
    #: `product_nonempty` read, built on first use.
    pattern_index = cached_property(PatternIndex)

    @cached_property
    def acceptance(self) -> tuple[frozenset[int], ...]:
        """The acceptance sets of `acceptance_sets`, read off `marks` on first use."""
        return _sets_of(self.marks, self.all_marks)

    def state_label(self, sid: int) -> str:
        return self.labels[sid]


#: An atom's mark, by its value in a letter (None where it is absent).
_LETTER_MARKS = {None: ABSENT, True: POS, False: NEG}

#: The mark each truth value gives the formula in the initial states.
_INITIAL_MARKS = {Truth.TRUE: POS, Truth.FALSE: NEG, Truth.UNKNOWN: ABSENT}


def _initial_mark(closure: Closure, value: Truth) -> tuple[int, int]:
    """The formula's coordinate and the mark the initial states of the
    automaton for `value` give it."""
    idx, positive = closure.ref(closure.formula)
    return idx, signed(_INITIAL_MARKS[value], positive)


def check_candidate_cap(closure: Closure, cap: int) -> None:
    """Raise StateSpaceLimitError when 3^(number of bases) exceeds `cap`."""
    candidates = 3 ** len(closure.bases)
    if candidates > cap:
        raise StateSpaceLimitError(
            f"state-space limit exceeded: 3^{len(closure.bases)} = {candidates} "
            f"candidate sets, cap is {cap}"
        )


def checked_closure(psi: Formula, alphabet: tuple[str, ...], cap: int) -> Closure:
    """The closure of `psi`, after the checks every construction makes
    before it enumerates a state.

    Raises ValueError when the alphabet repeats an atom,
    UnknownAtomError when it names something that is no atom name
    (`syntax.is_atom_name`) or lacks an atom of `psi`, and
    StateSpaceLimitError when 3^(closure size) exceeds `cap`.
    """
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("alphabet contains duplicate atoms")
    for name in alphabet:
        if not is_atom_name(name):
            raise UnknownAtomError(f"alphabet name {name!r} is not an atom name")
    missing = sorted(atoms_of(psi) - set(alphabet))
    if missing:
        raise UnknownAtomError(f"formula atom {missing[0]!r} is not in the alphabet")
    closure = closure_of(psi)
    check_candidate_cap(closure, cap)
    return closure


class LazyFamily:
    """The three automata of `build_family`, built only where a product
    with a fixed list of letters reads them, in the manner of the
    on-the-fly tableau (Gerth, Peled, Vardi and Wolper, PSTV 1995).

    A product pairs an automaton state only with a letter equal to its
    literal pattern.  Holding every atom coordinate to the marks of
    letter l makes the enumeration yield exactly the states whose
    pattern is l, in their lexicographic order, which is the order
    `build_family` numbers them in.  So `roots(value, l)` lists the
    initial states of the automaton for `value` whose pattern is l, and
    `targets(q, l)` the successor states of q with pattern l, in the same
    relative order as the eager automaton.  A letter given as None pins
    no atom, so it reads the whole family.

    The states are the leaves of the prefix trie of the closure's
    elementary sets, grown on demand, and a state's id is its leaf's
    node id.  Node 0 is the empty prefix.  A node at depth i is a
    consistent assignment to bases 0..i-1; its children extend it by
    each mark the local rule of base i allows (`_levels`).  A node
    is expanded once, the first time a walk reaches it: its children get
    consecutive ids in mark order.  `vecs[node]` is the node's
    assignment vector and `keys[node]` its key, the parent's key AND-ed
    with a constant of the child's level and mark (see `_levels`),
    so a state's linkage mask, marks and pattern are read off its leaf's
    key, not recomputed per state.  `marks[q]` is q's acceptance bitmask,
    bit k for set k of `acceptance_sets`, taken from the key when the
    node is made.  `walk` is the one enumerator of elementary sets.
    """

    def __init__(self, closure: Closure, letters: Sequence[Optional[Letter]]):
        self.closure = closure
        n = len(closure.bases)
        self._levels, root = _levels(closure)
        self._link_bits = (1 << 3 * n) - 1
        self.all_marks = (1 << (len(closure.untils) + 1)) - 1
        self.vecs: list[StateVec] = [()]
        self.keys: list[int] = [root]
        self.marks: list[int] = [root >> 3 * n & self.all_marks]
        # Per expanded node, the pair (first child, operand-mark index).
        self._kids: dict[int, tuple[int, int]] = {}
        # The literal bases (atoms and true, the bases of size 1) come
        # first.  Walks resume per value of a mask's bits at them; see
        # `walk`.
        literals = len(closure.atom_coords) + (closure.true_index is not None)
        self._lead = 3 * (n - literals)
        self._walked: dict[int, tuple[int, list]] = {}
        # Per letter, the packed marks it allows: its own mark at each
        # atom coordinate, every mark elsewhere.  Per atom, the bits to
        # clear for each of its marks.
        clears = [
            (name, [(ANY ^ 1 << m) << slot(n, i) for m in MARKS]) for i, name in closure.atom_coords
        ]
        self._pins = [self._link_bits] * len(letters)
        for l, letter in enumerate(letters):
            if letter is not None:
                value = dict(letter)
                self._pins[l] ^= sum(bits[_LETTER_MARKS[value.get(name)]] for name, bits in clears)
        self.nletters = len(letters)

    def _expand(self, depth: int, nodes: list[int]) -> None:
        """Expand the nodes of `nodes` (all at `depth`) not expanded yet."""
        l, r, _, suffixes, slots, consts = self._levels[depth]
        vecs, keys, kids = self.vecs, self.keys, self._kids
        todo = [node for node in nodes if node not in kids]
        parents = list(map(vecs.__getitem__, todo))
        ixs = [0] * len(todo) if l is None else [3 * vec[l] + vec[r] for vec in parents]
        rows = list(map(suffixes.__getitem__, ixs))
        first = len(vecs)
        vecs += [vec + suffix for vec, row in zip(parents, rows) for suffix in row]
        keys += [
            key & consts[k] for key, ix in zip(map(keys.__getitem__, todo), ixs) for k in slots[ix]
        ]
        shift, all_marks = self._link_bits.bit_length(), self.all_marks
        self.marks += [key >> shift & all_marks for key in keys[first:]]
        kids.update(zip(todo, zip(accumulate(map(len, rows), initial=first), ixs)))

    def walk(self, mask: int) -> list[int]:
        """The leaves (nodes at full depth) that `mask` admits, in
        lexicographic order of their vectors (absent < positive <
        negative).  The list is the walk's own: callers keep it as it is.

        `mask` is packed as by `pack`.  Each level moves a list of node
        ids down by the marks allowed there, so no prefix is rebuilt.
        The node lists of the last walk are kept per value of the mask's
        bits at the literal bases, and a walk resumes from the first
        level where its mask differs from that walk's.  So letter-pinned
        walks share their later levels with earlier walks pinned to the
        same letter, a repeated mask costs one lookup, and walks in
        increasing mask order, which is the order of their bit sets from
        level 0 on, share every level where their masks agree.
        """
        levels, kids = self._levels, self._kids
        n = len(levels)
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
        nodes = frontiers[depth]
        for depth in range(depth, n):
            if not all(map(kids.__contains__, nodes)):
                self._expand(depth, nodes)
            select = levels[depth][2][mask >> 3 * (n - 1 - depth) & ANY]
            nodes = [b + j for b, ix in map(kids.__getitem__, nodes) for j in select[ix]]
            frontiers[depth + 1] = nodes
            if not nodes:
                frontiers[depth + 2 :] = [nodes] * (n - depth - 1)
                break
        return nodes

    def roots(self, value: Truth, letter: int) -> list[int]:
        """Initial states of the automaton for `value` with pattern `letter`."""
        idx, wanted = _initial_mark(self.closure, value)
        at = slot(len(self.closure.bases), idx)
        return self.walk(self._pins[letter] & ~((ANY ^ 1 << wanted) << at))

    def targets(self, q: int, letter: int) -> list[int]:
        """Successors of state q with pattern `letter`."""
        return self.walk(self.keys[q] & self._pins[letter])

    def labels(self) -> list[str]:
        """`format_state` of every leaf, in lexicographic order, each
        made once from its parent's text and its own member's text.  The
        trie must be fully grown, as a walk that allows every mark leaves
        it."""
        nodes, texts, kids = [0], [""], self._kids
        levels = zip(self._levels, self.closure.base_texts, self.closure.negated_texts)
        for (_, _, select, suffixes, *_), pos, neg in levels:
            member = ("", ", " + pos, ", " + neg)
            pieces = [[member[m] for (m,) in row] for row in suffixes]
            children = list(map(kids.__getitem__, nodes))
            texts = [text + piece for text, (_, ix) in zip(texts, children) for piece in pieces[ix]]
            nodes = [b + j for b, ix in children for j in select[ANY][ix]]
        return ["{" + text[2:] + "}" if text else "∅" for text in texts]


def _pin_free_family(closure: Closure) -> LazyFamily:
    """The one pin-free `LazyFamily` of `closure` that
    `enumerate_elementary` and `acceptance_sets` read, so that calls
    over one closure grow one trie.  It is kept on the closure and
    lives as long as the closure does.  (A weak-keyed table would keep
    every closure alive instead, since the family refers to its
    closure.)"""
    family = getattr(closure, "_pin_free_family", None)
    if family is None:
        family = closure._pin_free_family = LazyFamily(closure, [None])
    return family


def _state_id(family: LazyFamily, vec: Sequence[int]) -> int:
    """`vec`'s state id: the one leaf a walk of its exact mask yields."""
    well_formed = len(vec) == len(family.closure.bases) and set(vec) <= set(MARKS)
    found = family.walk(pack([1 << m for m in vec])) if well_formed else ()
    if not found:
        raise ValueError(f"{tuple(vec)!r} is not an elementary set of the closure")
    return found[0]


def _sets_of(marks: Sequence[int], all_marks: int) -> tuple[frozenset[int], ...]:
    """Per bit k of `all_marks`, the indices of the `marks` with bit k."""
    return tuple(
        frozenset(compress(range(len(marks)), map((1 << k).__and__, marks)))
        for k in range(all_marks.bit_length())
    )


def enumerate_elementary(
    closure: Closure, cap: int = DEFAULT_CANDIDATE_CAP
) -> list[StateVec]:
    """All elementary sets of the closure, in lexicographic order: the
    leaves of one walk that allows every mark.

    Raises StateSpaceLimitError when 3^(number of bases) exceeds `cap`.
    """
    check_candidate_cap(closure, cap)
    family = _pin_free_family(closure)
    return list(map(family.vecs.__getitem__, family.walk(family._link_bits)))


def acceptance_sets(
    states: Sequence[StateVec], closure: Closure
) -> list[frozenset[int]]:
    """One acceptance set per until base, in closure order, then the
    full state set.  Raises ValueError on a vector that is not an
    elementary set of the closure."""
    family = _pin_free_family(closure)
    marks = [family.marks[_state_id(family, vec)] for vec in states]
    return list(_sets_of(marks, family.all_marks))


def _read_in_full(
    psi: Formula, alphabet: Sequence[str], cap: int, values: Sequence[Truth]
) -> dict[Truth, Gnba]:
    """The automata of `psi` for `values`: a `LazyFamily` read in full
    through one letter that pins no atom.  Its walk lists the leaves in
    lexicographic order, and each state's id is its place there."""
    alphabet = tuple(alphabet)
    closure = checked_closure(psi, alphabet, cap)
    family = LazyFamily(closure, [None])
    leaves = family.walk(family._link_bits)
    number = dict(zip(leaves, range(len(leaves))))
    states = tuple(map(family.vecs.__getitem__, leaves))
    keys = list(map(family.keys.__getitem__, leaves))
    # One Letter per distinct pattern key, the key bits above the marks.
    shift = family._link_bits.bit_length() + family.all_marks.bit_length()
    pattern_keys = list(map(int.__rshift__, keys, repeat(shift)))
    letters = {
        key: state_pattern(vec, closure) for key, vec in dict(zip(pattern_keys, states)).items()
    }
    patterns = tuple(map(letters.__getitem__, pattern_keys))
    # The pinless letter allows every mark, so a state's linkage mask is
    # the whole walk: one successor tuple per distinct mask.
    links = list(map(family._link_bits.__and__, keys))
    by_link = {
        link: tuple(map(number.__getitem__, family.walk(link))) for link in sorted(set(links))
    }
    succ = tuple(map(by_link.__getitem__, links))
    marks = tuple(map(family.marks.__getitem__, leaves))
    labels = tuple(family.labels())
    return {
        value: Gnba(
            closure=closure,
            alphabet=alphabet,
            states=states,
            initial=frozenset(map(number.__getitem__, family.roots(value, 0))),
            patterns=patterns,
            succ=succ,
            marks=marks,
            labels=labels,
        )
        for value in values
    }


def build_automaton(
    psi: Formula,
    alphabet: Sequence[str],
    value: Truth,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> Gnba:
    """Build the generalized automaton accepting exactly the words that
    give `psi` the truth value `value`.

    `psi` must be a canonical core formula whose atoms all appear in
    `alphabet`.  Raises UnknownAtomError otherwise, and
    StateSpaceLimitError when the closure is too large for `cap`.
    """
    return _read_in_full(psi, alphabet, cap, (value,))[value]


def build_family(
    psi: Formula, alphabet: Sequence[str], cap: int = DEFAULT_CANDIDATE_CAP
) -> dict[Truth, Gnba]:
    """All three automata of a formula, sharing states and successor lists."""
    return _read_in_full(psi, alphabet, cap, tuple(Truth))


@dataclass(frozen=True)
class Nba:
    """Ordinary Buchi automaton produced by the counter construction.

    State k*gid + (counter-1) is the pair (gnba state gid, counter).
    """

    closure: Closure
    alphabet: tuple[str, ...]
    counters: int
    states: tuple[tuple[int, int], ...]
    initial: frozenset[int]
    patterns: tuple[Letter, ...]
    succ: tuple[tuple[int, ...], ...]
    accepting: frozenset[int]

    #: The bit of the one acceptance set, so that code written for
    #: generalized acceptance reads an Nba too.
    all_marks = 1

    #: As `Gnba.pattern_index`.
    pattern_index = cached_property(PatternIndex)

    @cached_property
    def marks(self) -> tuple[int, ...]:
        """Per state, 1 if it is accepting and 0 if not."""
        return tuple(int(q in self.accepting) for q in range(len(self.states)))


def degeneralize(g: Gnba) -> Nba:
    """Counter construction: track which acceptance set is owed next.

    The counter advances exactly when leaving a state of the currently
    owed set; accepting states are those of the first set at counter 1.
    The accepted language is unchanged.
    """
    k = g.all_marks.bit_length()
    states = tuple(
        (gid, counter) for gid in range(len(g.states)) for counter in range(1, k + 1)
    )
    patterns = tuple(g.patterns[gid] for gid, _ in states)
    succ = []
    for gid, counter in states:
        nxt = counter % k + 1 if g.marks[gid] >> counter - 1 & 1 else counter
        succ.append(tuple(tgt * k + (nxt - 1) for tgt in g.succ[gid]))
    initial = frozenset(gid * k for gid in g.initial)
    accepting = frozenset(gid * k for gid, mask in enumerate(g.marks) if mask & 1)
    return Nba(
        closure=g.closure,
        alphabet=g.alphabet,
        counters=k,
        states=states,
        initial=initial,
        patterns=patterns,
        succ=tuple(succ),
        accepting=accepting,
    )
