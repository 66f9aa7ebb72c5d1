"""Construction of the three-valued Buchi automaton for a core formula.

For a formula and a truth value, the generalized automaton's states are
the elementary sets of the formula's closure; the chosen truth value
selects the initial states and nothing else.  Transitions are guarded
by the state's own literal pattern: a state can only read letters that
agree with it on the atoms the closure mentions, while atoms outside
the closure are unconstrained.

One engine, `LazyFamily`, builds states and successor lists when they
are asked for: `check_model` reads it letter by letter, and
`build_family` and `build_automaton` read it in full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import compress, product, repeat
from typing import Optional, Sequence

from .elementary import (
    ABSENT,
    ANY,
    DEFAULT_CANDIDATE_CAP,
    MARKS,
    NEG,
    POS,
    StateVec,
    Tables,
    check_candidate_cap,
    pack,
    signed,
    slot,
)
from .letters import Letter, UnknownAtomError, restrict_letter
from .syntax import Closure, Formula, atoms_of, closure_of
from .truth import Truth


def state_pattern(vec: Sequence[int], closure: Closure) -> Letter:
    """The literal pattern of a state: its positive and negated atoms."""
    return frozenset(
        (name, vec[i] == POS) for i, name in closure.atom_coords if vec[i] != ABSENT
    )


# The linkage and acceptance rules, over the marks of an until base u
# and of its operands as referenced.  The key table below is read from them.


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


@cache
def _until_key_table(lpos: bool, rpos: bool) -> tuple[int, ...]:
    """Per index 3 * (3 * l + r) + u of an until level's key constants
    (see `_level_keys`), the bit set `_until_links` allows the
    successor's u, plus 8 if `_fulfils` holds."""
    return tuple(
        sum(1 << x for x in MARKS if _until_links(u, signed(l, lpos), signed(r, rpos), x))
        + 8 * _fulfils(u, signed(r, rpos))
        for l, r, u in product(MARKS, repeat=3)
    )


def _level_keys(closure: Closure) -> tuple[list[Optional[list[int]]], int]:
    """The key constants of a `Tables` trie whose leaf keys hold, in one
    int, a state's linkage mask, acceptance mask and pattern.

    The low 3n bits of a leaf's key are the marks the linkage lets a
    successor give each coordinate, packed as by `pack`; the next bits
    its acceptance mask, bit k for set k of `acceptance_sets`; and 3
    bits per atom coordinate above them the atom's mark as one bit.
    Each part is read once per (level, mark, operand marks) instead of
    once per state: an `X` base sets its operand's successor marks, an
    until base its own successor marks and its acceptance bit, and an
    atom its pattern bits.  Returns the constants per level (None where
    a level keeps every key) and the root key.
    """
    n = len(closure.bases)
    pattern_at = 3 * n + len(closure.untils) + 1
    root = (1 << pattern_at + 3 * len(closure.atom_coords)) - 1
    consts: list[Optional[list[int]]] = [None] * n
    for i, (j, positive) in closure.nexts:
        at = slot(n, j)
        consts[i] = [root ^ ANY << at | 1 << signed(m, positive) << at for m in MARKS]
    for a, (i, _name) in enumerate(closure.atom_coords):
        at = pattern_at + 3 * a
        consts[i] = [root ^ ANY << at | 1 << m << at for m in MARKS]
    for k, (i, (_l, lpos), (_r, rpos)) in enumerate(closure.untils):
        at = slot(n, i)
        fulfilled = 1 << 3 * n + k
        # The constant for each entry of `_until_key_table`.
        made = [root ^ (ANY ^ b) << at ^ fulfilled for b in range(ANY + 1)]
        made += [keep | fulfilled for keep in made]
        consts[i] = list(map(made.__getitem__, _until_key_table(lpos, rpos)))
    return consts, root


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

    def transitions(self, sid: int, letter: Letter) -> tuple[int, ...]:
        """Successor ids for a state under a letter (empty on guard mismatch)."""
        if restrict_letter(letter, self.closure.atoms) != self.patterns[sid]:
            return ()
        return self.succ[sid]

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


def checked_closure(psi: Formula, alphabet: tuple[str, ...], cap: int) -> Closure:
    """The closure of `psi`, after the checks every construction makes
    before it enumerates a state.

    Raises ValueError when the alphabet repeats an atom,
    UnknownAtomError when it lacks an atom of `psi`, and
    StateSpaceLimitError when 3^(closure size) exceeds `cap`.
    """
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("alphabet contains duplicate atoms")
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
    `targets(q, l)` the successors of q whose pattern is l, in the same
    relative order as the eager automaton.  A letter given as None pins
    no atom, so it reads the whole family.  State ids are handed out on
    discovery; `marks[q]` is q's acceptance bitmask, bit k for set k of
    `acceptance_sets`.

    States are the leaves of one `Tables` trie, walked with the marks
    allowed per coordinate packed into an int.  Every trie node carries
    a key built from its parent's (see `_level_keys`), so a
    state's linkage mask, marks and pattern are read off its leaf, not
    recomputed per state.  Successor lists are shared by the packed
    mask of the walk: the enumeration reads nothing of the source state
    but that mask, so sources with equal masks have equal successor
    lists, in one order.
    """

    def __init__(self, closure: Closure, letters: Sequence[Optional[Letter]]):
        self.closure = closure
        n = len(closure.bases)
        self._tables = Tables(closure, *_level_keys(closure))
        self._link_bits = (1 << 3 * n) - 1
        # Per letter, the packed marks it allows: its own mark at each
        # atom coordinate, every mark elsewhere.  Per atom, the bits to
        # clear for each of its marks.
        clears = [
            (name, [(ANY ^ 1 << m) << slot(n, i) for m in MARKS]) for i, name in closure.atom_coords
        ]
        self._pins: list[int] = []
        for letter in letters:
            pins = self._link_bits
            if letter is not None:
                value = dict(letter)
                for name, clear in clears:
                    pins ^= clear[_LETTER_MARKS[value.get(name)]]
            self._pins.append(pins)
        self.nletters = len(letters)
        self.marks: list[int] = []
        self.all_marks = (1 << (len(closure.untils) + 1)) - 1
        # The leaf node of each state id, and the state id of each leaf
        # reached so far.
        self._leaves: list[int] = []
        self._state_of: dict[int, int] = {}
        # Per state, its linkage mask, one int object per distinct mask.
        self._links: list[int] = []
        self._distinct: dict[int, int] = {}
        self._targets: dict[int, tuple[int, ...]] = {}

    def _ids_of(self, allowed: int) -> tuple[int, ...]:
        """Ids of the states whose marks `allowed` admits (packed as by
        `pack`), in enumeration order."""
        leaves = self._tables.walk(allowed)
        get = self._state_of.get
        out = tuple(map(get, leaves))
        if None in out:
            new = [leaf for leaf, sid in zip(leaves, out) if sid is None]
            first = len(self._leaves)
            self._state_of.update(zip(new, range(first, first + len(new))))
            self._leaves += new
            keys = list(map(self._tables.keys.__getitem__, new))
            shift, marks = self._link_bits.bit_length(), self.all_marks
            self.marks += [key >> shift & marks for key in keys]
            links = list(map(self._link_bits.__and__, keys))
            self._links += map(self._distinct.setdefault, links, links)
            out = tuple(map(get, leaves))
        return out

    def roots(self, value: Truth, letter: int) -> tuple[int, ...]:
        """Initial states of the automaton for `value` with pattern `letter`."""
        idx, wanted = _initial_mark(self.closure, value)
        at = slot(len(self.closure.bases), idx)
        held = ~(ANY << at) | 1 << wanted << at
        return self._ids_of(self._pins[letter] & held)

    def targets(self, q: int, letter: int) -> tuple[int, ...]:
        """Successors of state q with pattern `letter`."""
        allowed = self._links[q] & self._pins[letter]
        found = self._targets.get(allowed)
        if found is None:
            found = self._targets[allowed] = self._ids_of(allowed)
        return found


def _pin_free_family(closure: Closure) -> LazyFamily:
    """The one pin-free `LazyFamily` of `closure` that `successors` and
    `acceptance_sets` read, so that calls over many states of one
    closure grow one trie.  It is kept on the closure and lives as long
    as the closure does.  (A weak-keyed table would keep every closure
    alive instead, since the family refers to its closure.)"""
    family = getattr(closure, "_pin_free_family", None)
    if family is None:
        family = closure._pin_free_family = LazyFamily(closure, [None])
    return family


def _state_id(family: LazyFamily, vec: Sequence[int]) -> int:
    """`vec`'s state id: the one leaf a walk of its exact mask yields."""
    well_formed = len(vec) == len(family.closure.bases) and set(vec) <= set(MARKS)
    found = family._ids_of(pack([1 << m for m in vec])) if well_formed else ()
    if not found:
        raise ValueError(f"{tuple(vec)!r} is not an elementary set of the closure")
    return found[0]


def successors(vec: StateVec, letter: Letter, closure: Closure) -> list[StateVec]:
    """States reachable from `vec` when reading `letter`.

    Empty unless the letter, restricted to the closure's atoms, equals
    the state's own literal pattern; otherwise all elementary states
    whose marks satisfy the next/until linkage with `vec`.  Raises
    ValueError when `vec` is not an elementary set.
    """
    family = _pin_free_family(closure)
    q = _state_id(family, vec)
    if restrict_letter(letter, closure.atoms) != state_pattern(vec, closure):
        return []
    return [family._tables.vecs[family._leaves[t]] for t in family.targets(q, 0)]


def _sets_of(marks: Sequence[int], all_marks: int) -> tuple[frozenset[int], ...]:
    """Per bit k of `all_marks`, the indices of the `marks` with bit k."""
    return tuple(
        frozenset(compress(range(len(marks)), map((1 << k).__and__, marks)))
        for k in range(all_marks.bit_length())
    )


def acceptance_sets(
    states: Sequence[StateVec], closure: Closure
) -> list[frozenset[int]]:
    """One acceptance set per until base, in closure order, then the
    full state set.  Raises ValueError as `successors` does."""
    family = _pin_free_family(closure)
    marks = [family.marks[_state_id(family, vec)] for vec in states]
    return list(_sets_of(marks, family.all_marks))


def _read_in_full(
    psi: Formula, alphabet: Sequence[str], cap: int, values: Sequence[Truth]
) -> dict[Truth, Gnba]:
    """The automata of `psi` for `values`: a `LazyFamily` read in full
    through one letter that pins no atom.  Reading every state first
    numbers the states in lexicographic order."""
    alphabet = tuple(alphabet)
    closure = checked_closure(psi, alphabet, cap)
    family = LazyFamily(closure, [None])
    family._ids_of(family._pins[0])
    tables = family._tables
    states = tuple(map(tables.vecs.__getitem__, family._leaves))
    # One Letter per distinct pattern key, the key bits above the marks.
    shift = family._link_bits.bit_length() + family.all_marks.bit_length()
    pattern_keys = list(
        map(int.__rshift__, map(tables.keys.__getitem__, family._leaves), repeat(shift))
    )
    letters = {
        key: state_pattern(vec, closure) for key, vec in dict(zip(pattern_keys, states)).items()
    }
    patterns = tuple(map(letters.__getitem__, pattern_keys))
    # The pinless letter allows every mark, so a state's linkage mask is
    # the whole walk: one successor tuple per distinct mask.
    get = family._state_of.__getitem__
    links = sorted(family._distinct)
    by_link = {link: tuple(map(get, tables.walk(link))) for link in links}
    succ = tuple(map(by_link.__getitem__, family._links))
    marks = tuple(family.marks)
    labels = tuple(tables.labels(closure))
    return {
        value: Gnba(
            closure=closure,
            alphabet=alphabet,
            states=states,
            initial=frozenset(family.roots(value, 0)),
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
    """All three automata of a formula, sharing states and transitions."""
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
