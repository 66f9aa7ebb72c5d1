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

from dataclasses import dataclass
from functools import cache
from itertools import islice, product, repeat
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
    enumerate_states,
    format_state,
    signed,
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
# and of its operands as referenced.  The tables below are read from them.


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
def _until_link_table(lpos: bool, rpos: bool) -> tuple[int, ...]:
    """Bit sets of the marks `_until_links` allows the successor's u,
    indexed by 9 * (u's mark) + 3 * (left operand's base mark) + (right's)."""
    return tuple(
        sum(1 << x for x in MARKS if _until_links(u, signed(l, lpos), signed(r, rpos), x))
        for u, l, r in product(MARKS, repeat=3)
    )


class _Rules:
    """A closure's linkage and acceptance rules as flat tables."""

    __slots__ = ("nexts", "untils", "accept", "full")

    def __init__(self, closure: Closure):
        #: Per X base i with operand j: j's mark bit per mark of i.
        self.nexts = tuple(
            (i, j, tuple(1 << signed(m, positive) for m in MARKS))
            for i, (j, positive) in closure.nexts
        )
        self.untils = tuple(
            (i, l, r, _until_link_table(lpos, rpos))
            for i, (l, lpos), (r, rpos) in closure.untils
        )
        #: Per until base i, the bit of its set where `_fulfils` holds,
        #: indexed by 3 * (i's mark) + (right operand's base mark).
        self.accept = tuple(
            (i, r, tuple(_fulfils(u, signed(m, rpos)) << k for u in MARKS for m in MARKS))
            for k, (i, _l, (r, rpos)) in enumerate(closure.untils)
        )
        self.full = 1 << len(closure.untils)

    def successor_allowed(self, vec: StateVec) -> Optional[tuple[int, ...]]:
        """Per-coordinate bit sets of the marks a successor state may take
        (see `Tables.states`), or None if no successor can satisfy the
        next/until linkage."""
        allowed = [ANY] * len(vec)
        for i, j, bits in self.nexts:
            allowed[j] &= bits[vec[i]]
        for i, l, r, table in self.untils:
            allowed[i] &= table[9 * vec[i] + 3 * vec[l] + vec[r]]
        return None if 0 in allowed else tuple(allowed)

    def acceptance_mask(self, vec: StateVec) -> int:
        """The sets of `acceptance_sets` that hold `vec`, bit k for set k."""
        mask = self.full
        for i, r, table in self.accept:
            mask |= table[3 * vec[i] + vec[r]]
        return mask


def successors(vec: StateVec, letter: Letter, closure: Closure) -> list[StateVec]:
    """States reachable from `vec` when reading `letter`.

    Empty unless the letter, restricted to the closure's atoms, equals
    the state's own literal pattern; otherwise all elementary states
    whose marks satisfy the next/until linkage with `vec`.
    """
    if restrict_letter(letter, closure.atoms) != state_pattern(vec, closure):
        return []
    allowed = _Rules(closure).successor_allowed(vec)
    if allowed is None:
        return []
    return enumerate_states(closure, allowed)


def acceptance_sets(
    states: Sequence[StateVec], closure: Closure
) -> list[frozenset[int]]:
    """One acceptance set per until base, in closure order, then the
    full state set."""
    rules = _Rules(closure)
    masks = [rules.acceptance_mask(vec) for vec in states]
    return [
        frozenset(q for q, mask in enumerate(masks) if mask >> k & 1)
        for k in range(len(closure.untils) + 1)
    ]


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
    acceptance: tuple[frozenset[int], ...]

    def transitions(self, sid: int, letter: Letter) -> tuple[int, ...]:
        """Successor ids for a state under a letter (empty on guard mismatch)."""
        if restrict_letter(letter, self.closure.atoms) != self.patterns[sid]:
            return ()
        return self.succ[sid]

    def state_label(self, sid: int) -> str:
        return format_state(self.states[sid], self.closure)


def _initial_mark(closure: Closure, value: Truth) -> tuple[int, int]:
    """The formula's coordinate and the mark the initial states of the
    automaton for `value` give it."""
    idx, positive = closure.ref(closure.formula)
    mark = {Truth.TRUE: POS, Truth.FALSE: NEG, Truth.UNKNOWN: ABSENT}[value]
    return idx, signed(mark, positive)


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


#: Bit sets of the marks each coordinate may take (see `Tables.states`);
#: a `Mask` is the same, frozen.
Allowed = list[int]
Mask = tuple[int, ...]


def _pin(allowed: Allowed | Mask, pins: Sequence[tuple[int, int]]) -> Optional[Allowed]:
    """`allowed` with each coordinate of `pins` held to its mark, or None
    when some coordinate may not take that mark."""
    out = list(allowed)
    for i, mark in pins:
        out[i] &= 1 << mark
        if not out[i]:
            return None
    return out


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
    `acceptance_sets`, computed once.

    Successor lists are shared by (linkage mask, letter).  This is sound
    because the enumeration reads nothing of the source state but the
    mask `successor_allowed` derives from it, so sources with equal
    masks have equal successor lists, in one order.
    """

    def __init__(self, closure: Closure, letters: Sequence[Optional[Letter]]):
        self.closure = closure
        self._tables = Tables(closure)
        self._rules = _Rules(closure)
        # The (atom coordinate, mark) pairs of each letter.
        self._pins: list[list[tuple[int, int]]] = []
        for letter in letters:
            value = dict(letter or ())
            coords = () if letter is None else closure.atom_coords
            self._pins.append(
                [
                    (i, ABSENT if name not in value else POS if value[name] else NEG)
                    for i, name in coords
                ]
            )
        self.nletters = len(letters)
        self.marks: list[int] = []
        self.all_marks = (1 << (len(closure.untils) + 1)) - 1
        self._ids: dict[StateVec, int] = {}
        self._mask_of: list[int] = []
        # Each distinct linkage mask is stored once, as a key of
        # `_mask_ids` and as the entry of `_masks` at its id.
        self._mask_ids: dict[Optional[Mask], int] = {}
        self._masks: list[Optional[Mask]] = []
        self._targets: dict[int, tuple[int, ...]] = {}

    def _ids_of(self, allowed: Optional[Allowed]) -> tuple[int, ...]:
        """Ids of the states `allowed` admits, in enumeration order."""
        if allowed is None:
            return ()
        vecs = self._tables.states(allowed)
        get = self._ids.get
        out = tuple(map(get, vecs))
        if None in out:
            new = [vec for vec, sid in zip(vecs, out) if sid is None]
            first = len(self.marks)
            self._ids.update(zip(new, range(first, first + len(new))))
            self.marks += map(self._rules.acceptance_mask, new)
            mask_ids = self._mask_ids
            self._mask_of += [
                mask_ids.setdefault(mask, len(mask_ids))
                for mask in map(self._rules.successor_allowed, new)
            ]
            self._masks += islice(mask_ids, len(self._masks), None)
            out = tuple(map(get, vecs))
        return out

    def roots(self, value: Truth, letter: int) -> tuple[int, ...]:
        """Initial states of the automaton for `value` with pattern `letter`."""
        idx, wanted = _initial_mark(self.closure, value)
        allowed = [ANY] * len(self.closure.bases)
        allowed[idx] = 1 << wanted
        return self._ids_of(_pin(allowed, self._pins[letter]))

    def targets(self, q: int, letter: int) -> tuple[int, ...]:
        """Successors of state q with pattern `letter`."""
        mask_id = self._mask_of[q]
        key = mask_id * self.nletters + letter
        found = self._targets.get(key)
        if found is None:
            allowed = self._masks[mask_id]
            if allowed is not None:
                allowed = _pin(allowed, self._pins[letter])
            found = self._targets[key] = self._ids_of(allowed)
        return found


def _read_in_full(
    psi: Formula, alphabet: Sequence[str], cap: int, values: Sequence[Truth]
) -> dict[Truth, Gnba]:
    """The automata of `psi` for `values`: a `LazyFamily` read in full
    through one letter that pins no atom.  Reading every state first
    numbers the states in lexicographic order."""
    alphabet = tuple(alphabet)
    closure = checked_closure(psi, alphabet, cap)
    family = LazyFamily(closure, [None])
    family._ids_of([ANY] * len(closure.bases))
    states = tuple(family._ids)
    marks = family.marks
    # One object per distinct pattern, so the collector tracks fewer.
    distinct: dict[Letter, Letter] = {}
    patterns = tuple(
        distinct.setdefault(p, p) for p in map(state_pattern, states, repeat(closure))
    )
    succ = tuple(family.targets(q, 0) for q in range(len(states)))
    acceptance = tuple(
        frozenset(q for q, mark in enumerate(marks) if mark >> k & 1)
        for k in range(len(closure.untils) + 1)
    )
    return {
        value: Gnba(
            closure=closure,
            alphabet=alphabet,
            states=states,
            initial=frozenset(family.roots(value, 0)),
            patterns=patterns,
            succ=succ,
            acceptance=acceptance,
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

    @property
    def acceptance(self) -> tuple[frozenset[int], ...]:
        """The accepting states as the one acceptance set, so code written
        for generalized acceptance reads an Nba too."""
        return (self.accepting,)


def degeneralize(g: Gnba) -> Nba:
    """Counter construction: track which acceptance set is owed next.

    The counter advances exactly when leaving a state of the currently
    owed set; accepting states are those of the first set at counter 1.
    The accepted language is unchanged.
    """
    k = len(g.acceptance)
    states = tuple(
        (gid, counter) for gid in range(len(g.states)) for counter in range(1, k + 1)
    )
    patterns = tuple(g.patterns[gid] for gid, _ in states)
    succ = []
    for gid, counter in states:
        nxt = counter % k + 1 if gid in g.acceptance[counter - 1] else counter
        succ.append(tuple(tgt * k + (nxt - 1) for tgt in g.succ[gid]))
    initial = frozenset(gid * k for gid in g.initial)
    accepting = frozenset(gid * k for gid in g.acceptance[0])
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
