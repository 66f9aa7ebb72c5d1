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
from itertools import combinations
from typing import Optional, Sequence

from .elementary import (
    ABSENT,
    DEFAULT_CANDIDATE_CAP,
    NEG,
    POS,
    StateVec,
    check_candidate_cap,
    enumerate_states,
    format_state,
    member,
    member_negated,
)
from .letters import Letter, UnknownAtomError, restrict_letter
from .syntax import Closure, Formula, atoms_of, closure_of
from .truth import Truth

_ALL_MARKS = frozenset((ABSENT, POS, NEG))
#: Every set of marks, once, so that linkage masks share their entries.
_MARK_SETS = {
    s: s for r in range(4) for s in map(frozenset, combinations(_ALL_MARKS, r))
}


def state_pattern(vec: Sequence[int], closure: Closure) -> Letter:
    """The literal pattern of a state: its positive and negated atoms."""
    literals = []
    for i, name in closure.atom_coords:
        if vec[i] == POS:
            literals.append((name, True))
        elif vec[i] == NEG:
            literals.append((name, False))
    return frozenset(literals)


def _successor_allowed(
    vec: Sequence[int], closure: Closure
) -> Optional[list[Optional[frozenset[int]]]]:
    """Per-coordinate marks a successor state may take, or None if no
    successor can satisfy the next/until linkage."""
    allowed: list[Optional[frozenset[int]]] = [None] * len(closure.bases)

    def restrict(i: int, marks: frozenset[int]) -> bool:
        current = allowed[i]
        marks = _MARK_SETS[marks if current is None else (current & marks)]
        allowed[i] = marks
        return bool(marks)

    for i, (j, positive) in closure.nexts:
        value = vec[i]
        if value == POS:
            required = POS if positive else NEG
        elif value == NEG:
            required = NEG if positive else POS
        else:
            required = ABSENT
        if not restrict(j, frozenset((required,))):
            return None

    for i, lref, rref in closure.untils:
        value = vec[i]
        m1, m2 = member(vec, lref), member(vec, rref)
        n1, n2 = member_negated(vec, lref), member_negated(vec, rref)
        marks = _ALL_MARKS
        if value == POS:
            if not m2:
                if not m1:
                    return None
                marks = marks & {POS}
        else:
            if m2:
                return None
            if m1:
                marks = marks - {POS}
        if value == NEG:
            if not n2:
                return None
            if not n1:
                marks = marks & {NEG}
        else:
            if n1 and n2:
                return None
            if n2:
                marks = marks - {NEG}
        if not restrict(i, marks):
            return None

    return allowed


def successors(vec: StateVec, letter: Letter, closure: Closure) -> list[StateVec]:
    """States reachable from `vec` when reading `letter`.

    Empty unless the letter, restricted to the closure's atoms, equals
    the state's own literal pattern; otherwise all elementary states
    whose marks satisfy the next/until linkage with `vec`.
    """
    if restrict_letter(letter, closure.atoms) != state_pattern(vec, closure):
        return []
    allowed = _successor_allowed(vec, closure)
    if allowed is None:
        return []
    return enumerate_states(closure, allowed)


def _fulfils(vec: Sequence[int], i: int, rref: tuple[int, bool]) -> bool:
    """Is `vec` in the acceptance set of until base i, whose right
    operand is `rref`?  It is unless the until is pending (present
    without its right operand) or its right operand is refuted while
    the until is not."""
    return (vec[i] != POS or member(vec, rref)) and (
        not member_negated(vec, rref) or vec[i] == NEG
    )


def acceptance_sets(
    states: Sequence[StateVec], closure: Closure
) -> list[frozenset[int]]:
    """One acceptance set per until base, in closure order, then the
    full state set."""
    out = []
    for i, _lref, rref in closure.untils:
        members = frozenset(
            sid for sid, vec in enumerate(states) if _fulfils(vec, i, rref)
        )
        out.append(members)
    out.append(frozenset(range(len(states))))
    return out


def _acceptance_mask(vec: StateVec, closure: Closure) -> int:
    """The sets of `acceptance_sets` that hold `vec`, bit k for set k."""
    mask = 1 << len(closure.untils)
    for k, (i, _lref, rref) in enumerate(closure.untils):
        if _fulfils(vec, i, rref):
            mask |= 1 << k
    return mask


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
    if value is Truth.TRUE:
        wanted = POS if positive else NEG
    elif value is Truth.FALSE:
        wanted = NEG if positive else POS
    else:
        wanted = ABSENT
    return idx, wanted


def _initial_ids(
    states: Sequence[StateVec], closure: Closure, value: Truth
) -> frozenset[int]:
    idx, wanted = _initial_mark(closure, value)
    return frozenset(sid for sid, vec in enumerate(states) if vec[idx] == wanted)


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


#: Marks each coordinate may take, None where any mark may (see
#: `enumerate_states`); a `Mask` is the same, frozen.
Allowed = list[Optional[frozenset[int]]]
Mask = tuple[Optional[frozenset[int]], ...]

_ONLY = {mark: frozenset((mark,)) for mark in (ABSENT, POS, NEG)}


def _pin(allowed: Allowed | Mask, pins: Sequence[tuple[int, int]]) -> Optional[Allowed]:
    """`allowed` with each coordinate of `pins` held to its mark, or None
    when some coordinate may not take that mark."""
    out = list(allowed)
    for i, mark in pins:
        current = out[i]
        if current is not None and mark not in current:
            return None
        out[i] = _ONLY[mark]
    return out


class LazyFamily:
    """The three automata of `build_family`, built only where a product
    with a fixed list of letters reads them, in the manner of the
    on-the-fly tableau (Gerth, Peled, Vardi and Wolper, PSTV 1995).

    A product pairs an automaton state only with a letter equal to its
    literal pattern.  Holding every atom coordinate to the marks of
    letter l makes `enumerate_states` yield exactly the states whose
    pattern is l, in their lexicographic order, which is the order
    `build_family` numbers them in.  So `roots(value, l)` lists the
    initial states of the automaton for `value` whose pattern is l, and
    `targets(q, l)` the successors of q whose pattern is l, in the same
    relative order as the eager automaton.  A letter given as None pins
    no atom, so it reads the whole family.  State ids are handed out on
    discovery; `marks[q]` is q's acceptance bitmask, bit k for set k of
    `acceptance_sets`, computed once.

    Successor lists are shared by (linkage mask, letter).  This is sound
    because `enumerate_states(closure, allowed)` reads nothing of the
    source state but the mask `_successor_allowed` derives from it, so
    sources with equal masks have equal successor lists, in one order.
    """

    def __init__(self, closure: Closure, letters: Sequence[Optional[Letter]]):
        self.closure = closure
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
        out = []
        closure = self.closure
        for vec in enumerate_states(closure, allowed):
            sid = self._ids.get(vec)
            if sid is None:
                sid = self._ids[vec] = len(self.marks)
                successor = _successor_allowed(vec, closure)
                mask = None if successor is None else tuple(successor)
                mask_id = self._mask_ids.get(mask)
                if mask_id is None:
                    mask_id = self._mask_ids[mask] = len(self._masks)
                    self._masks.append(mask)
                self._mask_of.append(mask_id)
                self.marks.append(_acceptance_mask(vec, closure))
            out.append(sid)
        return tuple(out)

    def roots(self, value: Truth, letter: int) -> tuple[int, ...]:
        """Initial states of the automaton for `value` with pattern `letter`."""
        idx, wanted = _initial_mark(self.closure, value)
        allowed: Allowed = [None] * len(self.closure.bases)
        allowed[idx] = _ONLY[wanted]
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
    family._ids_of([None] * len(closure.bases))
    states = tuple(family._ids)
    marks = family.marks
    patterns = tuple(state_pattern(vec, closure) for vec in states)
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
            initial=_initial_ids(states, closure, value),
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
