"""Three-valued model checking of transition models.

A model is a finite serial transition system whose states label each
atom true, false, or unknown.  The verdict for a formula is FALSE when
some path from the initial state falsifies it, otherwise UNDEF when
some path leaves it unknown, otherwise TRUE; falsity wins because a
single falsifying path settles the matter regardless of the others.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Mapping, Optional, Sequence, Union

from .elementary import DEFAULT_CANDIDATE_CAP
from .gnba import Gnba, LazyFamily, Nba, PatternIndex, checked_closure
from .letters import Letter, restrict_letter
from .search import accepting_cycle_reachable, first_accepting_lasso
from .semantics import LassoWord, eval_lasso, lasso
from .syntax import Formula, atoms_of, is_atom_name
from .truth import Truth

_VALUE_CODES = {"t": Truth.TRUE, "f": Truth.FALSE, "u": Truth.UNKNOWN}


class ModelFormatError(ValueError):
    """Malformed model document."""


@dataclass(frozen=True)
class TransitionModel:
    """Serial transition system with three-valued atom labels.

    `labels` may omit pairs; a missing (state, atom) entry reads as
    unknown.  Successor order follows edge declaration order, which
    fixes the search order for witness extraction.
    """

    states: tuple[str, ...]
    initial: str
    edges: tuple[tuple[str, str], ...]
    labels: Mapping[str, Mapping[str, Truth]]

    @cached_property
    def position(self) -> dict[str, int]:
        """Index of each state in `states`."""
        return {name: i for i, name in enumerate(self.states)}

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Successor indices of each state index, built once per model."""
        position = self.position
        out: list[list[int]] = [[] for _ in self.states]
        for src, dst in self.edges:
            out[position[src]].append(position[dst])
        return tuple(map(tuple, out))

    def successors(self, state: str) -> tuple[str, ...]:
        return tuple(self.states[i] for i in self.adjacency[self.position[state]])

    def label(self, state: str, atom: str) -> Truth:
        return self.labels.get(state, {}).get(atom, Truth.UNKNOWN)

    def label_atoms(self) -> frozenset[str]:
        names: set[str] = set()
        for per_state in self.labels.values():
            names |= set(per_state)
        return frozenset(names)


def letter_of(model: TransitionModel, state: str, alphabet: Sequence[str]) -> Letter:
    """The letter a model state emits: its true atoms positively, its
    false atoms negatively, unknown atoms omitted."""
    values = model.labels.get(state, {})
    literals = []
    for atom in alphabet:
        value = values.get(atom)
        if value is Truth.TRUE:
            literals.append((atom, True))
        elif value is Truth.FALSE:
            literals.append((atom, False))
    return frozenset(literals)


def parse_model(document: str) -> TransitionModel:
    """Parse the JSON model format.

    Top-level fields: "states" (list of names), "initial" (name),
    "edges" (list of [from, to] pairs), "labels" (state -> atom ->
    "t" | "f" | "u").  Unknown fields are rejected, the transition
    relation must be serial, and every referenced state must be
    declared.
    """
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ModelFormatError("invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise ModelFormatError("model document must be a JSON object")
    unknown = set(data) - {"states", "initial", "edges", "labels"}
    if unknown:
        raise ModelFormatError(f"unknown field {sorted(unknown)[0]!r}")
    for field in ("states", "initial", "edges"):
        if field not in data:
            raise ModelFormatError(f"missing field {field!r}")

    raw_states = data["states"]
    if not isinstance(raw_states, list) or not raw_states:
        raise ModelFormatError('"states" must be a non-empty list of names')
    states: list[str] = []
    known: set[str] = set()
    for name in raw_states:
        if not isinstance(name, str) or not name or any(c.isspace() for c in name) or ";" in name:
            raise ModelFormatError(f"bad state name {name!r}")
        if name in known:
            raise ModelFormatError(f"duplicate state {name!r}")
        known.add(name)
        states.append(name)

    initial = data["initial"]
    if not isinstance(initial, str) or initial not in known:
        raise ModelFormatError(f"unknown initial state {initial!r}")

    if not isinstance(data["edges"], list):
        raise ModelFormatError('"edges" must be a list of [from, to] pairs')
    edges: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for item in data["edges"]:
        if not isinstance(item, list) or len(item) != 2:
            raise ModelFormatError(f"bad edge {item!r}")
        src, dst = item
        for endpoint in (src, dst):
            if not isinstance(endpoint, str) or endpoint not in known:
                raise ModelFormatError(f"unknown state {endpoint!r} in edge")
        if (src, dst) not in seen:
            seen.add((src, dst))
            edges.append((src, dst))

    with_out = {src for src, _ in edges}
    for name in states:
        if name not in with_out:
            raise ModelFormatError(f"state {name!r} has no outgoing edge")

    labels: dict[str, dict[str, Truth]] = {}
    atom_names: set[str] = set()
    raw_labels = data.get("labels", {})
    if not isinstance(raw_labels, dict):
        raise ModelFormatError('"labels" must be an object')
    for name, per_state in raw_labels.items():
        if name not in known:
            raise ModelFormatError(f"labels for unknown state {name!r}")
        if not isinstance(per_state, dict):
            raise ModelFormatError(f"labels of {name!r} must be an object")
        entry: dict[str, Truth] = {}
        for atom, code in per_state.items():
            if atom not in atom_names:
                if not is_atom_name(atom):
                    raise ModelFormatError(f"bad atom name {atom!r}")
                atom_names.add(atom)
            if not isinstance(code, str) or code not in _VALUE_CODES:
                raise ModelFormatError(
                    f'bad value {code!r} for {name!r}.{atom!r}; use "t", "f" or "u"'
                )
            entry[atom] = _VALUE_CODES[code]
        labels[name] = entry

    return TransitionModel(tuple(states), initial, tuple(edges), labels)


Witness = tuple[tuple[str, ...], tuple[str, ...]]


def _letter_ids(letters: Iterable[Letter]) -> tuple[list[int], dict[Letter, int]]:
    """The id of each of `letters`, numbered in order of first
    appearance, and the id of each distinct letter."""
    ids: dict[Letter, int] = {}
    emitted = [ids.setdefault(letter, len(ids)) for letter in letters]
    return emitted, ids


def _pattern_ids(index: PatternIndex, letters: Sequence[Letter], atoms: Sequence[str]) -> list[int]:
    """The id under `index` of each of `letters` restricted to `atoms`.
    Each distinct letter is restricted and looked up once."""
    ids = dict.fromkeys(letters)
    for letter in ids:
        ids[letter] = index.letter_id(restrict_letter(letter, atoms))
    return list(map(ids.__getitem__, letters))


def _product(
    automaton: Union[PatternIndex, LazyFamily],
    roots: Sequence[int],
    emitted: Sequence[int],
    adjacency: Sequence[Sequence[int]],
    start: int,
):
    """The synchronous product of a letter-labelled graph with the automaton.

    Graph node s carries letter id `emitted[s]` and steps to
    `adjacency[s]`.  Product node q * n + s pairs automaton state q with
    graph node s, where n is the number of graph nodes, so the automaton
    may grow during the search.  The automaton is read through
    `targets(q, l)`, the successors of q whose pattern is letter l,
    asked once per (q, l), so a node is generated only when q's pattern
    equals the letter of s: any other node can never move.  `roots` are
    the automaton states paired with graph node `start`.  Returns
    `(roots, out_edges, marks, all_marks)`, the arguments of
    `accepting_cycle_reachable`, with one mark per acceptance set.
    """
    n = len(adjacency)
    nletters = automaton.nletters
    targets = automaton.targets
    state_marks = automaton.marks
    # `targets(q, l)` by q * nletters + l.
    live: dict[int, list[int]] = {}

    def out_edges(node: int) -> list[int]:
        q, s = divmod(node, n)
        out: list[int] = []
        for s2 in adjacency[s]:
            letter = emitted[s2]
            key = q * nletters + letter
            found = live.get(key)
            if found is None:
                found = live[key] = targets(q, letter)
            out += [q2 * n + s2 for q2 in found]
        return out

    return (
        [q * n + start for q in roots],
        out_edges,
        lambda node: state_marks[node // n],
        automaton.all_marks,
    )


def _model_witness(
    model: TransitionModel,
    emitted: Sequence[int],
    automaton: Union[PatternIndex, LazyFamily],
    initial: Sequence[int],
) -> Optional[Witness]:
    """The witness of `product_nonempty` for a model whose states carry
    letter ids `emitted`, from the automaton states `initial` paired
    with the model's initial state."""
    roots, out_edges, marks, all_marks = _product(
        automaton,
        initial,
        emitted,
        model.adjacency,
        model.position[model.initial],
    )
    if not accepting_cycle_reachable(roots, out_edges, marks, all_marks):
        return None

    # Counter product: node * k + c owes acceptance set c next.  Each
    # pair is expanded once for all its counter values.
    k = all_marks.bit_length()
    pair_edges = cache(out_edges)

    def counter_out_edges(node: int) -> list[int]:
        pair, owed = divmod(node, k)
        if marks(pair) >> owed & 1:
            owed = (owed + 1) % k
        return [target * k + owed for target in pair_edges(pair)]

    found = first_accepting_lasso(
        [root * k for root in roots],
        counter_out_edges,
        lambda node: node % k == 0 and marks(node // k) & 1 == 1,
    )
    if found is None:
        raise RuntimeError("internal error: non-empty product without a witness")
    stem, loop = found
    names = model.states
    n = len(names)
    return (
        tuple(names[node // k % n] for node in stem),
        tuple(names[node // k % n] for node in loop),
    )


def product_nonempty(
    model: TransitionModel, automaton: Union[Gnba, Nba]
) -> Optional[Witness]:
    """Search the synchronous product for an accepted word of the model.

    Returns a (stem, loop) lasso of model states whose induced word the
    automaton accepts, or None when the product language is empty.

    Emptiness is decided on the live-node product of `_product`, whose
    nodes pair a model state with an automaton state.  Only when it is
    non-empty is the witness taken, on the counter product (model state,
    automaton state, owed set): node for node the product with
    `degeneralize(automaton)`, in the same order, so both automata give
    the same witness.  That witness is the first accepting cycle node in
    breadth-first order over declaration order, reached by its
    breadth-first stem and closed by its shortest loop.
    """
    atoms = automaton.closure.atoms
    index = automaton.pattern_index
    emitted = _pattern_ids(index, [letter_of(model, s, atoms) for s in model.states], atoms)
    roots = index.roots(emitted[model.position[model.initial]])
    return _model_witness(model, emitted, index, roots)


def nba_accepts_lasso(automaton: Union[Gnba, Nba], word: LassoWord) -> bool:
    """Does some run of the automaton over the lasso word visit every
    acceptance set infinitely often?

    Decided on the same product as `product_nonempty`, with the word's
    positions as the graph (wrap-around at the end of the loop).
    """
    index = automaton.pattern_index
    emitted = _pattern_ids(index, word.letters, automaton.closure.atoms)
    # Position i steps to i + 1, the last position back to the loop start.
    positions = [(i,) for i in range(1, len(emitted))]
    positions.append((len(word.stem),))
    return accepting_cycle_reachable(
        *_product(index, index.roots(emitted[0]), emitted, positions, 0)
    )


@dataclass(frozen=True)
class Verdict:
    """Outcome of model checking: a truth value, plus a falsifying or
    undetermined path when the value is FALSE or UNKNOWN."""

    value: Truth
    witness: Optional[Witness] = None


def induced_word(model: TransitionModel, witness: Witness, alphabet: Sequence[str]):
    stem, loop = witness
    return lasso(
        [letter_of(model, s, alphabet) for s in stem],
        [letter_of(model, s, alphabet) for s in loop],
        alphabet,
    )


def check_model(
    model: TransitionModel,
    psi: Formula,
    alphabet: Optional[Sequence[str]] = None,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> Verdict:
    """Three-valued verdict of `psi` over all paths of the model.

    Checks the falsifying automaton first, then the unknown one; every
    returned witness is re-evaluated by the lasso oracle before it is
    reported.  The automata are a `LazyFamily` shared by both searches,
    so only states whose pattern is the letter of some model state are
    built; the verdict and witness are those `product_nonempty` gives
    on the automata of `build_family`.
    """
    if alphabet is None:
        alphabet = tuple(sorted(atoms_of(psi) | model.label_atoms()))
    else:
        alphabet = tuple(alphabet)
    closure = checked_closure(psi, alphabet, cap)
    emitted, ids = _letter_ids(
        letter_of(model, s, closure.atoms) for s in model.states
    )
    family = LazyFamily(closure, list(ids))
    start = emitted[model.position[model.initial]]
    for value in (Truth.FALSE, Truth.UNKNOWN):
        witness = _model_witness(model, emitted, family, family.roots(value, start))
        if witness is not None:
            word = induced_word(model, witness, alphabet)
            confirmed = eval_lasso(psi, word)
            if confirmed is not value:
                raise RuntimeError(
                    f"internal error: witness evaluates to {confirmed}, "
                    f"expected {value}"
                )
            return Verdict(value, witness)
    return Verdict(Truth.TRUE)
