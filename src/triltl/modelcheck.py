"""Three-valued model checking of transition models.

A model is a finite serial transition system whose states label each
atom true, false, or unknown.  The verdict for a formula is FALSE when
some path from the initial state falsifies it, otherwise UNDEF when
some path leaves it unknown, otherwise TRUE; falsity wins because a
single falsifying path settles the matter regardless of the others.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .gnba import DEFAULT_CANDIDATE_CAP, Gnba, LazyFamily, Nba, PatternIndex, checked_closure
from .letters import Letter, restrict_letter
from .search import LIVE, _couvreur, accepting_cycle_reachable, first_accepting_lasso
from .semantics import LassoWord, eval_lasso, lasso
from .syntax import Formula, atoms_of, is_atom_name
from .truth import Truth

_VALUE_CODES = {"t": Truth.TRUE, "f": Truth.FALSE, "u": Truth.UNKNOWN}

#: A character no state name may hold: whitespace, which separates the
#: states of a printed witness, or ";", which separates its stem from
#: its loop.
_BAD_STATE_CHAR = re.compile(r"[\s;]")


class ModelFormatError(ValueError):
    """Malformed model document."""


@dataclass(frozen=True)
class TransitionModel:
    """Serial transition system with three-valued atom labels.

    `labels` may omit pairs; a missing (state, atom) entry reads as
    unknown.  Successor order follows edge declaration order, which
    fixes the search order for witness extraction.  The cached indices
    below alone decide that a model, parsed or built by hand, is well
    formed: each raises `ModelFormatError` on its first fault.
    """

    states: tuple[str, ...]
    initial: str
    edges: tuple[tuple[str, str], ...]
    labels: Mapping[str, Mapping[str, Truth]]

    @cached_property
    def position(self) -> dict[str, int]:
        """Index of each state in `states`; refuses, in declaration
        order, a bad name (not a string, empty, or holding a
        `_BAD_STATE_CHAR`) and a repeated one."""
        position: dict[str, int] = {}
        for i, name in enumerate(self.states):
            if not isinstance(name, str) or not name or _BAD_STATE_CHAR.search(name):
                raise ModelFormatError(f"bad state name {name!r}")
            if position.setdefault(name, i) != i:
                raise ModelFormatError(f"duplicate state {name!r}")
        return position

    @cached_property
    def start(self) -> int:
        """Index of the initial state; refuses an undeclared one."""
        if not isinstance(self.initial, str) or self.initial not in self.position:
            raise ModelFormatError(f"unknown initial state {self.initial!r}")
        return self.position[self.initial]

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Successor indices of each state index; refuses an undeclared
        edge endpoint and a state with no outgoing edge."""
        position = self.position
        out: list[list[int]] = [[] for _ in self.states]
        try:
            for src, dst in self.edges:
                out[position[src]].append(position[dst])
        except (KeyError, TypeError):  # TypeError: an unhashable endpoint
            bad = next(end for edge in self.edges for end in edge
                       if not isinstance(end, str) or end not in position)
            raise ModelFormatError(f"unknown state {bad!r} in edge") from None
        if not all(out):
            name = self.states[out.index([])]
            raise ModelFormatError(f"state {name!r} has no outgoing edge")
        return tuple(map(tuple, out))

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

    Top-level fields: "states" (non-empty list of names), "initial"
    (name), "edges" (list of [from, to] pairs), "labels" (state -> atom
    -> "t" | "f" | "u").  Only the shape is checked here, and repeated
    edges dropped; the model's indices (`TransitionModel.position`,
    `start`, `adjacency`) check the rest, so a document is refused as
    the model built by hand from it.  Of several faults the first is
    reported in this order: shape faults in document order; then names,
    the initial state, edge endpoints and seriality, as the indices
    find them; then labels of undeclared states.
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

    states = data["states"]
    if not isinstance(states, list) or not states:
        raise ModelFormatError('"states" must be a non-empty list of names')
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise ModelFormatError('"edges" must be a list of [from, to] pairs')
    for item in raw_edges:
        if not isinstance(item, list) or len(item) != 2:
            raise ModelFormatError(f"bad edge {item!r}")
    try:
        edges = tuple(dict.fromkeys(map(tuple, raw_edges)))
    except TypeError:  # an unhashable endpoint, which `adjacency` refuses
        edges = tuple(map(tuple, raw_edges))

    labels: dict[str, dict[str, Truth]] = {}
    atom_names: set[str] = set()
    raw_labels = data.get("labels", {})
    if not isinstance(raw_labels, dict):
        raise ModelFormatError('"labels" must be an object')
    for name, per_state in raw_labels.items():
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

    model = TransitionModel(tuple(states), data["initial"], edges, labels)
    model.start, model.adjacency  # refuse the model's own faults first
    for name in labels:
        if name not in model.position:
            raise ModelFormatError(f"labels for unknown state {name!r}")
    return model


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
    targets: Optional[Callable[[int, int], list[int]]] = None,
):
    """The synchronous product of a letter-labelled graph with the automaton.

    Graph node s carries letter id `emitted[s]` and steps to
    `adjacency[s]`.  Product node q * n + s pairs automaton state q with
    graph node s, where n is the number of graph nodes, so the automaton
    may grow during the search.  The automaton is read through
    `targets(q, l)`, the successor states of q with pattern letter l,
    asked once per (q, l), so a node is generated only when q's pattern
    equals the letter of s: any other node can never move.  `targets`
    defaults to the automaton's own; `check_model` passes one that also
    drops the states q2 whose (q2, l) is dead, so the filter runs when
    this cache is filled, not once per edge.  `roots` are the automaton
    states paired with graph node `start`.  Returns `(roots, out_edges,
    marks, all_marks)`, with one mark per acceptance set, for the
    searches of `search.py`.

    With the model's letter graph as the graph (node l carries letter l
    and steps to the letters that follow l in the model), this is the
    abstract product whose node q * nletters + l is the key of (q, l).
    """
    n = len(adjacency)
    nletters = automaton.nletters
    targets = targets or automaton.targets
    state_marks = automaton.marks
    # `targets(q, l)` by q * nletters + l.
    cached: dict[int, list[int]] = {}

    def out_edges(node: int) -> list[int]:
        q, s = divmod(node, n)
        out: list[int] = []
        for s2 in adjacency[s]:
            letter = emitted[s2]
            key = q * nletters + letter
            found = cached.get(key)
            if found is None:
                found = cached[key] = targets(q, letter)
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
    targets: Optional[Callable[[int, int], list[int]]] = None,
) -> Optional[Witness]:
    """The witness of `product_nonempty` for a model whose states carry
    letter ids `emitted`, from the automaton states `initial` paired
    with the model's initial state, reading the automaton through
    `targets` as `_product` does; None when the product is empty, which
    the witness search decides on its own."""
    roots, out_edges, marks, all_marks = _product(
        automaton, initial, emitted, model.adjacency, model.start, targets
    )
    # Counter product: node * k + c owes acceptance set c next.  Each
    # node's edges are built once, as the search may expand it again.
    k = all_marks.bit_length()

    @cache
    def counter_out_edges(node: int) -> list[int]:
        pair, owed = divmod(node, k)
        if marks(pair) >> owed & 1:
            owed = (owed + 1) % k
        return [target * k + owed for target in out_edges(pair)]

    found = first_accepting_lasso(
        [root * k for root in roots],
        counter_out_edges,
        lambda node: node % k == 0 and marks(node // k) & 1 == 1,
    )
    if found is None:
        return None
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

    One breadth-first witness search decides it, on the counter product
    (model state, automaton state, owed set) over the pairs of
    `_product`: node for node the product with `degeneralize(automaton)`,
    in the same order, so both automata give the same witness.  That
    witness is the first accepting cycle node in breadth-first order
    over declaration order, reached by its breadth-first stem and closed
    by its shortest loop; the search finds none exactly when the product
    is empty.
    """
    model.start, model.adjacency  # refuse a malformed model first
    atoms = automaton.closure.atoms
    index = automaton.pattern_index
    emitted = _pattern_ids(index, [letter_of(model, s, atoms) for s in model.states], atoms)
    roots = index.roots(emitted[model.start])
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

    Each value runs one concrete search, the witness search of
    `product_nonempty`, which decides emptiness as well, and it skips
    dead pairs.  The model's letter graph has the letter ids as nodes
    and an edge l -> l' when a model edge joins a state of letter l to
    one of letter l'.  One value-free Couvreur pass over its product
    with the family, from the FALSE and UNKNOWN roots together, codes
    `LIVE` each (q, l) from which a cycle carrying every mark is
    reachable.  Every path of the model maps to a path of that product,
    so a pair (q, s) whose (q, letter of s) is not live has no accepting
    run, and a value whose roots are all dead expands nothing.  The
    witness stays the same: predecessors of live nodes are live, so
    breadth-first order among live nodes is unchanged, and the anchor,
    its stem and its loop are all live.  The model's indices
    (`TransitionModel.position`, `start` and `adjacency`) refuse a
    malformed model before any other work, as `parse_model` refuses
    its document.
    """
    model.start, model.adjacency  # refuse a malformed model first
    if alphabet is None:
        alphabet = tuple(sorted(atoms_of(psi) | model.label_atoms()))
    else:
        alphabet = tuple(alphabet)
    closure = checked_closure(psi, alphabet, cap)
    emitted, ids = _letter_ids(
        letter_of(model, s, closure.atoms) for s in model.states
    )
    family = LazyFamily(closure, list(ids))
    nletters = family.nletters
    # The letter graph; a model edge from letter l to letter l2 is step
    # l * nletters + l2.
    steps = {l * nletters + emitted[s2] for l, row in zip(emitted, model.adjacency) for s2 in row}
    letter_graph: list[list[int]] = [[] for _ in range(nletters)]
    for step in steps:
        letter_graph[step // nletters].append(step % nletters)
    start = emitted[model.start]
    roots = {value: family.roots(value, start) for value in (Truth.FALSE, Truth.UNKNOWN)}
    both = [q for initial in roots.values() for q in initial]
    # The abstract pass walks `targets(q, l)` once per (q, l) it expands.
    # A concrete search expands only live pairs, whose (q, l) the pass
    # expanded, so each `targets(q, l)` it asks for is already walked.
    walked: dict[int, list[int]] = {}

    def walk(q: int, letter: int) -> list[int]:
        found = walked[q * nletters + letter] = family.targets(q, letter)
        return found

    number: dict[int, int] = {}
    abstract = _product(family, both, range(nletters), letter_graph, start, walk)
    _couvreur(*abstract, number, stop=False)

    def live_targets(q: int, letter: int) -> list[int]:
        found = walked[q * nletters + letter]
        return [q2 for q2 in found if number.get(q2 * nletters + letter) == LIVE]

    for value, initial in roots.items():
        live_roots = [q for q in initial if number.get(q * nletters + start) == LIVE]
        witness = _model_witness(model, emitted, family, live_roots, live_targets)
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
