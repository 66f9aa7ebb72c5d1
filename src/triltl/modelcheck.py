"""Three-valued model checking of transition models.

A model is a finite serial transition system whose states label each
atom true, false, or unknown.  The verdict for a formula is FALSE when
some path from the initial state falsifies it, otherwise UNDEF when
some path leaves it unknown, otherwise TRUE; falsity wins because a
single falsifying path settles the matter regardless of the others.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .elementary import DEFAULT_CANDIDATE_CAP
from .gnba import Nba, build_family, degeneralize
from .letters import Letter
from .semantics import eval_lasso, lasso
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

    def successors(self, state: str) -> tuple[str, ...]:
        return tuple(dst for src, dst in self.edges if src == state)

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
    literals = []
    for atom in alphabet:
        value = model.label(state, atom)
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
    for name in raw_states:
        if not isinstance(name, str) or not name or any(c.isspace() for c in name) or ";" in name:
            raise ModelFormatError(f"bad state name {name!r}")
        if name in states:
            raise ModelFormatError(f"duplicate state {name!r}")
        states.append(name)
    known = set(states)

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
            if not is_atom_name(atom):
                raise ModelFormatError(f"bad atom name {atom!r}")
            if not isinstance(code, str) or code not in _VALUE_CODES:
                raise ModelFormatError(
                    f'bad value {code!r} for {name!r}.{atom!r}; use "t", "f" or "u"'
                )
            entry[atom] = _VALUE_CODES[code]
        labels[name] = entry

    return TransitionModel(tuple(states), initial, tuple(edges), labels)


Witness = tuple[tuple[str, ...], tuple[str, ...]]


def product_nonempty(model: TransitionModel, automaton: Nba) -> Optional[Witness]:
    """Search the synchronous product for an accepted word of the model.

    Returns a (stem, loop) lasso of model states whose induced word the
    automaton accepts, or None when the product language is empty.  The
    search order (breadth-first over declaration order) is fixed, so
    the witness is deterministic.
    """
    atoms = automaton.closure.atoms
    emitted = {s: letter_of(model, s, atoms) for s in model.states}
    adjacency: dict[str, list[str]] = {s: [] for s in model.states}
    for src, dst in model.edges:
        adjacency[src].append(dst)
    patterns = automaton.patterns
    succ = automaton.succ

    def out_edges(node: tuple[str, int]) -> list[tuple[str, int]]:
        s, q = node
        if patterns[q] != emitted[s]:
            return []
        return [(s2, q2) for s2 in adjacency[s] for q2 in succ[q]]

    roots = [(model.initial, q) for q in sorted(automaton.initial)]

    # Breadth-first reachability with parent pointers for the stem.
    parent: dict[tuple[str, int], Optional[tuple[str, int]]] = {}
    order: list[tuple[str, int]] = []
    queue = deque()
    for root in roots:
        if root not in parent:
            parent[root] = None
            order.append(root)
            queue.append(root)
    while queue:
        node = queue.popleft()
        for target in out_edges(node):
            if target not in parent:
                parent[target] = node
                order.append(target)
                queue.append(target)

    # Strongly connected components of the reachable product graph.
    index: dict[tuple[str, int], int] = {}
    lowlink: dict[tuple[str, int], int] = {}
    on_stack: set[tuple[str, int]] = set()
    scc_stack: list[tuple[str, int]] = []
    component_of: dict[tuple[str, int], int] = {}
    component_size: list[int] = []
    counter = 0
    for root in order:
        if root in index:
            continue
        work = [(root, iter(out_edges(root)))]
        index[root] = lowlink[root] = counter
        counter += 1
        scc_stack.append(root)
        on_stack.add(root)
        while work:
            node, edges = work[-1]
            advanced = False
            for target in edges:
                if target not in index:
                    index[target] = lowlink[target] = counter
                    counter += 1
                    scc_stack.append(target)
                    on_stack.add(target)
                    work.append((target, iter(out_edges(target))))
                    advanced = True
                    break
                if target in on_stack:
                    lowlink[node] = min(lowlink[node], index[target])
            if advanced:
                continue
            work.pop()
            if work:
                parent_node = work[-1][0]
                lowlink[parent_node] = min(lowlink[parent_node], lowlink[node])
            if lowlink[node] == index[node]:
                members = []
                while True:
                    member = scc_stack.pop()
                    on_stack.remove(member)
                    members.append(member)
                    if member == node:
                        break
                cid = len(component_size)
                component_size.append(len(members))
                for member in members:
                    component_of[member] = cid

    def lies_on_cycle(node: tuple[str, int]) -> bool:
        if component_size[component_of[node]] > 1:
            return True
        return node in out_edges(node)

    anchor = None
    for node in order:
        _, q = node
        if q in automaton.accepting and lies_on_cycle(node):
            anchor = node
            break
    if anchor is None:
        return None

    # Stem: the BFS path from an initial node to the anchor.
    path = [anchor]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    stem = tuple(s for s, _ in path[:-1])

    # Loop: the shortest closed walk from the anchor back to itself.
    back_parent: dict[tuple[str, int], tuple[str, int]] = {}
    queue = deque([anchor])
    closing = None
    while queue and closing is None:
        node = queue.popleft()
        for target in out_edges(node):
            if target == anchor:
                closing = node
                break
            if target not in back_parent:
                back_parent[target] = node
                queue.append(target)
    if closing is None:
        raise RuntimeError("internal error: cycle node lost its cycle")
    cycle = [closing]
    while cycle[-1] != anchor:
        cycle.append(back_parent[cycle[-1]])
    cycle.reverse()
    loop = tuple(s for s, _ in cycle)
    return stem, loop


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
    reported.
    """
    if alphabet is None:
        alphabet = tuple(sorted(atoms_of(psi) | model.label_atoms()))
    else:
        alphabet = tuple(alphabet)
    family = build_family(psi, alphabet, cap)
    for value in (Truth.FALSE, Truth.UNKNOWN):
        witness = product_nonempty(model, degeneralize(family[value]))
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
