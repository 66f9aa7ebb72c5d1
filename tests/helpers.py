"""Shared test utilities: independent oracles and input builders.

The oracles here deliberately re-derive results along different routes
than the library (powerset filtering, networkx SCCs) so that agreement
actually means something.
"""

from __future__ import annotations

import json
import re
from collections import deque
from itertools import product

import networkx as nx

from triltl import (
    ABSENT,
    NEG,
    POS,
    And,
    Gnba,
    LassoWord,
    Nba,
    Not,
    TrueConst,
    Until,
    lasso,
    letter_of,
    negated,
    restrict_letter,
)
from triltl.syntax import Closure, Formula

ATOMS = ("a", "b")


# ---------------------------------------------------------------------------
# Naive elementary-set oracle: filter the powerset of the signed closure.
# ---------------------------------------------------------------------------


def naive_elementary(closure: Closure) -> set[tuple[int, ...]]:
    """Enumerate all 4^n signed subsets and keep the elementary ones.

    Written against the raw definitions (membership checks walk the
    formulas), independent of the library's constraint tables.
    """
    n = len(closure.bases)

    def member(subset: frozenset, g: Formula) -> bool:
        if isinstance(g, Not):
            return (closure.index[g.child], "-") in subset
        return (closure.index[g], "+") in subset

    def member_neg(subset: frozenset, g: Formula) -> bool:
        return member(subset, negated(g))

    def consistent(subset: frozenset) -> bool:
        for i, base in enumerate(closure.bases):
            if (i, "+") in subset and (i, "-") in subset:
                return False
            if isinstance(base, TrueConst):
                if (i, "+") not in subset or (i, "-") in subset:
                    return False
            if isinstance(base, And):
                if ((i, "+") in subset) != (
                    member(subset, base.left) and member(subset, base.right)
                ):
                    return False
                if ((i, "-") in subset) != (
                    member_neg(subset, base.left) or member_neg(subset, base.right)
                ):
                    return False
        return True

    def locally_consistent(subset: frozenset) -> bool:
        for i, base in enumerate(closure.bases):
            if not isinstance(base, Until):
                continue
            u_pos = (i, "+") in subset
            u_neg = (i, "-") in subset
            if member(subset, base.right) and not u_pos:
                return False
            if u_neg and not member_neg(subset, base.right):
                return False
            if u_pos and not member(subset, base.right) and not member(subset, base.left):
                return False
            if (
                member_neg(subset, base.left)
                and member_neg(subset, base.right)
                and not u_neg
            ):
                return False
        return True

    marks = [frozenset(), frozenset({"+"}), frozenset({"-"}), frozenset({"+", "-"})]
    out = set()
    for choice in product(marks, repeat=n):
        subset = frozenset((i, sign) for i, signs in enumerate(choice) for sign in signs)
        if consistent(subset) and locally_consistent(subset):
            vec = tuple(
                POS if (i, "+") in subset else NEG if (i, "-") in subset else ABSENT
                for i in range(n)
            )
            out.add(vec)
    return out


# ---------------------------------------------------------------------------
# Generalized-acceptance membership, via networkx (independent of the
# library's degeneralization and its emptiness search).
# ---------------------------------------------------------------------------


def gnba_accepts_lasso(g: Gnba, word: LassoWord) -> bool:
    n = word.length
    atoms = set(g.closure.atoms)
    restricted = [restrict_letter(letter, atoms) for letter in word.letters]
    graph = nx.DiGraph()
    roots = [(q, 0) for q in g.initial]
    graph.add_nodes_from(roots)
    for q in range(len(g.states)):
        for i in range(n):
            if g.patterns[q] != restricted[i]:
                continue
            j = word.successor(i)
            for q2 in g.succ[q]:
                graph.add_edge((q, i), (q2, j))
    reachable = set()
    for root in roots:
        if root in graph:
            reachable.add(root)
            reachable |= nx.descendants(graph, root)
    for component in nx.strongly_connected_components(graph):
        if not component & reachable:
            continue
        if len(component) == 1:
            node = next(iter(component))
            if not graph.has_edge(node, node):
                continue
        state_ids = {q for q, _ in component}
        if all(state_ids & acc for acc in g.acceptance):
            return True
    return False


# ---------------------------------------------------------------------------
# Reference witness search: the explicit breadth-first + Tarjan product
# search on a degeneralized automaton, kept as the oracle that fixes the
# witness definition (first accepting cycle node in BFS order, its BFS
# stem, its shortest loop).
# ---------------------------------------------------------------------------


def reference_product_nonempty(model, automaton: Nba):
    atoms = automaton.closure.atoms
    emitted = {s: letter_of(model, s, atoms) for s in model.states}
    adjacency: dict[str, list[str]] = {s: [] for s in model.states}
    for src, dst in model.edges:
        adjacency[src].append(dst)
    patterns = automaton.patterns
    succ = automaton.succ

    def out_edges(node):
        s, q = node
        if patterns[q] != emitted[s]:
            return []
        return [(s2, q2) for s2 in adjacency[s] for q2 in succ[q]]

    roots = [(model.initial, q) for q in sorted(automaton.initial)]

    parent = {}
    order = []
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

    index, lowlink = {}, {}
    on_stack, scc_stack = set(), []
    component_of, component_size = {}, []
    for root in order:
        if root in index:
            continue
        work = [(root, iter(out_edges(root)))]
        index[root] = lowlink[root] = len(index)
        scc_stack.append(root)
        on_stack.add(root)
        while work:
            node, edges = work[-1]
            advanced = False
            for target in edges:
                if target not in index:
                    index[target] = lowlink[target] = len(index)
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
                above = work[-1][0]
                lowlink[above] = min(lowlink[above], lowlink[node])
            if lowlink[node] == index[node]:
                members = []
                while True:
                    member = scc_stack.pop()
                    on_stack.remove(member)
                    members.append(member)
                    if member == node:
                        break
                for member in members:
                    component_of[member] = len(component_size)
                component_size.append(len(members))

    def lies_on_cycle(node):
        return component_size[component_of[node]] > 1 or node in out_edges(node)

    anchor = next(
        (n for n in order if n[1] in automaton.accepting and lies_on_cycle(n)), None
    )
    if anchor is None:
        return None
    path = [anchor]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    stem = tuple(s for s, _ in path[:-1])

    back_parent = {}
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
    cycle = [closing]
    while cycle[-1] != anchor:
        cycle.append(back_parent[cycle[-1]])
    cycle.reverse()
    return stem, tuple(s for s, _ in cycle)


# ---------------------------------------------------------------------------
# Miscellaneous builders
# ---------------------------------------------------------------------------


def vec_of(closure: Closure, members: dict[str, int]) -> tuple[int, ...]:
    """Assignment vector from {formula text: mark}, absent by default."""
    from triltl import format_formula

    by_text = {format_formula(b): i for i, b in enumerate(closure.bases)}
    vec = [ABSENT] * len(closure.bases)
    for text, mark in members.items():
        vec[by_text[text]] = mark
    return tuple(vec)


def shift(word: LassoWord) -> LassoWord:
    """Drop the first letter, rotating the loop when the stem is empty."""
    if word.stem:
        return lasso(word.stem[1:], word.loop, word.alphabet)
    return lasso((), word.loop[1:] + word.loop[:1], word.alphabet)


def model_doc(states, initial, edges, labels) -> str:
    return json.dumps(
        {"states": states, "initial": initial, "edges": edges, "labels": labels}
    )


# ---------------------------------------------------------------------------
# Minimal DOT syntax validator for the emitted dialect.
# ---------------------------------------------------------------------------

_DOT_NODE = re.compile(r"^\s*(\d+)\s*\[[^\]]*\];$")
_DOT_EDGE = re.compile(r"^\s*(\d+)\s*->\s*(\d+)\s*\[label=\"[^\"]*\"\];$")
_DOT_ATTR = re.compile(r"^\s*\w+\s*=\s*\w+;$|^\s*node\s*\[[^\]]*\];$")


def validate_dot(text: str) -> tuple[int, int]:
    """Check the DOT document's structure; returns (nodes, edges)."""
    lines = text.splitlines()
    assert lines[0] == "digraph gnba {", "missing digraph header"
    assert lines[-1] == "}", "missing closing brace"
    assert text.endswith("}\n"), "must end with a newline"
    declared: set[int] = set()
    edges = 0
    for line in lines[1:-1]:
        if _DOT_ATTR.match(line):
            continue
        node = _DOT_NODE.match(line)
        if node:
            nid = int(node.group(1))
            assert nid not in declared, f"node {nid} declared twice"
            declared.add(nid)
            continue
        edge = _DOT_EDGE.match(line)
        assert edge, f"unparseable DOT line: {line!r}"
        src, dst = int(edge.group(1)), int(edge.group(2))
        assert src in declared and dst in declared, "edge before node declaration"
        edges += 1
    return len(declared), edges


# Formula corpus for the equivalence criteria: at most two atoms, at
# most three temporal operators, covering the required shapes.
CORPUS = (
    "a",
    "!a",
    "a & b",
    "X a",
    "a U b",
    "!(a U b)",
    "F a",
    "G a",
    "a R b",
    "true U a",
    "false R a",
    "a | b",
    "a -> b",
    "!(a & b)",
    "!X a",
    "X !a",
    "!F a",
    "G !a",
    "a U a",
    "X X a",
    "X X X a",
    "X (a U b)",
    "(X a) U b",
    "a U (X b)",
    "a U (b U a)",
    "(a U b) U a",
    "F (a & b)",
    "G (a -> F b)",
    "a -> X b",
    "F G a",
    "G F a",
    "X F a",
    "F a & G b",
    "(a U b) & (b U a)",
    "!(X (a U b))",
    "b U (a & X a)",
    "a R (b U a)",
)
