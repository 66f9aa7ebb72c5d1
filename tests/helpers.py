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
from typing import Iterator

import networkx as nx
from hypothesis import strategies as st

from triltl import (
    ABSENT,
    NEG,
    POS,
    TRUE,
    And,
    Atom,
    Gnba,
    LassoWord,
    Nba,
    Next,
    Not,
    TrueConst,
    Truth,
    Until,
    lasso,
    letter_of,
    negated,
    restrict_letter,
)
from triltl.syntax import Closure, Formula, subformulas

ATOMS = ("a", "b")


def formulas_over(atoms) -> st.SearchStrategy:
    """Core formulas over `atoms` with at most four leaves."""
    return st.recursive(
        st.one_of(st.sampled_from([Atom(name) for name in atoms]), st.just(TRUE)),
        lambda children: st.one_of(
            st.builds(negated, children),
            st.builds(Next, children),
            st.builds(And, children, children),
            st.builds(Until, children, children),
        ),
        max_leaves=4,
    )


#: Formulas over a and b with at most four leaves.
small_formulas = formulas_over(ATOMS)


# ---------------------------------------------------------------------------
# Depth oracle: the definition of a formula's depth, walked over the
# operands with an explicit stack (independent of the depth each node
# stores when it is made).
# ---------------------------------------------------------------------------


def depth_by_walk(f: Formula) -> int:
    """Levels on the deepest path from `f` down to an atom or `true`:
    each X, & and U is one level and ! none."""
    depth: dict[Formula, int] = {}
    stack = [f]
    while stack:
        g = stack[-1]
        operands = [v for v in map(g.__getattribute__, g.__match_args__) if isinstance(v, Formula)]
        todo = [h for h in operands if h not in depth]
        if todo:
            stack += todo
            continue
        stack.pop()
        step = 0 if isinstance(g, Not) else 1
        depth[g] = max(depth[h] + step for h in operands) if operands else 0
    return depth[f]


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
# Naive linkage oracle: successors and acceptance of an elementary set,
# read off the next rules and the until expansion law over formulas.
# ---------------------------------------------------------------------------


def _has(closure: Closure, vec: tuple[int, ...], g: Formula) -> bool:
    """Does the elementary set `vec` contain the formula g?"""
    if isinstance(g, Not):
        return vec[closure.index[g.child]] == NEG
    return vec[closure.index[g]] == POS


def naive_successors(
    closure: Closure, vec: tuple[int, ...], candidates=None
) -> list[tuple[int, ...]]:
    """The elementary sets w that may follow `vec`, in sorted order.

    X g is in vec iff g is in w, and !X g iff !g is in w.  For every
    until u = l U r: u is in vec iff r is, or l is and u is in w; !u is
    in vec iff !r is, and !l is or !u is in w.  `candidates`, when
    given, is `naive_elementary(closure)`, computed once by the caller.
    """
    out = []
    for w in naive_elementary(closure) if candidates is None else candidates:
        ok = True
        for base in closure.bases:
            if isinstance(base, Next):
                g = base.child
                ok &= _has(closure, vec, base) == _has(closure, w, g)
                ok &= _has(closure, vec, Not(base)) == _has(closure, w, negated(g))
            elif isinstance(base, Until):
                l, r, nu = base.left, base.right, Not(base)
                ok &= _has(closure, vec, base) == (
                    _has(closure, vec, r) or (_has(closure, vec, l) and _has(closure, w, base))
                )
                ok &= _has(closure, vec, nu) == (
                    _has(closure, vec, negated(r))
                    and (_has(closure, vec, negated(l)) or _has(closure, w, nu))
                )
        if ok:
            out.append(w)
    return sorted(out)


def naive_acceptance(closure: Closure, states) -> tuple[frozenset[int], ...]:
    """One set per until u = l U r, in closure order, then all states.

    A state is in u's set unless it holds u without r, or holds !r
    without !u.
    """
    sets = []
    for base in closure.bases:
        if isinstance(base, Until):
            r = base.right
            sets.append(
                frozenset(
                    q
                    for q, vec in enumerate(states)
                    if (not _has(closure, vec, base) or _has(closure, vec, r))
                    and (not _has(closure, vec, negated(r)) or _has(closure, vec, Not(base)))
                )
            )
    return tuple(sets) + (frozenset(range(len(states))),)


# ---------------------------------------------------------------------------
# Generalized-acceptance membership, via networkx (independent of the
# library's degeneralization and its emptiness search).
# ---------------------------------------------------------------------------


def _accepting_cycle_reachable(graph: nx.DiGraph, roots, accepts) -> bool:
    """Does a cycle reachable from `roots` lie in a strongly connected
    component for which `accepts(component)` holds?"""
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
        if accepts(component):
            return True
    return False


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

    def accepts(component):
        state_ids = {q for q, _ in component}
        return all(state_ids & acc for acc in g.acceptance)

    return _accepting_cycle_reachable(graph, roots, accepts)


def pair_product(first: Gnba, second: Gnba) -> tuple[bool, int]:
    """Do two automata over one closure accept a common word?  Returns
    the answer and the number of nodes of their pair graph.

    The pair graph is built from the `Gnba` fields alone, from the pairs
    of initial states.  A node pairs two states with equal patterns; its
    successors pair their successors with equal patterns; its marks are
    the first state's marks OR the second state's shifted above them.
    Emptiness is decided on networkx SCCs, apart from `search.py` and
    `modelcheck._product`.
    """
    shift = first.all_marks.bit_length()
    full = first.all_marks | second.all_marks << shift
    roots = [
        (q1, q2)
        for q1 in sorted(first.initial)
        for q2 in sorted(second.initial)
        if first.patterns[q1] == second.patterns[q2]
    ]
    graph = nx.DiGraph()
    graph.add_nodes_from(roots)
    todo = list(roots)
    while todo:
        node = q1, q2 = todo.pop()
        for p1 in first.succ[q1]:
            for p2 in second.succ[q2]:
                if first.patterns[p1] == second.patterns[p2]:
                    if (p1, p2) not in graph:
                        todo.append((p1, p2))
                    graph.add_edge(node, (p1, p2))

    def accepts(component):
        marks = 0
        for q1, q2 in component:
            marks |= first.marks[q1] | second.marks[q2] << shift
        return marks == full

    return _accepting_cycle_reachable(graph, roots, accepts), graph.number_of_nodes()


# ---------------------------------------------------------------------------
# Definitional lasso oracle: the clauses of U read off the unrolled word,
# with no fixpoint (independent of `eval_lasso`'s backward pass).
# ---------------------------------------------------------------------------


def reference_eval_lasso(psi: Formula, word: LassoWord) -> Truth:
    """The value of `psi` at position 0, from the definitions.

    For an until at position i, the walk covers the unrolled word from i
    to one full loop past max(i, |stem|).  Any witness or break further
    on repeats one inside that window, with a longer prefix to check.
    """
    m, n = len(word.stem), word.length
    p = n - m
    T, F, U = Truth.TRUE, Truth.FALSE, Truth.UNKNOWN

    def position(k: int) -> int:
        return k if k < m else m + (k - m) % p

    values: dict[Formula, list[Truth]] = {}
    for g in subformulas(psi):
        if isinstance(g, Atom):
            row = [
                T if (g.name, True) in letter else F if (g.name, False) in letter else U
                for letter in word.letters
            ]
        elif isinstance(g, TrueConst):
            row = [T] * n
        elif isinstance(g, Not):
            row = [v.negate() for v in values[g.child]]
        elif isinstance(g, Next):
            row = [values[g.child][position(i + 1)] for i in range(n)]
        elif isinstance(g, And):
            row = [
                F if F in pair else T if pair == (T, T) else U
                for pair in zip(values[g.left], values[g.right])
            ]
        else:
            assert isinstance(g, Until), g
            left, right = values[g.left], values[g.right]
            row = []
            for i in range(n):
                walk = [position(k) for k in range(i, max(i, m) + p)]
                # T: some k has right T and left T at every j before it.
                # F: every k has right F or left F at some j before it.
                true = any(
                    right[k] is T and all(left[j] is T for j in walk[:x])
                    for x, k in enumerate(walk)
                )
                false = all(
                    right[k] is F or any(left[j] is F for j in walk[:x])
                    for x, k in enumerate(walk)
                )
                row.append(T if true else F if false else U)
        values[g] = row
    return values[psi][0]


# ---------------------------------------------------------------------------
# Classical lasso oracle: two-valued satisfaction on total words, each
# until swept to its least fixpoint until nothing changes (independent
# of `eval_lasso`'s ordered backward pass).
# ---------------------------------------------------------------------------


def is_total(word: LassoWord) -> bool:
    """Does every letter of the word assign every alphabet atom?"""
    return all(len(letter) == len(word.alphabet) for letter in word.letters)


def eval_lasso_two_valued(psi: Formula, word: LassoWord) -> bool:
    """Classical satisfaction on a word whose letters are all total;
    falsehood is the complement of truth."""
    assert is_total(word), word
    n = word.length
    succ = [word.successor(i) for i in range(n)]
    letters = word.letters
    tables: dict[Formula, list[bool]] = {}
    for g in subformulas(psi):
        if isinstance(g, Atom):
            t = [(g.name, True) in letters[i] for i in range(n)]
        elif isinstance(g, TrueConst):
            t = [True] * n
        elif isinstance(g, Not):
            t = [not v for v in tables[g.child]]
        elif isinstance(g, Next):
            ct = tables[g.child]
            t = [ct[succ[i]] for i in range(n)]
        elif isinstance(g, And):
            lt, rt = tables[g.left], tables[g.right]
            t = [lt[i] and rt[i] for i in range(n)]
        else:
            assert isinstance(g, Until), g
            lt, rt = tables[g.left], tables[g.right]
            t = [False] * n
            changed = True
            while changed:
                changed = False
                for i in range(n - 1, -1, -1):
                    if not t[i] and (rt[i] or (lt[i] and t[succ[i]])):
                        t[i] = True
                        changed = True
        tables[g] = t
    return tables[psi][0]


def all_letters(alphabet) -> tuple[frozenset, ...]:
    """All 3^n consistent letters over the alphabet.

    Ordered with earlier atoms varying slowest and each atom cycling
    through unset, positive, negative.
    """
    letters: list[frozenset] = [frozenset()]
    for name in alphabet:
        extended = []
        for base in letters:
            extended.append(base)
            extended.append(base | {(name, True)})
            extended.append(base | {(name, False)})
        letters = extended
    return tuple(letters)


def enumerate_lassos(alphabet, max_stem: int, max_loop: int) -> Iterator[LassoWord]:
    """All lassos with the given stem and loop bounds over consistent
    letters, in deterministic order and without syntactic duplicates."""
    if max_loop < 1:
        raise ValueError("max_loop must be at least 1")
    alphabet = tuple(alphabet)
    letters = all_letters(alphabet)
    for stem_len in range(max_stem + 1):
        for stem in product(letters, repeat=stem_len):
            for loop_len in range(1, max_loop + 1):
                for loop in product(letters, repeat=loop_len):
                    yield LassoWord(stem, loop, alphabet)


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
