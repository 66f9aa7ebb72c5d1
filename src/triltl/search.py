"""Graph search over implicit graphs: Büchi emptiness and lasso witnesses.

Both routines see a directed graph only through its `roots` and an
`out_edges(node)` callable, and expand nothing that is not reachable
from the roots.  Nodes may be any hashable values.

`accepting_cycle_reachable` is Couvreur's on-the-fly emptiness check
for generalized Büchi acceptance (J.-M. Couvreur, "On-the-fly
verification of linear temporal logic", FM'99; see also Renault et
al., "Three SCC-based emptiness checks for generalized Büchi
automata", LPAR 2013).  `first_accepting_lasso` extracts the one
witness lasso that breadth-first search order singles out.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, Optional, TypeVar

Node = TypeVar("Node", bound=Hashable)


def accepting_cycle_reachable(
    roots: Iterable[Node],
    out_edges: Callable[[Node], Iterable[Node]],
    marks: Callable[[Node], int],
    all_marks: int,
) -> bool:
    """Is some cycle reachable from the roots whose nodes together carry
    every acceptance mark?

    `marks(node)` is the bitmask of acceptance sets the node belongs to,
    and `all_marks` the mask of all sets.  Couvreur's check (FM'99): one
    depth-first pass keeps a stack of the roots of the partial strongly
    connected components still open, each with the union of its members'
    marks.  An edge back into an open component merges every component
    above it; the search stops at the first merge whose union is
    `all_marks`.  Each node is expanded at most once.
    """
    # DFS number of each open node; 0 once its component is complete.
    number: dict[Node, int] = {}
    live: list[Node] = []
    root_numbers: list[int] = []
    root_marks: list[int] = []
    count = 0
    for root in roots:
        if root in number:
            continue
        count += 1
        number[root] = count
        live.append(root)
        root_numbers.append(count)
        root_marks.append(marks(root))
        todo = [(root, iter(out_edges(root)))]
        while todo:
            node, edges = todo[-1]
            for target in edges:
                seen = number.get(target)
                if seen is None:
                    count += 1
                    number[target] = count
                    live.append(target)
                    root_numbers.append(count)
                    root_marks.append(marks(target))
                    todo.append((target, iter(out_edges(target))))
                    break
                if seen:
                    # The edge closes a cycle: everything opened since
                    # `target` is one component now.
                    union = 0
                    while root_numbers[-1] > seen:
                        root_numbers.pop()
                        union |= root_marks.pop()
                    union |= root_marks[-1]
                    root_marks[-1] = union
                    if union == all_marks:
                        return True
            else:
                todo.pop()
                if root_numbers[-1] == number[node]:
                    root_numbers.pop()
                    root_marks.pop()
                    while True:
                        member = live.pop()
                        number[member] = 0
                        if member == node:
                            break
    return False


def first_accepting_lasso(
    roots: Iterable[Node],
    out_edges: Callable[[Node], Iterable[Node]],
    accepting: Callable[[Node], bool],
) -> Optional[tuple[list[Node], list[Node]]]:
    """The breadth-first witness lasso, or None when there is none.

    Nodes are discovered breadth first from the roots, in the order the
    roots and `out_edges` list them.  The anchor is the first discovered
    node that is accepting and lies on a cycle.  The stem is the
    breadth-first parent chain from a root to the anchor, without the
    anchor; the loop is the shortest closed walk from the anchor back to
    itself, starting at the anchor.

    Candidates are tested lazily in discovery order and the search stops
    at the anchor.  The cycle test is Tarjan's algorithm with one shared
    state for all candidates: a candidate not yet indexed starts a new
    Tarjan pass, which answers yes as soon as an edge back into the
    candidate appears (no node indexed before can reach it), and
    otherwise completes and records which components are cyclic, so a
    later candidate already indexed is answered by lookup.  Each node is
    therefore expanded at most three times: once breadth first, once by
    Tarjan and once by the loop search.
    """
    index: dict[Node, int] = {}
    lowlink: dict[Node, int] = {}
    tarjan_stack: list[Node] = []
    on_stack: set[Node] = set()
    cyclic: set[Node] = set()

    def on_cycle(candidate: Node) -> bool:
        if candidate in index:
            return candidate in cyclic
        index[candidate] = lowlink[candidate] = len(index)
        tarjan_stack.append(candidate)
        on_stack.add(candidate)
        work = [(candidate, iter(out_edges(candidate)))]
        while work:
            node, edges = work[-1]
            for target in edges:
                if target == candidate:
                    return True
                if target not in index:
                    index[target] = lowlink[target] = len(index)
                    tarjan_stack.append(target)
                    on_stack.add(target)
                    work.append((target, iter(out_edges(target))))
                    break
                if target in on_stack:
                    if target == node:
                        cyclic.add(node)
                    elif index[target] < lowlink[node]:
                        lowlink[node] = index[target]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if lowlink[node] < lowlink[parent]:
                        lowlink[parent] = lowlink[node]
                if lowlink[node] == index[node]:
                    members = []
                    while True:
                        member = tarjan_stack.pop()
                        on_stack.remove(member)
                        members.append(member)
                        if member == node:
                            break
                    if len(members) > 1:
                        cyclic.update(members)
        return False

    def is_anchor(node: Node) -> bool:
        return accepting(node) and on_cycle(node)

    parent: dict[Node, Optional[Node]] = {}
    queue: deque[Node] = deque()
    anchor = None
    for root in roots:
        if root not in parent:
            parent[root] = None
            queue.append(root)
            if is_anchor(root):
                anchor = root
                break
    while anchor is None and queue:
        node = queue.popleft()
        for target in out_edges(node):
            if target not in parent:
                parent[target] = node
                queue.append(target)
                if is_anchor(target):
                    anchor = target
                    break
    if anchor is None:
        return None

    stem = []
    node = parent[anchor]
    while node is not None:
        stem.append(node)
        node = parent[node]
    stem.reverse()

    # Shortest closed walk: breadth first from the anchor back to it.
    back_parent: dict[Node, Node] = {}
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
    loop = [closing]
    while loop[-1] != anchor:
        loop.append(back_parent[loop[-1]])
    loop.reverse()
    return stem, loop
