"""Graph search over implicit graphs: Büchi emptiness and lasso witnesses.

Both routines see a directed graph only through its `roots` and an
`out_edges(node)` callable, and expand nothing that is not reachable
from the roots.  Nodes may be any hashable values.

`accepting_cycle_reachable` is Couvreur's on-the-fly emptiness check
for generalized Büchi acceptance (J.-M. Couvreur, "On-the-fly
verification of linear temporal logic", FM'99; see also Renault et
al., "Three SCC-based emptiness checks for generalized Büchi
automata", LPAR 2013); `nba_accepts_lasso` decides with it.
`first_accepting_lasso` finds the one witness lasso that breadth-first
search order singles out, or none, and so decides emptiness for
`check_model` on its own.  `check_model`'s liveness pass, which prunes
that search, is the same Couvreur pass, and so is the numbering of a
failed fresh candidate's region.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from operator import eq
from typing import Callable, Hashable, Iterable, Iterator, Optional, TypeVar

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
    return _couvreur(roots, out_edges, marks, all_marks, {})


#: The `number` code of a completed node from which a cycle carrying
#: every mark is reachable; filled in only by a pass with `stop=False`.
LIVE = -2


def _couvreur(
    roots: Iterable[Node],
    out_edges: Callable[[Node], Iterable[Node]],
    marks: Callable[[Node], int],
    all_marks: int,
    number: dict[Node, int],
    stop: bool = True,
) -> bool:
    """Couvreur's pass.  `number` holds each node's DFS number while its
    component is open, then -1 if an edge closed a cycle in it (a
    self-loop included) and 0 if not; passes that returned False can
    share it, as complete nodes are neither expanded nor merged with.

    With `stop=False` the pass does not stop at the first accepting
    merge: it numbers everything reachable and codes `LIVE` every node
    from which a cycle carrying every mark is reachable.  A component
    completes only after every component it reaches, so it is live
    exactly when its own union covers every mark on a cycle or one of
    its edges leads into a live component: an edge into a `LIVE` node
    sets the reaching bit in the top open component's union, and a
    live component sets it in its parent's when it completes.  No
    predecessor map or backward pass is needed.  Its answer is the
    same: whether some root is live.
    """
    # The nodes of the open components, in DFS order.
    active: list[Node] = []
    # The bottom entry belongs to the virtual node of the roots: it
    # gets the reaching bit when some root is live.
    root_numbers: list[int] = [0]
    root_marks: list[int] = [0]
    # Every merge sets bit `cycle`, above all acceptance marks, in its
    # component's union: an edge closed a cycle in the component.  Bit
    # `reach` says an edge leads into a live component.
    cycle = 1 << all_marks.bit_length()
    reach = cycle << 1
    fair = all_marks | cycle
    accepted = fair if stop else -1
    count = 0
    # The roots are the edges of a virtual node at the bottom of `todo`.
    todo: list[tuple[Optional[Node], Iterator[Node]]] = [(None, iter(roots))]
    while todo:
        node, edges = todo[-1]
        for target in edges:
            seen = number.get(target)
            if seen is None:
                count += 1
                number[target] = count
                active.append(target)
                root_numbers.append(count)
                root_marks.append(marks(target))
                todo.append((target, iter(out_edges(target))))
                break
            if seen > 0:
                # A cycle closes: the components opened since `target` merge.
                union = cycle
                while root_numbers[-1] > seen:
                    root_numbers.pop()
                    union |= root_marks.pop()
                union |= root_marks[-1]
                root_marks[-1] = union
                if union == accepted:
                    return True
            elif seen == LIVE:
                root_marks[-1] |= reach
        else:
            todo.pop()
            if todo and root_numbers[-1] == number[node]:
                root_numbers.pop()
                union = root_marks.pop()
                if union & reach or union & fair == fair:
                    done = LIVE
                    root_marks[-1] |= reach
                else:
                    done = -1 if union & cycle else 0
                while True:
                    member = active.pop()
                    number[member] = done
                    if member == node:
                        break
    return root_marks[0] > 0


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
    at the anchor.  A candidate not yet numbered runs the loop search,
    which gets back to it, with the witness's loop, exactly when it is
    on a cycle; if not, Couvreur's pass from it numbers its region in
    one DFS numbering shared by all candidates, so a later candidate
    there is answered by lookup.  That loop search skips numbered
    nodes: their components are complete, so they reach neither the
    candidate nor any node that does, and the answer and the loop stay
    the same.  Each node is expanded at most four times: breadth first,
    by one failed loop search (its region is numbered right after),
    depth first, and by the anchor's loop search.
    """
    number: dict[Node, int] = {}

    def loop_through(candidate: Node, skip: dict[Node, int]) -> Optional[list[Node]]:
        # Shortest closed walk: breadth first from the candidate back to it.
        back_parent: dict[Node, Node] = {}
        queue = deque([candidate])
        while queue:
            node = queue.popleft()
            for target in out_edges(node):
                if target == candidate:
                    loop = [node]
                    while loop[-1] != candidate:
                        loop.append(back_parent[loop[-1]])
                    loop.reverse()
                    return loop
                if target not in back_parent and target not in skip:
                    back_parent[target] = node
                    queue.append(target)
        return None

    def witness_loop(node: Node) -> Optional[list[Node]]:
        if not accepting(node):
            return None
        if node in number:
            if number[node] == 0:
                return None
            loop = loop_through(node, {})
            if loop is None:
                raise RuntimeError("internal error: cycle node lost its cycle")
            return loop
        loop = loop_through(node, number)
        if loop is None:
            _couvreur([node], out_edges, partial(eq, node), 1, number)
        return loop

    parent: dict[Node, Optional[Node]] = {}
    # None stands for a virtual node whose edges are the roots.
    queue: deque[Optional[Node]] = deque([None])
    while queue:
        node = queue.popleft()
        for target in roots if node is None else out_edges(node):
            if target not in parent:
                parent[target] = node
                queue.append(target)
                loop = witness_loop(target)
                if loop is not None:
                    # The stem ends at `node`, the anchor's parent.
                    stem = []
                    while node is not None:
                        stem.append(node)
                        node = parent[node]
                    return stem[::-1], loop
    return None
