from collections import Counter, deque

import networkx as nx
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from triltl.search import LIVE, _couvreur, accepting_cycle_reachable, first_accepting_lasso


def graph(edges):
    succ = {}
    for src, dst in edges:
        succ.setdefault(src, []).append(dst)
        succ.setdefault(dst, [])
    return lambda node: succ[node]


def counted(out_edges):
    calls = Counter()

    def wrapped(node):
        calls[node] += 1
        return out_edges(node)

    return wrapped, calls


CHAIN = 3000


def chain_then_cycle():
    """Accepting nodes 0 .. CHAIN-1 in a chain that lies on no cycle,
    then the accepting two-node cycle CHAIN <-> CHAIN+1."""
    edges = [(i, i + 1) for i in range(CHAIN + 1)] + [(CHAIN + 1, CHAIN)]
    return graph(edges)


class TestAcceptingCycleReachable:
    def test_self_loop_counts(self):
        out = graph([(0, 0)])
        assert accepting_cycle_reachable([0], out, lambda n: 1, 1)

    def test_trivial_component_does_not_count(self):
        out = graph([(0, 1)])
        assert not accepting_cycle_reachable([0], out, lambda n: 1, 1)

    def test_marks_are_united_over_a_component(self):
        # 0 -> 1 -> 2 -> 0; each set is met by a different node.
        out = graph([(0, 1), (1, 2), (2, 0)])
        marks = {0: 0b01, 1: 0b10, 2: 0}.get
        assert accepting_cycle_reachable([0], out, marks, 0b11)

    def test_marks_of_different_components_are_not_united(self):
        # Two self-loops joined by a one-way edge: neither cycle has both.
        out = graph([(0, 0), (0, 1), (1, 1)])
        marks = {0: 0b01, 1: 0b10}.get
        assert not accepting_cycle_reachable([0], out, marks, 0b11)

    def test_unreachable_cycle_does_not_count(self):
        out = graph([(0, 1), (2, 2)])
        assert not accepting_cycle_reachable([0], out, lambda n: 1, 1)

    def test_expands_each_node_once(self):
        out, calls = counted(chain_then_cycle())
        marks = lambda n: 1 if n < CHAIN else 0
        assert not accepting_cycle_reachable([0], out, marks, 1)
        assert len(calls) == CHAIN + 2
        assert max(calls.values()) == 1


class TestFirstAcceptingLasso:
    def test_none_without_accepting_cycle(self):
        out = graph([(0, 1), (1, 1)])
        assert first_accepting_lasso([0], out, lambda n: n == 0) is None

    def test_anchor_is_first_in_breadth_first_order(self):
        # 0 -> 1 -> 1 and 0 -> 2 -> 3 -> 2: the self-loop node 1 is
        # discovered before 2 and 3, so it anchors the witness.
        out = graph([(0, 1), (0, 2), (1, 1), (2, 3), (3, 2)])
        assert first_accepting_lasso([0], out, lambda n: n > 0) == ([0], [1])

    def test_stem_and_shortest_loop(self):
        # The loop back to 1 takes the short way through 3, not 2 -> 4.
        out = graph([(0, 1), (1, 2), (1, 3), (2, 4), (4, 1), (3, 1)])
        assert first_accepting_lasso([0], out, lambda n: n == 1) == ([0], [1, 3])

    def test_cyclic_node_completed_in_an_earlier_pass(self):
        # Node 1's self-loop is found inside candidate 0's pass, which
        # completes; the later lookup for candidate 1 must say cyclic.
        out = graph([(0, 1), (1, 1)])
        assert first_accepting_lasso([0], out, lambda n: True) == ([0], [1])

    def test_completed_cycle_is_not_a_cycle_of_a_later_candidate(self):
        # Candidate 2's pass runs into node 1, whose cyclic component was
        # completed by candidate 0's pass; 2 itself lies on no cycle.
        out = graph([(0, 1), (1, 1), (2, 1)])
        accepting = lambda n: n in (0, 2)
        assert first_accepting_lasso([0, 2], out, accepting) is None

    def test_roots_in_declaration_order(self):
        out = graph([(5, 5), (7, 7)])
        assert first_accepting_lasso([7, 5], out, lambda n: True) == ([], [7])

    def test_failed_candidate_numbers_its_region_for_later_lookups(self):
        # Candidate 0's loop search fails, and its pass numbers 1, 2, 3.
        # Candidate 1 is then answered acyclic and candidate 2 cyclic by
        # lookup: no node is expanded by a second loop search.
        out, calls = counted(graph([(0, 1), (1, 2), (2, 3), (3, 2)]))
        found = first_accepting_lasso([0], out, lambda n: n < 3)
        assert found == ([0, 1], [2, 3])
        assert calls == {0: 3, 1: 3, 2: 3, 3: 3}

    def test_numbered_anchor_loops_through_complete_nodes(self):
        # Candidate 0's pass completes the cycle 1 <-> 2.  The loop of
        # anchor 1 must run through node 2 although 2 is numbered.
        out = graph([(0, 1), (1, 2), (2, 1)])
        found = first_accepting_lasso([0], out, lambda n: n < 2)
        assert found == ([0], [1, 2])

    def test_a_node_expanded_four_times(self):
        # Node 1 is expanded by candidate 0's failed loop search, by its
        # pass, breadth first, and by the loop search of anchor 2.
        out, calls = counted(graph([(0, 1), (1, 2), (2, 1)]))
        found = first_accepting_lasso([0], out, lambda n: n != 1)
        assert found == ([0, 1], [2, 1])
        assert calls[1] == 4
        assert max(calls.values()) <= 4

    def test_linear_on_chain_of_acyclic_candidates(self):
        out, calls = counted(chain_then_cycle())
        found = first_accepting_lasso([0], out, lambda n: True)
        assert found == (list(range(CHAIN)), [CHAIN, CHAIN + 1])
        assert len(calls) == CHAIN + 2
        assert max(calls.values()) <= 3


@st.composite
def marked_graphs(draw):
    """A digraph on at most 8 nodes with its edges in listed order, at
    least one root, an accepting set, and marks over at most 2
    acceptance sets.

    Among random edges, in random order, lies a path from the first root
    to a cycle, and in four examples of five one node of that cycle is
    accepting, so that most examples have a witness."""
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1)
    roots = draw(st.lists(node, min_size=1, max_size=3))
    walk = draw(st.lists(node, min_size=1, max_size=n))
    back = draw(st.integers(0, len(walk) - 1))
    planted = [*zip([roots[0], *walk], walk), (walk[-1], walk[back])]
    extra = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    edges = draw(st.permutations(planted + extra))
    accepting = draw(st.frozensets(node))
    if draw(st.integers(0, 4)) < 4:
        accepting |= {draw(st.sampled_from(walk[back:]))}
    sets = draw(st.integers(0, 2))
    all_marks = (1 << sets) - 1
    marks = draw(st.lists(st.integers(0, all_marks), min_size=n, max_size=n))
    return n, edges, roots, accepting, marks, all_marks


class TestAgainstNetworkx:
    # About 1 % of random examples have an anchor already numbered by an
    # earlier candidate's pass; the explicit examples pin one anchor of
    # each kind: numbered, then fresh.
    @settings(max_examples=600, deadline=None)
    @given(marked_graphs())
    @example((3, [(0, 1), (1, 2), (2, 1)], [0], frozenset({0, 1}), [0, 0, 0], 0))
    @example((3, [(0, 1), (1, 2), (2, 1)], [0], frozenset({1}), [0, 0, 0], 0))
    def test_both_routines_agree_with_networkx_sccs(self, case):
        n, edges, roots, accepting, marks, all_marks = case
        succ = {v: [] for v in range(n)}
        for src, dst in edges:
            succ[src].append(dst)
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(edges)
        cyclic = set()
        fair = False
        reachable = set(roots).union(*(nx.descendants(nxg, r) for r in roots))
        for component in nx.strongly_connected_components(nxg):
            v = next(iter(component))
            if len(component) > 1 or nxg.has_edge(v, v):
                cyclic |= component
                union = 0
                for member in component:
                    union |= marks[member]
                fair |= union == all_marks and v in reachable
        out = succ.__getitem__
        found = accepting_cycle_reachable(roots, out, marks.__getitem__, all_marks)
        assert found == fair

        # Breadth-first discovery order and parents, roots first.
        parent = {}
        order = []
        for root in roots:
            if root not in parent:
                parent[root] = None
                order.append(root)
        queue = deque(order)
        while queue:
            v = queue.popleft()
            for w in succ[v]:
                if w not in parent:
                    parent[w] = v
                    order.append(w)
                    queue.append(w)
        anchors = [v for v in order if v in accepting and v in cyclic]
        lasso = first_accepting_lasso(roots, out, accepting.__contains__)
        if not anchors:
            assert lasso is None
            return
        anchor = anchors[0]
        # An earlier candidate that reaches the anchor has numbered it.
        earlier = [v for v in order[: order.index(anchor)] if v in accepting]
        numbered = any(nx.has_path(nxg, v, anchor) for v in earlier)
        event("numbered anchor" if numbered else "fresh anchor")
        stem, loop = lasso
        chain = []
        v = parent[anchor]
        while v is not None:
            chain.append(v)
            v = parent[v]
        assert stem == chain[::-1]
        assert loop[0] == anchor
        walk = loop + [anchor]
        assert all(nxg.has_edge(a, b) for a, b in zip(walk, walk[1:]))
        shortest = min(
            nx.shortest_path_length(nxg, w, anchor) + 1
            for w in succ[anchor]
            if nx.has_path(nxg, w, anchor)
        )
        assert len(loop) == shortest
        # The loop is the one breadth-first search from the anchor, in
        # edge order, closes first: at the first dequeued node with an
        # edge back to the anchor.
        back = {anchor: None}
        queue = deque([anchor])
        v = queue.popleft()
        while anchor not in succ[v]:
            for w in succ[v]:
                if w not in back:
                    back[w] = v
                    queue.append(w)
            v = queue.popleft()
        expected = []
        while v is not None:
            expected.append(v)
            v = back[v]
        assert loop == expected[::-1]

    @settings(max_examples=600, deadline=None)
    @given(marked_graphs())
    def test_liveness_pass_agrees_with_networkx_sccs(self, case):
        # The pass that does not stop codes LIVE exactly the reachable
        # nodes that reach a cycle whose component carries every mark.
        n, edges, roots, _, marks, all_marks = case
        succ = {v: [] for v in range(n)}
        for src, dst in edges:
            succ[src].append(dst)
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(edges)
        fair = set()
        for component in nx.strongly_connected_components(nxg):
            v = next(iter(component))
            union = 0
            for member in component:
                union |= marks[member]
            if (len(component) > 1 or nxg.has_edge(v, v)) and union == all_marks:
                fair |= component
        reachable = set(roots).union(*(nx.descendants(nxg, r) for r in roots))
        live = {v for v in reachable if v in fair or fair & nx.descendants(nxg, v)}
        event("some root live" if live & set(roots) else "no root live")
        number = {}
        out, mark = succ.__getitem__, marks.__getitem__
        found = _couvreur(roots, out, mark, all_marks, number, stop=False)
        assert set(number) == reachable
        assert {v for v, code in number.items() if code == LIVE} == live
        assert found == accepting_cycle_reachable(roots, out, mark, all_marks)
