from collections import Counter

from triltl.search import accepting_cycle_reachable, first_accepting_lasso


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

    def test_roots_in_declaration_order(self):
        out = graph([(5, 5), (7, 7)])
        assert first_accepting_lasso([7, 5], out, lambda n: True) == ([], [7])

    def test_linear_on_chain_of_acyclic_candidates(self):
        out, calls = counted(chain_then_cycle())
        found = first_accepting_lasso([0], out, lambda n: True)
        assert found == (list(range(CHAIN)), [CHAIN, CHAIN + 1])
        assert len(calls) == CHAIN + 2
        assert max(calls.values()) <= 3
