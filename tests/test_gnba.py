from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triltl import (
    ABSENT,
    NEG,
    POS,
    Atom,
    StateSpaceLimitError,
    Truth,
    UnknownAtomError,
    acceptance_sets,
    atoms_of,
    build_automaton,
    closure_of,
    degeneralize,
    enumerate_elementary,
    format_state,
    nba_accepts_lasso,
    parse_core,
)
from triltl import gnba
from triltl.gnba import LazyFamily, build_family
from triltl.letters import restrict_letter
from helpers import (
    CORPUS,
    all_letters,
    enumerate_lassos,
    formulas_over,
    gnba_accepts_lasso,
    naive_acceptance,
    naive_elementary,
    naive_successors,
    pair_product,
    small_formulas,
    vec_of,
)

A = Atom("a")


def letter(*literals):
    return frozenset(literals)


class TestBuildAutomaton:
    def test_example_next_unknown(self):
        g = build_automaton(parse_core("X a"), ["a"], Truth.UNKNOWN)
        assert len(g.states) == 9
        initial_labels = {g.state_label(i) for i in g.initial}
        assert initial_labels == {"∅", "{a}", "{!a}"}
        assert g.acceptance == (frozenset(range(9)),)

    def test_single_atom_true(self):
        g = build_automaton(A, ["a"], Truth.TRUE)
        assert len(g.states) == 3
        assert {g.state_label(i) for i in g.initial} == {"{a}"}

    def test_until_false_initials_are_golden(self):
        g = build_automaton(parse_core("a U b"), ["a", "b"], Truth.FALSE)
        assert len(g.states) == 13
        u_idx = g.closure.index[parse_core("a U b")]
        expected = {i for i, vec in enumerate(g.states) if vec[u_idx] == NEG}
        assert g.initial == expected
        assert len(g.initial) == 3

    def test_initial_sets_for_negation_rooted_formula(self):
        psi = parse_core("!a")
        top = build_automaton(psi, ["a"], Truth.TRUE)
        bot = build_automaton(psi, ["a"], Truth.FALSE)
        unk = build_automaton(psi, ["a"], Truth.UNKNOWN)
        assert {top.state_label(i) for i in top.initial} == {"{!a}"}
        assert {bot.state_label(i) for i in bot.initial} == {"{a}"}
        assert {unk.state_label(i) for i in unk.initial} == {"∅"}

    def test_unknown_atom_rejected(self):
        with pytest.raises(UnknownAtomError):
            build_automaton(parse_core("X a"), ["b"], Truth.UNKNOWN)

    def test_duplicate_alphabet_rejected(self):
        with pytest.raises(ValueError):
            build_automaton(A, ["a", "a"], Truth.TRUE)

    @pytest.mark.parametrize("name", ["true", "false", "B", "a b", ""])
    def test_alphabet_name_that_is_no_atom_name_rejected(self, name):
        with pytest.raises(UnknownAtomError, match=f"alphabet name {name!r} is not an atom name"):
            build_automaton(Atom(name), [name], Truth.TRUE)

    def test_state_cap_propagates(self):
        with pytest.raises(StateSpaceLimitError):
            build_automaton(parse_core("a U b"), ["a", "b"], Truth.TRUE, cap=8)

    def test_q0_partition(self):
        for text in ("a", "X a", "a U b", "G (a -> F b)"):
            psi = parse_core(text)
            alphabet = sorted({"a", "b"})
            family = build_family(psi, alphabet)
            ids = [family[v].initial for v in Truth]
            union = ids[0] | ids[1] | ids[2]
            assert union == frozenset(range(len(family[Truth.TRUE].states)))
            assert not (ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2])

    def test_value_only_changes_initial_states(self):
        psi = parse_core("(a U b) & (b U a)")
        family = build_family(psi, ["a", "b"])
        top, bot, unk = family[Truth.TRUE], family[Truth.FALSE], family[Truth.UNKNOWN]
        assert top.states == bot.states == unk.states
        assert top.succ == bot.succ == unk.succ
        assert top.patterns == bot.patterns == unk.patterns
        assert top.acceptance == bot.acceptance == unk.acceptance
        assert len({top.initial, bot.initial, unk.initial}) == 3


def automaton(text):
    """The automaton for TRUE of `text` over the formula's own atoms."""
    psi = parse_core(text)
    return build_automaton(psi, sorted(atoms_of(psi)), Truth.TRUE)


def reads(g, vec, lt):
    """Does the state `vec` of `g` read the letter `lt`: is the letter,
    restricted to the closure's atoms, the state's pattern?"""
    return restrict_letter(lt, g.closure.atoms) == g.patterns[g.states.index(vec)]


def successor_vecs(g, vec, candidates=None):
    """The successors of the state `vec` of `g`, checked against the
    naive oracle."""
    out = [g.states[t] for t in g.succ[g.states.index(vec)]]
    assert out == naive_successors(g.closure, vec, candidates)
    return out


class TestSuccessors:
    """A state's successor list in the eager automaton, and the letters
    its guard lets it read."""

    def test_next_positive_forces_positive_operand(self):
        g = automaton("X a")
        source = vec_of(g.closure, {"a": POS, "X a": POS})
        assert reads(g, source, letter(("a", True)))
        labels = {format_state(v, g.closure) for v in successor_vecs(g, source)}
        assert labels == {"{a}", "{a, X a}", "{a, !X a}"}

    def test_letter_guard_mismatch_gives_no_successors(self):
        g = automaton("X a")
        source = vec_of(g.closure, {"a": POS, "X a": POS})
        assert not reads(g, source, letter())

    def test_absent_next_forces_absent_operand(self):
        g = automaton("X a")
        empty = (ABSENT, ABSENT)
        assert reads(g, empty, letter())
        labels = {format_state(v, g.closure) for v in successor_vecs(g, empty)}
        assert labels == {"∅", "{X a}", "{!X a}"}

    def test_negative_next_forces_negative_operand(self):
        g = automaton("X a")
        source = vec_of(g.closure, {"X a": NEG})
        assert reads(g, source, letter())
        assert {format_state(v, g.closure) for v in successor_vecs(g, source)} == {
            "{!a}",
            "{!a, X a}",
            "{!a, !X a}",
        }

    def test_pending_until_propagates(self):
        g = automaton("a U b")
        source = vec_of(g.closure, {"a": POS, "a U b": POS})
        u_idx = g.closure.index[parse_core("a U b")]
        assert reads(g, source, letter(("a", True)))
        succ = successor_vecs(g, source)
        assert succ
        assert all(vec[u_idx] == POS for vec in succ)

    def test_satisfied_until_is_unconstrained(self):
        g = automaton("a U b")
        source = vec_of(g.closure, {"b": POS, "a U b": POS})
        assert reads(g, source, letter(("b", True)))
        assert len(successor_vecs(g, source)) == len(enumerate_elementary(g.closure))

    def test_negated_until_with_negated_right_propagates(self):
        g = automaton("a U b")
        source = vec_of(g.closure, {"b": NEG, "a U b": NEG})
        u_idx = g.closure.index[parse_core("a U b")]
        assert reads(g, source, letter(("b", False)))
        succ = successor_vecs(g, source)
        assert succ
        assert all(vec[u_idx] == NEG for vec in succ)

    def test_deadlocking_state_is_permitted(self):
        # Pending X(a U b) forces the until positively in the successor,
        # while an absent until with a positive left operand forbids it.
        g = automaton("X (a U b)")
        source = vec_of(g.closure, {"a": POS, "X (a U b)": POS})
        assert successor_vecs(g, source) == []

    def test_every_elementary_source_has_one_enabled_pattern(self):
        g = automaton("a U b")
        c = g.closure
        for sid, vec in enumerate(g.states):
            enabled = {lt for lt in all_letters(["a", "b"]) if g.succ[sid] and reads(g, vec, lt)}
            own = frozenset((name, vec[i] == POS) for i, name in c.atom_coords if vec[i] != ABSENT)
            assert enabled == ({own} if g.succ[sid] else set())

    @pytest.mark.parametrize("text", CORPUS)
    def test_shared_succ_matches_per_state_successors(self, text):
        psi = parse_core(text)
        family = build_family(psi, sorted(atoms_of(psi)))
        g = family[Truth.TRUE]
        closure = g.closure
        candidates = naive_elementary(closure)
        ids = {vec: sid for sid, vec in enumerate(g.states)}
        expected = [
            tuple(ids[nxt] for nxt in naive_successors(closure, vec, candidates))
            for vec in g.states
        ]
        for value in Truth:
            assert list(family[value].succ) == expected
            assert family[value].acceptance == naive_acceptance(closure, g.states)

    @pytest.mark.parametrize("text", ["!(a U b)", "a R (b U a)"])
    def test_successors_match_the_oracle_under_negated_untils(self, text):
        g = automaton(text)
        c = g.closure
        candidates = naive_elementary(c)
        assert list(g.states) == sorted(candidates)
        for vec in g.states:
            successor_vecs(g, vec, candidates)
        states = sorted(candidates, reverse=True)
        assert tuple(acceptance_sets(states, c)) == naive_acceptance(c, states)

    def test_calls_over_one_closure_grow_one_trie(self, monkeypatch):
        built = []

        class CountedFamily(gnba.LazyFamily):
            def __init__(self, *args):
                built.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(gnba, "LazyFamily", CountedFamily)
        c = closure_of(parse_core("a R (b U a)"))
        states = sorted(naive_elementary(c))
        for vec in states:
            assert tuple(acceptance_sets([vec], c)) == naive_acceptance(c, [vec])
        assert enumerate_elementary(c) == states
        assert tuple(acceptance_sets(states, c)) == naive_acceptance(c, states)
        assert enumerate_elementary(c) == states
        assert built == [c]

    @pytest.mark.parametrize(
        "vec",
        [
            (ABSENT, POS, ABSENT),  # b present forces a U b present
            (ABSENT, ABSENT),  # one coordinate short
            (ABSENT, ABSENT, 3),  # not a mark
        ],
    )
    def test_non_elementary_vectors_are_refused(self, vec):
        c = closure_of(parse_core("a U b"))
        with pytest.raises(ValueError, match="not an elementary set"):
            acceptance_sets([(ABSENT,) * 3, vec], c)


class TestLazyFamily:
    """The lazy automata list, for each letter, exactly the eager
    automata's states of that pattern, in the same order."""

    @pytest.mark.parametrize("text", CORPUS)
    def test_lists_equal_the_pattern_filtered_eager_lists(self, text):
        psi = parse_core(text)
        family = build_family(psi, ("a", "b"))
        eager = family[Truth.TRUE]
        eager_id = {vec: q for q, vec in enumerate(eager.states)}
        letters = all_letters(eager.closure.atoms)
        lazy = LazyFamily(eager.closure, letters)

        def as_eager(ids):
            return [eager_id[lazy.vecs[q]] for q in ids]

        def filtered(ids, letter):
            return [q for q in ids if eager.patterns[q] == letter]

        todo = []
        for value in Truth:
            for l, letter in enumerate(letters):
                roots = lazy.roots(value, l)
                assert as_eager(roots) == filtered(sorted(family[value].initial), letter)
                todo += roots
        seen = set(todo)
        while todo:
            q = todo.pop()
            (source,) = as_eager([q])
            assert lazy.marks[q] == sum(
                1 << k for k, members in enumerate(eager.acceptance) if source in members
            )
            assert eager.marks[source] == lazy.marks[q]
            for l, letter in enumerate(letters):
                targets = lazy.targets(q, l)
                assert as_eager(targets) == filtered(eager.succ[source], letter)
                todo += [t for t in targets if t not in seen]
                seen.update(targets)
        assert lazy.all_marks == (1 << len(eager.acceptance)) - 1
        assert eager.all_marks == lazy.all_marks
        # Every state built, a trie leaf, was listed by some root or target.
        n = len(eager.closure.bases)
        assert seen == {q for q, vec in enumerate(lazy.vecs) if len(vec) == n}


class TestLazyAgainstEager:
    """A lazy family pinned to a random ordered subset of the closure's
    letters hands out only states of the eager automaton, each with the
    eager state's marks and, per letter, its successors in order."""

    @settings(max_examples=80, deadline=None)
    @given(small_formulas, st.data())
    def test_every_listed_state_matches_the_eager_state(self, psi, data):
        family = build_family(psi, ("a", "b"))
        eager = family[Truth.TRUE]
        eager_id = {vec: q for q, vec in enumerate(eager.states)}
        letters = data.draw(
            st.lists(st.sampled_from(all_letters(eager.closure.atoms)), min_size=1, unique=True)
        )
        lazy = LazyFamily(eager.closure, letters)
        vecs = lazy.vecs

        def as_eager(ids, letter):
            """The eager ids of `ids`, each checked to have pattern `letter`."""
            out = [eager_id[vecs[q]] for q in ids]
            assert all(eager.patterns[q] == letter for q in out)
            return out

        def filtered(ids, letter):
            return [q for q in ids if eager.patterns[q] == letter]

        todo = []
        for value in Truth:
            for l, letter in enumerate(letters):
                roots = lazy.roots(value, l)
                assert as_eager(roots, letter) == filtered(sorted(family[value].initial), letter)
                todo += roots
        seen = set(todo)
        while todo:
            q = todo.pop()
            source = eager_id[vecs[q]]
            assert lazy.marks[q] == eager.marks[source]
            for l, letter in enumerate(letters):
                targets = lazy.targets(q, l)
                assert as_eager(targets, letter) == filtered(eager.succ[source], letter)
                todo += [t for t in targets if t not in seen]
                seen.update(targets)


class TestExtraAlphabetAtoms:
    def test_letters_are_free_on_atoms_outside_the_closure(self):
        g = build_automaton(parse_core("X a"), ["a", "b"], Truth.UNKNOWN)
        empty = (ABSENT, ABSENT)
        assert g.succ[g.states.index(empty)]
        for extra in (letter(), letter(("b", True)), letter(("b", False))):
            assert reads(g, empty, extra)
        assert not reads(g, empty, letter(("a", True)))

    def test_state_space_ignores_extra_atoms(self):
        small = build_automaton(parse_core("X a"), ["a"], Truth.UNKNOWN)
        wide = build_automaton(parse_core("X a"), ["a", "b"], Truth.UNKNOWN)
        assert small.states == wide.states
        assert small.succ == wide.succ


class TestAcceptanceSets:
    def test_no_until_gives_only_the_full_set(self):
        c = closure_of(parse_core("X a"))
        states = enumerate_elementary(c)
        assert acceptance_sets(states, c) == [frozenset(range(len(states)))]

    def test_pending_until_state_is_excluded(self):
        c = closure_of(parse_core("a U b"))
        states = enumerate_elementary(c)
        f_u = acceptance_sets(states, c)[0]
        pending = states.index(vec_of(c, {"a": POS, "a U b": POS}))
        assert pending not in f_u

    def test_empty_state_is_accepting(self):
        c = closure_of(parse_core("a U b"))
        states = enumerate_elementary(c)
        f_u = acceptance_sets(states, c)[0]
        assert states.index((ABSENT,) * 3) in f_u

    def test_one_set_per_until_plus_q(self):
        c = closure_of(parse_core("(a U b) & (b U a)"))
        states = enumerate_elementary(c)
        sets = acceptance_sets(states, c)
        assert len(sets) == 3
        assert sets[-1] == frozenset(range(len(states)))


class TestDegeneralize:
    def test_single_set_is_isomorphic(self):
        g = build_automaton(parse_core("X a"), ["a"], Truth.UNKNOWN)
        n = degeneralize(g)
        assert n.counters == 1
        assert len(n.states) == len(g.states)
        assert n.accepting == frozenset(range(len(g.states)))
        assert n.initial == g.initial
        assert [s for s, _ in n.states] == list(range(len(g.states)))

    @pytest.mark.parametrize("text", ["X a", "a U b", "(a U b) & (b U a)"])
    def test_marks_are_the_accepting_states(self, text):
        n = degeneralize(build_automaton(parse_core(text), ["a", "b"], Truth.TRUE))
        assert n.all_marks == 1
        assert len(n.marks) == len(n.states)
        for q in range(len(n.states)):
            assert n.marks[q] == (q in n.accepting)

    def test_state_count_is_product(self):
        g = build_automaton(parse_core("(a U b) & (b U a)"), ["a", "b"], Truth.TRUE)
        n = degeneralize(g)
        assert len(n.states) == len(g.states) * len(g.acceptance)

    @pytest.mark.parametrize("text", ["a U b", "X a", "G a", "(a U b) & (b U a)"])
    def test_membership_preserved(self, text):
        psi = parse_core(text)
        alphabet = tuple(sorted({"a", "b"}))
        for value in Truth:
            g = build_automaton(psi, alphabet, value)
            n = degeneralize(g)
            atoms = set(g.closure.atoms)
            # The oracle reads a word only through its letters restricted
            # to the closure's atoms and the length of its stem.
            oracle = {}
            for word in enumerate_lassos(alphabet, 2, 2):
                key = (tuple(restrict_letter(lt, atoms) for lt in word.letters), len(word.stem))
                if key not in oracle:
                    oracle[key] = gnba_accepts_lasso(g, word)
                expected = oracle[key]
                assert nba_accepts_lasso(n, word) == expected
                assert nba_accepts_lasso(g, word) == expected

    def test_counter_advances_only_when_leaving_owed_set(self):
        g = build_automaton(parse_core("a U b"), ["a", "b"], Truth.TRUE)
        n = degeneralize(g)
        k = n.counters
        for sid, (gid, counter) in enumerate(n.states):
            expected = counter % k + 1 if gid in g.acceptance[counter - 1] else counter
            for tid in n.succ[sid]:
                assert n.states[tid][1] == expected


class TestLinkageOracle:
    """Successors and acceptance agree with the formula-level oracle,
    which reads none of the library's compiled tables."""

    @settings(max_examples=60, deadline=None)
    @given(small_formulas)
    def test_succ_and_acceptance_match_the_oracle(self, psi):
        closure = closure_of(psi)
        if len(closure.bases) > 6:
            return
        family = build_family(psi, sorted(atoms_of(psi)))
        g = family[Truth.TRUE]
        candidates = naive_elementary(closure)
        for q, vec in enumerate(g.states):
            assert [g.states[t] for t in g.succ[q]] == naive_successors(closure, vec, candidates)
        for value in Truth:
            assert family[value].acceptance == naive_acceptance(closure, g.states)


class TestDisjointness:
    """No word is accepted by two automata of one family: the pair graph
    of every two of them has no accepting cycle."""

    def test_corpus_pairs_are_empty(self):
        nodes = 0
        for text in CORPUS:
            psi = parse_core(text)
            family = build_family(psi, sorted(atoms_of(psi)))
            for first, second in combinations(Truth, 2):
                nonempty, size = pair_product(family[first], family[second])
                assert not nonempty, (text, first, second)
                nodes += size
        # The 111 pair graphs together, so that no product is empty for
        # want of nodes.
        assert nodes == 3076

    @settings(max_examples=60, deadline=None)
    @given(formulas_over(("a", "b", "c")))
    def test_pairs_are_empty_over_three_atoms(self, psi):
        family = build_family(psi, sorted(atoms_of(psi)))
        for first, second in combinations(Truth, 2):
            assert not pair_product(family[first], family[second])[0]
