import hashlib
import json
import re
from pathlib import Path

import pytest

from triltl import (
    HoaFormatError,
    TRUE,
    Truth,
    atoms_of,
    build_automaton,
    format_state,
    parse_core,
    read_hoa,
    to_dot,
    to_hoa,
)
from helpers import CORPUS, validate_dot

#: The X^k a chain and the acceptance corpus, each over its own atoms.
PINNED_FORMULAS = tuple(dict.fromkeys(["X " * k + "a" for k in range(1, 7)] + list(CORPUS)))

#: sha1 of the HOA and DOT text of each pinned formula's automaton per
#: truth value, as the emitters wrote them before the construction was
#: rebuilt on a prefix trie.
GOLDEN = json.loads((Path(__file__).parent / "emit_sha1.json").read_text(encoding="utf-8"))


def pinned_automaton(text, value):
    psi = parse_core(text)
    return build_automaton(psi, tuple(sorted(atoms_of(psi))), value)


def example_automaton(value=Truth.UNKNOWN):
    return build_automaton(parse_core("X a"), ["a"], value)


def edge_set(g):
    return {(sid, g.patterns[sid], tgt) for sid in range(len(g.states)) for tgt in g.succ[sid]}


def acceptance_membership(g):
    return tuple(
        frozenset(i for i, members in enumerate(g.acceptance) if sid in members)
        for sid in range(len(g.states))
    )


class TestDot:
    def test_example_counts_and_initial_marking(self):
        dot = to_dot(example_automaton())
        nodes, edges = validate_dot(dot)
        assert nodes == 9
        assert dot.count("fillcolor=yellow") == 3
        assert "∅" in dot

    def test_edge_statement_per_transition_pair(self):
        g = example_automaton()
        _, edges = validate_dot(to_dot(g))
        assert edges == sum(len(s) for s in g.succ)

    def test_deadlocked_state_still_emitted(self):
        g = build_automaton(parse_core("X (a U b)"), ["a", "b"], Truth.TRUE)
        assert any(not s for s in g.succ)
        nodes, _ = validate_dot(to_dot(g))
        assert nodes == len(g.states)

    def test_byte_determinism(self):
        first = to_dot(example_automaton())
        second = to_dot(example_automaton())
        assert first == second
        assert "\r" not in first and first.endswith("\n")

    def test_node_labels_list_acceptance_indices(self):
        g = build_automaton(parse_core("a U b"), ["a", "b"], Truth.TRUE)
        dot = to_dot(g)
        assert 'acc: 0,1"' in dot or 'acc: 1"' in dot


class TestHoa:
    def test_example_header(self):
        hoa = to_hoa(example_automaton())
        lines = hoa.splitlines()
        assert lines[0] == "HOA: v1"
        assert "States: 9" in lines
        assert sum(1 for l in lines if l.startswith("Start:")) == 3
        assert 'AP: 2 "a" "a__neg"' in lines
        assert "Acceptance: 1 Inf(0)" in lines
        assert "acc-name: generalized-Buchi 1" in lines
        assert sum(1 for l in lines if l.startswith("State:")) == 9
        assert all("{0}" in l for l in lines if l.startswith("State:"))

    def test_edge_labels_encode_three_values(self):
        hoa = to_hoa(example_automaton())
        assert "[0 & !1]" in hoa    # atom true
        assert "[!0 & 1]" in hoa    # atom false
        assert "[!0 & !1]" in hoa   # atom unknown

    def test_empty_initial_set_still_valid(self):
        g = build_automaton(TRUE, [], Truth.FALSE)
        hoa = to_hoa(g)
        assert not any(l.startswith("Start:") for l in hoa.splitlines())
        parsed = read_hoa(hoa)
        assert parsed.initial == frozenset()
        assert parsed.num_states == 1

    def test_no_atom_edges_use_true_label(self):
        hoa = to_hoa(build_automaton(TRUE, [], Truth.TRUE))
        assert "[t] 0" in hoa

    def test_byte_determinism(self):
        assert to_hoa(example_automaton()) == to_hoa(example_automaton())

    @pytest.mark.parametrize(
        "text,alphabet",
        [
            ("X a", ("a",)),
            ("a U b", ("a", "b")),
            ("G (a -> F b)", ("a", "b")),
            ("X a", ("a", "b")),
            ("(a U b) & (b U a)", ("a", "b")),
        ],
    )
    def test_round_trip_isomorphism(self, text, alphabet):
        for value in Truth:
            g = build_automaton(parse_core(text), alphabet, value)
            parsed = read_hoa(to_hoa(g))
            assert parsed.num_states == len(g.states)
            assert parsed.initial == g.initial
            assert parsed.acceptance_count == len(g.acceptance)
            assert parsed.state_acceptance == acceptance_membership(g)
            assert set(parsed.edges) == edge_set(g)
            assert parsed.atoms == g.alphabet

    def test_reader_rejects_foreign_documents(self):
        with pytest.raises(HoaFormatError):
            read_hoa("HOA: v1\nStates: 1\n--BODY--\nState: 0\n[t] 0\n")  # no Acceptance
        with pytest.raises(HoaFormatError):
            read_hoa("not hoa at all")

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ('State: 8 "', 'State: -1 "', "state '-1'"),
            ("[!0 & 1] 8\n--END--", "[!0 & 1] 99\n--END--", "edge target '99'"),
            ("Start: 6", "Start: 91", "start state '91'"),
            ('State: 0 "∅" {0}', 'State: 0 "∅" {7}', "acceptance set '7'"),
            ('State: 0 "∅" {0}', 'State: 0 "∅ {0}', "quoted name"),
            ('"a__neg"', '"a__neg', "quoted name"),
            ("States: 9", "States: nine", "state count 'nine'"),
            ("Acceptance: 1 Inf(0)", "Acceptance: Inf(0)", "acceptance count"),
            ("[!0 & 1] 8\n--END--", "[!0 & 1 8\n--END--", "unterminated edge label"),
            (
                "Acceptance: 1 Inf(0)",
                "Acceptance: 2 Fin(0)|Fin(1)",
                "unsupported acceptance condition 'Fin(0)|Fin(1)'",
            ),
            ("Acceptance: 1 Inf(0)", "Acceptance: 1 Inf(1)", "acceptance condition 'Inf(1)'"),
            (
                '[!0 & !1] 2\nState: 1 "',
                '[!0 & !1] 2\nState: 0 "∅" {0}\n[!0 & !1] 1\nState: 1 "',
                "state 0 is declared twice",
            ),
            ("acc-name: generalized-Buchi 1", "acc-name: Rabin 3", "unsupported acc-name 'Rabin'"),
            (
                "acc-name: generalized-Buchi 1",
                "acc-name: generalized-Buchi 2",
                "acc-name names 2 sets, Acceptance: has 1",
            ),
            (
                "acc-name: generalized-Buchi 1",
                "acc-name: generalized-Buchi one",
                "acc-name set count 'one'",
            ),
            (
                "properties: trans-labels explicit-labels state-acc",
                "properties: trans-acc deterministic",
                "unsupported property 'trans-acc'",
            ),
            (
                "properties: trans-labels explicit-labels state-acc",
                "properties: trans-labels explicit-labels state-acc deterministic",
                "unsupported property 'deterministic'",
            ),
        ],
    )
    def test_reader_rejects_malformed_fields(self, old, new, message):
        doc = to_hoa(example_automaton())
        assert read_hoa(doc).num_states == 9
        assert doc.count(old) == 1
        with pytest.raises(HoaFormatError, match=re.escape(message)):
            read_hoa(doc.replace(old, new))

    def test_reader_rejects_contradictory_labels(self):
        doc = (
            "HOA: v1\nStates: 1\nAP: 2 \"a\" \"a__neg\"\n"
            "Acceptance: 1 Inf(0)\n--BODY--\nState: 0 {0}\n[0 & 1] 0\n--END--\n"
        )
        with pytest.raises(HoaFormatError, match="both"):
            read_hoa(doc)


class TestGoldenBytes:
    """State numbering, labels, edges and both texts stay byte for byte
    what they were."""

    def test_every_pinned_formula_has_digests(self):
        assert list(GOLDEN) == list(PINNED_FORMULAS)

    @pytest.mark.parametrize("text", PINNED_FORMULAS)
    def test_hoa_and_dot_digests(self, text):
        for value in Truth:
            g = pinned_automaton(text, value)
            digests = [
                hashlib.sha1(emit(g).encode("utf-8")).hexdigest() for emit in (to_hoa, to_dot)
            ]
            assert digests == GOLDEN[text][value.name], value


class TestLabels:
    """The labels the construction renders once are `format_state` of
    each state, and the HOA state names carry them."""

    @pytest.mark.parametrize("text", PINNED_FORMULAS)
    def test_labels_match_format_state_and_hoa_names(self, text):
        for value in Truth:
            g = pinned_automaton(text, value)
            expected = [format_state(vec, g.closure) for vec in g.states]
            assert [g.state_label(q) for q in range(len(g.states))] == expected
            assert list(read_hoa(to_hoa(g)).state_names) == expected
