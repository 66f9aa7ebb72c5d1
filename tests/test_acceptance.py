"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -v -s` to see the
lines as they complete."""

import gc
from dataclasses import dataclass
from time import perf_counter, process_time

import pytest

from triltl import (
    Atom,
    Gnba,
    LassoWord,
    Nba,
    Next,
    Not,
    Truth,
    atoms_of,
    build_automaton,
    check_model,
    degeneralize,
    enumerate_lassos,
    eval_lasso,
    eval_lasso_two_valued,
    nba_accepts_lasso,
    parse_core,
    parse_model,
    read_hoa,
    state_members,
    to_dot,
    to_hoa,
)
from triltl.gnba import build_family
from triltl.modelcheck import induced_word
from triltl.syntax import Formula
from helpers import CORPUS, model_doc, validate_dot


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {name}: {status}{suffix}")
    assert ok, f"criterion {name} failed{suffix}"


@dataclass
class CorpusEntry:
    text: str
    psi: Formula
    alphabet: tuple[str, ...]
    family: dict[Truth, Gnba]
    nbas: dict[Truth, Nba]
    lassos: list[LassoWord]
    expected: list[Truth]
    accepted: list[frozenset[Truth]]


@pytest.fixture(scope="module")
def corpus_matrix():
    """Every corpus formula crossed with every lasso (stem, loop <= 2)
    over its own atoms: the oracle value and the set of accepting
    automata per lasso.

    The matrix holds over half a million objects for the whole module.
    They are moved out of the collector's reach while it lives, so that
    a full collection over them cannot land inside a timed construction
    (criterion 6) and pass for construction time."""
    entries = []
    for text in CORPUS:
        psi = parse_core(text)
        alphabet = tuple(sorted(atoms_of(psi)))
        family = build_family(psi, alphabet)
        nbas = {value: degeneralize(g) for value, g in family.items()}
        lassos = list(enumerate_lassos(alphabet, 2, 2))
        expected = []
        accepted = []
        for word in lassos:
            expected.append(eval_lasso(psi, word))
            accepted.append(
                frozenset(
                    value for value in Truth if nba_accepts_lasso(nbas[value], word)
                )
            )
        entries.append(
            CorpusEntry(text, psi, alphabet, family, nbas, lassos, expected, accepted)
        )
    gc.freeze()
    yield entries
    gc.unfreeze()


def test_criterion_1_example_golden():
    """The next-operator example: 9 exact states, 3 initial, one
    acceptance set."""
    started = perf_counter()
    g = build_automaton(parse_core("X a"), ["a"], Truth.UNKNOWN)
    elapsed = perf_counter() - started

    a = Atom("a")
    xa = Next(a)
    expected_states = {
        frozenset(),
        frozenset({a}),
        frozenset({Not(a)}),
        frozenset({xa}),
        frozenset({Not(xa)}),
        frozenset({a, xa}),
        frozenset({a, Not(xa)}),
        frozenset({Not(a), xa}),
        frozenset({Not(a), Not(xa)}),
    }
    actual_states = {
        frozenset(state_members(vec, g.closure)) for vec in g.states
    }
    initial = {frozenset(state_members(g.states[i], g.closure)) for i in g.initial}
    ok = (
        len(g.states) == 9
        and actual_states == expected_states
        and initial == {frozenset(), frozenset({a}), frozenset({Not(a)})}
        and g.acceptance == (frozenset(range(9)),)
        and elapsed < 1.0
    )
    report("1 example-golden", ok, f"{elapsed * 1000:.0f} ms")


def test_corpus_shape():
    """The corpus matches its declared constraints."""
    assert len(CORPUS) >= 30
    required = {"a", "!a", "a & b", "X a", "a U b", "!(a U b)", "F a", "G a", "a R b"}
    assert required <= set(CORPUS)
    nested_xu = {"X (a U b)", "(X a) U b", "a U (X b)"}
    assert nested_xu <= set(CORPUS)
    for text in CORPUS:
        psi = parse_core(text)
        assert len(atoms_of(psi)) <= 2
        assert _temporal_operators(text) <= 3


def _temporal_operators(text: str) -> int:
    return sum(text.count(op) for op in ("X", "U", "R", "F", "G"))


def test_criterion_2_language_equivalence(corpus_matrix):
    """Membership in the degeneralized automaton coincides with the
    direct three-valued evaluation, for every formula, value, lasso."""
    failures = []
    checked = 0
    for entry in corpus_matrix:
        for word, expected, accepted in zip(
            entry.lassos, entry.expected, entry.accepted
        ):
            for value in Truth:
                checked += 1
                if (value in accepted) != (expected is value):
                    failures.append((entry.text, value, word))
    report(
        "2 language-equivalence",
        not failures,
        f"{checked} membership checks, {len(failures)} mismatches",
    )


def test_criterion_3_partition(corpus_matrix):
    """Each lasso is accepted by exactly one of the three automata, and
    the initial sets partition the state space."""
    bad = 0
    for entry in corpus_matrix:
        initials = [entry.family[value].initial for value in Truth]
        everything = frozenset(range(len(entry.family[Truth.TRUE].states)))
        if initials[0] | initials[1] | initials[2] != everything:
            bad += 1
        if initials[0] & initials[1] or initials[0] & initials[2] or initials[1] & initials[2]:
            bad += 1
        for accepted in entry.accepted:
            if len(accepted) != 1:
                bad += 1
    report("3 partition", bad == 0, f"{bad} violations")


def test_criterion_4_value_invariance(corpus_matrix):
    """States, transitions, patterns, and acceptance sets do not depend
    on the requested truth value."""
    bad = []
    for entry in corpus_matrix:
        top, bot, unk = (entry.family[v] for v in Truth)
        if not (
            top.states == bot.states == unk.states
            and top.succ == bot.succ == unk.succ
            and top.patterns == bot.patterns == unk.patterns
            and top.acceptance == bot.acceptance == unk.acceptance
        ):
            bad.append(entry.text)
    report("4 value-invariance", not bad, f"{len(bad)} formulas differ")


def test_criterion_5_two_valued_conformance(corpus_matrix):
    """On total letters the true-automaton tracks classical LTL and the
    unknown-automaton accepts nothing."""
    failures = 0
    checked = 0
    for entry in corpus_matrix:
        atoms = set(entry.alphabet)
        for word, accepted in zip(entry.lassos, entry.accepted):
            if not word.is_total():
                continue
            checked += 1
            classical = eval_lasso_two_valued(entry.psi, word)
            if (Truth.TRUE in accepted) != classical:
                failures += 1
            if Truth.UNKNOWN in accepted:
                failures += 1
    report(
        "5 two-valued-conformance",
        failures == 0,
        f"{checked} total lassos, {failures} mismatches",
    )


def _build_times(psis, samples: int = 5, least: float = 0.01) -> list[float]:
    """CPU seconds per `build_automaton` of each of `psis`, as the best
    of `samples` samples.  Each sample repeats one build until it has
    lasted at least `least` seconds and divides by the count, as
    `timeit.Timer.autorange` does, so a build of a millisecond is not
    timed alone.  The samples of all formulas take turns, one round per
    sample, so a slow stretch of a shared host falls on every formula
    alike rather than on the one being timed; and the clock is the
    process's own CPU time, so time the host gives to other work is not
    counted."""
    best = [float("inf")] * len(psis)
    for _ in range(samples):
        for i, psi in enumerate(psis):
            count = 0
            started = process_time()
            while True:
                build_automaton(psi, ["a"], Truth.UNKNOWN)
                count += 1
                elapsed = process_time() - started
                if elapsed >= least:
                    break
            best[i] = min(best[i], elapsed / count)
    return best


def test_criterion_6_exponential_scaling():
    """The next-operator chain family: exact 3^(k+1) state counts and
    superlinear construction time."""
    chain = {k: parse_core("X " * k + "a") for k in range(1, 9)}
    counts_ok = all(
        len(build_automaton(psi, ["a"], Truth.UNKNOWN).states) == 3 ** (k + 1)
        for k, psi in chain.items()
    )
    # Only the six formulas the ratios read take turns in the rounds.
    timed = range(3, 9)
    times = dict(zip(timed, _build_times([chain[k] for k in timed])))
    ratios = {k: times[k] / times[k - 1] for k in range(4, 9)}
    ratios_ok = all(r >= 2.0 for r in ratios.values())
    detail = ", ".join(f"t{k}/t{k - 1}={r:.1f}" for k, r in ratios.items())
    report("6 exponential-scaling", counts_ok and ratios_ok, detail)


def test_criterion_7_format_round_trips(corpus_matrix):
    """HOA output re-parses to an isomorphic automaton, DOT output is
    well-formed, and both emissions are byte-stable."""
    bad = []
    for entry in corpus_matrix:
        rebuilt_family = build_family(entry.psi, entry.alphabet)
        for value in Truth:
            g = entry.family[value]
            hoa = to_hoa(g)
            dot = to_dot(g)
            try:
                validate_dot(dot)
            except AssertionError:
                bad.append((entry.text, value, "dot"))
                continue
            parsed = read_hoa(hoa)
            source_edges = {
                (sid, g.patterns[sid], dst)
                for sid in range(len(g.states))
                for dst in g.succ[sid]
            }
            source_acc = tuple(
                frozenset(i for i, members in enumerate(g.acceptance) if sid in members)
                for sid in range(len(g.states))
            )
            iso = (
                parsed.num_states == len(g.states)
                and parsed.initial == g.initial
                and parsed.acceptance_count == len(g.acceptance)
                and parsed.state_acceptance == source_acc
                and set(parsed.edges) == source_edges
            )
            if not iso:
                bad.append((entry.text, value, "hoa"))
            rebuilt = rebuilt_family[value]
            if to_hoa(rebuilt) != hoa or to_dot(rebuilt) != dot:
                bad.append((entry.text, value, "bytes"))
    report("7 format-round-trips", not bad, f"{len(bad)} failures")


def test_criterion_8_verdict_triple():
    """The three reference models come back TRUE, UNDEF, FALSE, and the
    witnesses re-evaluate to their verdicts."""
    cases = [
        (
            model_doc(["s0"], "s0", [["s0", "s0"]], {"s0": {"a": "t"}}),
            Truth.TRUE,
        ),
        (
            model_doc(["s0"], "s0", [["s0", "s0"]], {"s0": {"a": "u"}}),
            Truth.UNKNOWN,
        ),
        (
            model_doc(
                ["s0", "s1"],
                "s0",
                [["s0", "s1"], ["s1", "s1"]],
                {"s0": {"a": "t"}, "s1": {"a": "f"}},
            ),
            Truth.FALSE,
        ),
    ]
    psi = parse_core("G a")
    ok = True
    details = []
    for document, expected in cases:
        model = parse_model(document)
        verdict = check_model(model, psi, ("a",))
        details.append(verdict.value.token)
        if verdict.value is not expected:
            ok = False
            continue
        if expected is Truth.TRUE:
            if verdict.witness is not None:
                ok = False
        else:
            if verdict.witness is None:
                ok = False
                continue
            word = induced_word(model, verdict.witness, ("a",))
            if eval_lasso(psi, word) is not expected:
                ok = False
    report("8 verdict-triple", ok, "/".join(details))
