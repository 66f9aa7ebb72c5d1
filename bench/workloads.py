"""The three benchmark workloads and their output checks.

Each workload turns a seed into a fixed list of inputs and runs one
op per input.  `op` makes exactly the library calls the matching CLI
subcommand makes, wrapped in spans that cost nothing when tracing is
off.  `verify` checks an op's output with code outside the library
(explicit checks, so they hold under `python -O`); the first output of
each input gets the full check, and every later output of the same
input must equal it exactly.  `probe` runs only in the traced phase:
it repeats the public calls the op makes internally, on the same
inputs, so that each layer gets its own span and sizes.
"""

from __future__ import annotations

import hashlib
import statistics
from pathlib import Path
from typing import Optional

import inputs
from triltl import (
    Truth,
    acceptance_sets,
    atoms_of,
    build_automaton,
    build_family,
    check_model,
    closure_of,
    degeneralize,
    enumerate_elementary,
    eval_lasso,
    lasso,
    nba_accepts_lasso,
    parse_core,
    parse_model,
    parse_truth,
    product_nonempty,
    read_hoa,
    to_dot,
    to_hoa,
)
from triltl.modelcheck import induced_word

_TOKEN = {Truth.TRUE: "TRUE", Truth.FALSE: "FALSE", Truth.UNKNOWN: "UNDEF"}


def _digest(text: str) -> bytes:
    return hashlib.sha1(text.encode("utf-8")).digest()


def _gnba_sizes(tracer, g) -> None:
    tracer.size(
        "gnba.build_family",
        edges=sum(len(s) for s in g.succ),
        distinct_succ_share=len(set(g.succ)) / len(g.succ),
    )


def _probe_construction(tracer, psi) -> None:
    """closure_of, enumerate_elementary and acceptance_sets: the public
    parts of the construction, each under its own span."""
    with tracer.span("syntax.closure_of"):
        closure = closure_of(psi)
    with tracer.span("elementary.enumerate_elementary"):
        states = enumerate_elementary(closure)
    with tracer.span("gnba.acceptance_sets"):
        acceptance = acceptance_sets(states, closure)
    tracer.size("syntax.closure_of", bases=len(closure.bases))
    tracer.size("elementary.enumerate_elementary", states=len(states))
    tracer.size("gnba.acceptance_sets", count=len(acceptance))


class Translate:
    """`triltl translate` in-process: parse, build one automaton, emit
    HOA and DOT."""

    name = "translate"
    cli_args = (
        "translate", "--formula", "a U b", "--alphabet", "a,b",
        "--value", "top", "--out-hoa", "{tmp}/cli.hoa",
    )
    cli_stdout = "states=13 initial=5 accsets=2\n"
    cli_files: dict[str, str] = {}

    def __init__(self, root: Path, seed: int):
        self.items = inputs.translate_inputs(seed)
        for item in self.items:
            item["truth"] = parse_truth(item["value"])
        self.verified: dict[int, tuple] = {}

    def op(self, item, span):
        with span("syntax.parse_core"):
            psi = parse_core(item["formula"])
        with span("gnba.build_family"):
            g = build_automaton(psi, item["alphabet"], item["truth"])
        with span("emit.to_hoa"):
            hoa = to_hoa(g)
        with span("emit.to_dot"):
            dot = to_dot(g)
        return psi, g, hoa, dot

    def verify(self, index: int, item, out) -> Optional[str]:
        _psi, g, hoa, dot = out
        fingerprint = (len(g.states), _digest(hoa), _digest(dot))
        if index in self.verified:
            if self.verified[index][0] != fingerprint:
                return "output differs from the first op on this input"
            return None
        k = item["chain"]
        if k is not None and len(g.states) != 3 ** (k + 1):
            return f"X^{k} a has {len(g.states)} states, expected {3 ** (k + 1)}"
        problem = _hoa_mismatch(read_hoa(hoa), g)
        if problem:
            return problem
        if not dot.startswith("digraph gnba {") or dot.count(" -> ") != sum(
            len(s) for s in g.succ
        ):
            return "DOT edge count differs from the automaton"
        self.verified[index] = (fingerprint, len(hoa.encode("utf-8")))
        return None

    def probe(self, item, out, tracer) -> None:
        psi, g, hoa, dot = out
        _probe_construction(tracer, psi)
        with tracer.span("emit.read_hoa"):
            read_hoa(hoa)
        _gnba_sizes(tracer, g)
        tracer.size("emit.to_dot", bytes=len(dot.encode("utf-8")))

    def summary(self, indices, latencies) -> dict:
        return {
            "hoa_bytes": sum(size for _fp, size in self.verified.values()),
            "inputs": len(self.items),
        }


def _hoa_mismatch(h, g) -> Optional[str]:
    """Is the parsed HOA document the automaton itself, state by state
    (the identity isomorphism)?"""
    if h.num_states != len(g.states) or h.initial != g.initial:
        return "HOA states or initial states differ"
    if h.acceptance_count != len(g.acceptance):
        return "HOA acceptance count differs"
    for sid in range(len(g.states)):
        expected = frozenset(i for i, acc in enumerate(g.acceptance) if sid in acc)
        if h.state_acceptance[sid] != expected:
            return f"HOA acceptance of state {sid} differs"
        if h.state_names[sid] != g.state_label(sid):
            return f"HOA name of state {sid} differs"
    edges = tuple(
        (sid, g.patterns[sid], target)
        for sid in range(len(g.states))
        for target in g.succ[sid]
    )
    if h.edges != edges:
        return "HOA edges differ"
    return None


class Check:
    """`triltl check` in-process: parse the model and the formula, then
    check_model.  Every verdict is known to the generator."""

    name = "check"
    cli_args = ("check", "--model", "{tmp}/cli.json", "--formula", "G a")
    cli_stdout = "FALSE\ns0 ; s1 s1\n"
    cli_files = {
        "cli.json": '{"states": ["s0", "s1"], "initial": "s0", '
        '"edges": [["s0", "s1"], ["s1", "s1"]], '
        '"labels": {"s0": {"a": "t"}, "s1": {"a": "f"}}}'
    }

    def __init__(self, root: Path, seed: int):
        self.items = inputs.check_inputs(seed)
        self.verified: dict[int, tuple] = {}

    def op(self, item, span):
        with span("modelcheck.parse_model"):
            model = parse_model(item["model"])
        with span("syntax.parse_core"):
            psi = parse_core(item["formula"])
        with span("modelcheck.check_model"):
            verdict = check_model(model, psi)
        return model, psi, verdict

    def verify(self, index: int, item, out) -> Optional[str]:
        model, psi, verdict = out
        token = _TOKEN[verdict.value]
        fingerprint = (token, verdict.witness)
        if index in self.verified:
            if self.verified[index] != fingerprint:
                return "verdict differs from the first op on this input"
            return None
        if token != item["expected"]:
            return f"verdict {token}, generator expected {item['expected']}"
        if (verdict.witness is None) != (verdict.value is Truth.TRUE):
            return f"{token} verdict with witness {verdict.witness!r}"
        if verdict.witness is not None:
            alphabet = _check_alphabet(model, psi)
            word = induced_word(model, verdict.witness, alphabet)
            if eval_lasso(psi, word) is not verdict.value:
                return "witness does not evaluate to its verdict"
        self.verified[index] = fingerprint
        return None

    def probe(self, item, out, tracer) -> None:
        model, psi, verdict = out
        alphabet = _check_alphabet(model, psi)
        _probe_construction(tracer, psi)
        with tracer.span("gnba.build_family"):
            family = build_family(psi, alphabet)
        _gnba_sizes(tracer, family[Truth.TRUE])
        # check_model's own order: falsifying automaton, then unknown.
        for value in (Truth.FALSE, Truth.UNKNOWN):
            with tracer.span("gnba.degeneralize"):
                nba = degeneralize(family[value])
            with tracer.span("modelcheck.product_nonempty"):
                witness = product_nonempty(model, nba)
            tracer.size("gnba.degeneralize", states=len(nba.states))
            if witness is not None:
                tracer.event("modelcheck.product_nonempty", found=1)
                tracer.size(
                    "modelcheck.product_nonempty",
                    witness_stem=len(witness[0]),
                    witness_loop=len(witness[1]),
                )
                with tracer.span("semantics.eval_lasso"):
                    eval_lasso(psi, induced_word(model, witness, alphabet))
                break
        tracer.size(
            "modelcheck.parse_model",
            states=len(model.states),
            edges=len(model.edges),
        )

    def summary(self, indices, latencies) -> dict:
        """Verdict counts, and the median latency of TRUE verdicts
        (holds) and of FALSE or UNDEF verdicts (refuted)."""
        counts = {"TRUE": 0, "FALSE": 0, "UNDEF": 0}
        for token, _witness in self.verified.values():
            counts[token] += 1
        holds, refuted = [], []
        for index, latency in zip(indices, latencies):
            expected = self.items[index]["expected"]
            (holds if expected == "TRUE" else refuted).append(latency)
        return {
            "verdicts": counts,
            "inputs": len(self.items),
            "holds_ms_p50": _median_ms(holds),
            "refuted_ms_p50": _median_ms(refuted),
        }


def _median_ms(latencies) -> str:
    return f"{1000 * statistics.median(latencies):.3f} ({len(latencies)} samples)"


def _check_alphabet(model, psi) -> tuple[str, ...]:
    """The alphabet check_model infers when none is given."""
    return tuple(sorted(atoms_of(psi) | model.label_atoms()))


class Crosscheck:
    """One lasso against one corpus formula: the lasso oracle plus
    membership in all three degeneralized automata.  Exactly the
    automaton for the oracle's value must accept."""

    name = "crosscheck"
    cli_args = ("eval", "--formula", "a U b", "--stem", "a", "--loop", "b")
    cli_stdout = "TRUE\n"
    cli_files: dict[str, str] = {}

    def __init__(self, root: Path, seed: int):
        corpus = inputs.acceptance_corpus(root)
        self.formulas = []
        for text in corpus:
            psi = parse_core(text)
            alphabet = tuple(sorted(atoms_of(psi)))
            family = build_family(psi, alphabet)
            nbas = tuple((v, degeneralize(family[v])) for v in Truth)
            self.formulas.append((psi, alphabet, nbas))
        self.items = []
        for item in inputs.crosscheck_inputs(seed, corpus):
            psi, alphabet, nbas = self.formulas[item["formula"]]
            word = lasso(item["stem"], item["loop"], alphabet)
            self.items.append({"psi": psi, "nbas": nbas, "word": word})
        self.verified: dict[int, tuple] = {}

    def op(self, item, span):
        word = item["word"]
        with span("semantics.eval_lasso"):
            value = eval_lasso(item["psi"], word)
        accepted = []
        for v, nba in item["nbas"]:
            with span("semantics.nba_accepts_lasso"):
                if nba_accepts_lasso(nba, word):
                    accepted.append(v)
        return value, tuple(accepted)

    def verify(self, index: int, item, out) -> Optional[str]:
        if index in self.verified:
            if self.verified[index] != out:
                return "result differs from the first op on this input"
            return None
        value, accepted = out
        if accepted != (value,):
            return f"oracle says {_TOKEN[value]}, accepting automata {accepted}"
        self.verified[index] = out
        return None

    def probe(self, item, out, tracer) -> None:
        tracer.event("semantics.nba_accepts_lasso", accepted=len(out[1]))

    def summary(self, indices, latencies) -> dict:
        counts = {"TRUE": 0, "FALSE": 0, "UNDEF": 0}
        for value, _accepted in self.verified.values():
            counts[_TOKEN[value]] += 1
        return {
            "oracle_values": counts,
            "formulas": len(self.formulas),
            "inputs": len(self.items),
        }


WORKLOADS = {w.name: w for w in (Translate, Check, Crosscheck)}
