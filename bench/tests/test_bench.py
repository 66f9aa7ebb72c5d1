"""Tests of the benchmark itself: deterministic inputs, well-formed
metric names, generator-known verdicts, and one checked op per
workload on a small seed.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import json
import random
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from triltl import (  # noqa: E402
    Truth,
    closure_of,
    eval_lasso,
    lasso,
    parse_core,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_generators_are_deterministic():
    corpus = inputs.acceptance_corpus(ROOT)
    assert inputs.translate_inputs(3) == inputs.translate_inputs(3)
    assert inputs.check_inputs(3) == inputs.check_inputs(3)
    assert inputs.crosscheck_inputs(3, corpus) == inputs.crosscheck_inputs(3, corpus)
    assert inputs.translate_inputs(3) != inputs.translate_inputs(4)
    assert inputs.check_inputs(3) != inputs.check_inputs(4)
    assert inputs.crosscheck_inputs(3, corpus) != inputs.crosscheck_inputs(4, corpus)


def test_metric_names_and_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == list(run.PER_LAYER)
    names = [name for name, _unit in end_to_end + per_layer]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_translate_closure_sizes_match_library():
    for item in inputs.translate_inputs(5)[len(inputs.CHAIN_DEPTHS):]:
        bases = len(closure_of(parse_core(item["formula"])))
        assert bases in inputs.TRANSLATE_BASES


def _lasso_with(rng, atoms, decisive, code):
    letters = []
    for _ in range(rng.randint(1, 4)):
        literals = [(a, rng.random() < 0.5) for a in atoms if rng.random() < 0.7]
        if code != "u":
            literals.append((decisive, code == "t"))
        letters.append(frozenset(literals))
    split = rng.randint(0, len(letters) - 1)
    return lasso(letters[:split], letters[split:], atoms + (decisive,))


def test_check_templates_have_generator_known_values():
    rng = random.Random(0)
    expected = {"t": Truth.TRUE, "f": Truth.FALSE, "u": Truth.UNKNOWN}
    others = ("a", "b", "c")
    for template in inputs.CHECK_TEMPLATES:
        for _ in range(10):
            psi = parse_core(inputs.check_formula(rng, template, "d", others))
            for code, value in expected.items():
                word = _lasso_with(rng, others, "d", code)
                assert eval_lasso(psi, word) is value, (template, code)


def _first_op_passes(workload, index):
    item = workload.items[index]
    out = workload.op(item, NullTracer().span)
    assert workload.verify(index, item, out) is None
    # A repeat must reproduce the first output exactly.
    assert workload.verify(index, item, workload.op(item, NullTracer().span)) is None
    tracer = Tracer()
    workload.probe(item, out, tracer)
    return tracer


def test_translate_op_passes_its_checks():
    workload = workloads.Translate(ROOT, 1)
    tracer = _first_op_passes(workload, 2)  # X^3 a
    assert tracer.sizes["elementary.enumerate_elementary"]["states"] == [81]
    _first_op_passes(workload, len(inputs.CHAIN_DEPTHS))


def test_check_op_passes_its_checks():
    workload = workloads.Check(ROOT, 1)
    small = min(range(len(workload.items)), key=lambda i: workload.items[i]["states"])
    indices = (small, small + 1, small + 2)  # TRUE, FALSE, UNDEF
    for index in indices:
        _first_op_passes(workload, index)
    summary = workload.summary(indices, (0.001, 0.002, 0.003))
    assert summary["verdicts"] == {"TRUE": 1, "FALSE": 1, "UNDEF": 1}


def test_crosscheck_op_passes_its_checks():
    workload = workloads.Crosscheck(ROOT, 1)
    tracer = _first_op_passes(workload, 0)
    assert tracer.events["semantics.nba_accepts_lasso"]["accepted"] == 1


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    self_times = tracer.self_times()
    outer_span, inner_span = tracer.spans
    outer_total = outer_span[3] - outer_span[2]
    inner_total = inner_span[3] - inner_span[2]
    assert self_times["inner"] == (1, inner_total)
    assert abs(self_times["outer"][1] - (outer_total - inner_total)) < 1e-12
