"""Process CPU time, output digest and search work of `check_model`.

    python3 tools/checkwork.py --seeds 1-5 --repeat 3

Runs two input sets for the given seeds, both drawn from
`bench/inputs.py` (read with `runpy`, so nothing under `bench/` is
imported as a package or written):

- `committed`: `check_inputs(seed)`, the inputs of the `check` workload,
  whose decisive atom carries one label at every state;
- `random-labels`: the same templates and model shapes (`CHECK_SLOTS`,
  `CHECK_TEMPLATES`) over `random_model` with no fixed atom, seeded with
  `random.Random(f"rand-labels-{seed}")`, so no label fixes the verdict.

For each set it prints one JSON line: the seeds, the number of inputs,
`cpu_s`, the best over `--repeat` passes of the process CPU time of
`check_model` over all inputs (models and formulas are parsed before
the clock starts), `sha1`, the sha1 hex of the `repr` of the list of all
`(verdict name, witness)` pairs in order, and `out_edges`, the calls of
the `out_edges` callables handed to the search entry points that
`modelcheck` calls, split by role: `liveness` (the value-free
`_couvreur` pass) and `witness` (`first_accepting_lasso`, which also
decides emptiness).  The counts come from one more pass with those
entry points wrapped in this process; for fixed seeds they are exact.
An entry point that `modelcheck` lacks counts 0.  The tool reads the
library from the `src` directory beside it and uses only the standard
library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import runpy
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Role -> the `modelcheck` name of the search entry point it counts.
ROLES = {
    "liveness": "_couvreur",
    "witness": "first_accepting_lasso",
}


def bench_inputs() -> dict:
    """The namespace of `bench/inputs.py`."""
    return runpy.run_path(str(ROOT / "bench" / "inputs.py"))


def random_label_inputs(inputs: dict, seed: int) -> list[dict]:
    """Per slot of `CHECK_SLOTS`, three (model, formula) items whose
    atoms are all labelled at random: "u" with the slot's unknown
    share, else "t" or "f"."""
    rng = random.Random(f"rand-labels-{seed}")
    atoms = ("a", "b", "c", "d")
    items = []
    for template_index, states, unknown_share in inputs["CHECK_SLOTS"]:
        for _ in range(3):
            shuffled = list(atoms)
            rng.shuffle(shuffled)
            template = inputs["CHECK_TEMPLATES"][template_index]
            items.append(
                {
                    "model": inputs["random_model"](rng, states, atoms, {}, unknown_share),
                    "formula": inputs["check_formula"](rng, template, shuffled[0], shuffled[1:]),
                }
            )
    return items


def _counting(original, calls: list[int]):
    """`original` with the calls of its `out_edges` argument counted."""

    def wrapped(roots, out_edges, *args, **kwargs):
        def counted(node):
            calls[0] += 1
            return out_edges(node)

        return original(roots, counted, *args, **kwargs)

    return wrapped


def measure(items: list[dict], repeat: int) -> dict:
    """`cpu_s`, `sha1` and `out_edges` of `check_model` over `items`."""
    from triltl import check_model, modelcheck, parse_core, parse_model

    cases = [(parse_model(item["model"]), parse_core(item["formula"])) for item in items]
    best = None
    for _ in range(repeat):
        start = time.process_time()
        verdicts = [check_model(model, psi) for model, psi in cases]
        spent = time.process_time() - start
        best = spent if best is None else min(best, spent)
    outputs = [(verdict.value.name, verdict.witness) for verdict in verdicts]
    counts = {role: [0] for role in ROLES}
    originals = {name: getattr(modelcheck, name, None) for name in ROLES.values()}
    try:
        for role, name in ROLES.items():
            if originals[name] is not None:
                setattr(modelcheck, name, _counting(originals[name], counts[role]))
        for model, psi in cases:
            check_model(model, psi)
    finally:
        for name, original in originals.items():
            if original is not None:
                setattr(modelcheck, name, original)
    return {
        "cpu_s": round(best, 3),
        "sha1": hashlib.sha1(repr(outputs).encode("utf-8")).hexdigest(),
        "out_edges": {role: count for role, (count,) in counts.items()},
    }


def seed_range(text: str) -> list[int]:
    """`"3"` -> [3]; `"1-5"` -> [1, 2, 3, 4, 5]."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seeds", type=seed_range, default=[1], help="a seed or a range such as 1-5"
    )
    parser.add_argument(
        "--repeat", type=int, default=3, help="timed passes per set; the best is kept"
    )
    args = parser.parse_args(argv)
    inputs = bench_inputs()
    sets = {
        "committed": [item for seed in args.seeds for item in inputs["check_inputs"](seed)],
        "random-labels": [
            item for seed in args.seeds for item in random_label_inputs(inputs, seed)
        ],
    }
    for name, items in sets.items():
        line = {"set": name, "seeds": args.seeds, "inputs": len(items)}
        line.update(measure(items, max(1, args.repeat)))
        print(json.dumps(line), flush=True)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main()
