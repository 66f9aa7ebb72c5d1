"""Interleaved pairs of benchmark runs on two checkouts, and the claim rule.

    python3 tools/pairs.py --base ../parent --change . --workload translate \
        --seed 31 --seconds 20 --pairs 10

Runs `bench/run.py` of each checkout, from that checkout's root, once per
side for each pair, alternating which side runs first.  For every
end-to-end metric it prints each side's median and quartiles, how many
pairs the change won (ties count for neither side), and the base's
interquartile range.  It applies three rules:

- the gain rule: a metric shows a gain when the change won at least
  nine tenths of the pairs and the medians differ, in the better
  direction, by more than the base's interquartile range;
- the no-regression rule: a metric is `regressed` when the change's
  median is worse than the base's by more than the metric's bound times
  the base median, `unresolved` when it is not regressed but the base's
  interquartile range exceeds that same margin and not every change run
  beats every base run, and `ok` otherwise;
- the failed-share rule: per side, the failed operations of all its runs
  over the operations they attempted; the report prints both shares and
  `worse` when the change's share is larger than the base's.

Metric names, directions and bounds come from the base checkout's
`BENCHMARK.json`.  Only the standard library is used; nothing under
`bench/` is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable, Optional

#: One benchmark run: (side, pair index) -> its parsed JSON result.
Runner = Callable[[str, int], dict]


def rules(base: Path) -> dict[str, tuple[bool, float]]:
    """Metric name -> (True when higher is better, its bound), from the
    base checkout's `BENCHMARK.json` (which must exist)."""
    spec = json.loads((base / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (m["better"] == "higher", m["bound"]) for m in spec["end_to_end"]}


def bench_runner(roots: dict[str, Path], args: list[str]) -> Runner:
    """A runner that starts `bench/run.py` of the side's checkout and
    parses the JSON object on the last line of its stdout."""

    def run(side: str, _index: int) -> dict:
        done = subprocess.run(
            [sys.executable, "bench/run.py", *args],
            cwd=roots[side],
            capture_output=True,
            text=True,
            check=True,
        )
        return json.loads(done.stdout.strip().splitlines()[-1])

    return run


def run_pairs(runner: Runner, pairs: int) -> dict[str, list[dict]]:
    """`pairs` runs per side; the base runs first in even pairs and the
    change first in odd ones."""
    results: dict[str, list[dict]] = {"base": [], "change": []}
    for index in range(pairs):
        order = ("base", "change") if index % 2 == 0 else ("change", "base")
        for side in order:
            results[side].append(runner(side, index))
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(
    results: dict[str, list[dict]], metrics: dict[str, tuple[bool, float]]
) -> list[dict]:
    """Per metric: both sides' quartiles, the change's pair wins, the
    base's interquartile range, whether the claim rule holds and the
    no-regression verdict."""
    rows = []
    for name, (up, bound) in metrics.items():
        base = [run["metrics"][name]["value"] for run in results["base"]]
        change = [run["metrics"][name]["value"] for run in results["change"]]
        wins = sum((c > b) if up else (c < b) for b, c in zip(base, change))
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        gap = (cmed - bmed) if up else (bmed - cmed)
        margin = bound * abs(bmed)
        dominates = min(change) > max(base) if up else max(change) < min(base)
        if -gap > margin:
            regression = "regressed"
        elif bq3 - bq1 > margin and not dominates:
            regression = "unresolved"
        else:
            regression = "ok"
        rows.append(
            {
                "metric": name,
                "better": "higher" if up else "lower",
                "base": (bq1, bmed, bq3),
                "change": (cq1, cmed, cq3),
                "wins": wins,
                "pairs": len(base),
                "base_iqr": bq3 - bq1,
                "gain": wins >= 0.9 * len(base) and gap > bq3 - bq1,
                "regression": regression,
            }
        )
    return rows


def failed_share(runs: list[dict]) -> tuple[int, int]:
    """(failed, attempted) operations, summed over a side's runs."""
    return sum(run["failed"] for run in runs), sum(run["attempted"] for run in runs)


def report(rows: list[dict], results: dict[str, list[dict]]) -> str:
    """The summary as a readable table, plus failed-op counts per side
    and the failed-share rule."""
    lines = [
        f"{'metric':<16} {'better':<6} {'base median [q1, q3]':<30} "
        f"{'change median [q1, q3]':<30} {'wins':>6} {'base IQR':>10}  gain  regression"
    ]
    for row in rows:
        bq1, bmed, bq3 = row["base"]
        cq1, cmed, cq3 = row["change"]
        lines.append(
            f"{row['metric']:<16} {row['better']:<6} "
            f"{f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}]':<30} "
            f"{f'{cmed:.4g} [{cq1:.4g}, {cq3:.4g}]':<30} "
            f"{row['wins']:>3}/{row['pairs']:<2} {row['base_iqr']:>10.4g}  "
            f"{'yes' if row['gain'] else 'no':<4}  {row['regression']}"
        )
    for side, runs in results.items():
        failed = [run.get("failed", 0) for run in runs]
        lines.append(f"{side}: failed ops per run {failed}")
    shares = {}
    for side, runs in results.items():
        failed, attempted = failed_share(runs)
        shares[side] = failed / attempted if attempted else 0.0
        lines.append(f"{side}: failed share {shares[side]:.6f} ({failed} of {attempted})")
    lines.append(f"failed share: {'worse' if shares['change'] > shares['base'] else 'ok'}")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    bench_args = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    runner = bench_runner({"base": args.base, "change": args.change}, bench_args)
    results = run_pairs(runner, args.pairs)
    rows = summarize(results, rules(args.base))
    print(report(rows, results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
