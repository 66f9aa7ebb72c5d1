"""Benchmark for triltl: seeded closed-loop workloads, end to end and
per layer.

    python3 bench/run.py --workload translate --seed 1 --seconds 20 --trace 0

One process, one op at a time, no threads.  The workload's inputs are
made from --seed, then the op list is run in whole passes until
--seconds have gone by and at least MIN_OPS ops have run; every op's
output is checked.  With --trace 0
the last line of stdout is a JSON object with the end-to-end metrics;
with --trace 1 the first half of the time runs untraced and the second
half traced, and the JSON object holds the per-layer metrics and the
tracing overhead.  Lines before it are a readable report.  See
bench/README.md for what each metric means and which layer should move
it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from array import array
from pathlib import Path
from time import perf_counter

STARTED = perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_RUNS = 9
CLI_RUNS = 15
# Enough ops that latency_ms_p90 has at least ten samples beyond it,
# however slow the host is.
MIN_OPS = 110

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("cli_ms_p50", "ms"),
)

PER_LAYER = (
    ("syntax.parse_core.s", "s"),
    ("syntax.closure_of.s", "s"),
    ("syntax.closure_of.bases", "count"),
    ("elementary.enumerate_elementary.s", "s"),
    ("elementary.enumerate_elementary.states", "count"),
    ("gnba.build_family.s", "s"),
    ("gnba.successors.s", "s"),
    ("gnba.build_family.edges", "count"),
    ("gnba.build_family.distinct_succ_share", "ratio"),
    ("gnba.acceptance_sets.s", "s"),
    ("gnba.acceptance_sets.count", "count"),
    ("gnba.degeneralize.s", "s"),
    ("gnba.degeneralize.states", "count"),
    ("emit.to_hoa.s", "s"),
    ("emit.to_dot.s", "s"),
    ("emit.read_hoa.s", "s"),
    ("emit.to_dot.bytes", "bytes"),
    ("semantics.nba_accepts_lasso.s", "s"),
    ("semantics.nba_accepts_lasso.calls", "count"),
    ("semantics.nba_accepts_lasso.accepted", "count"),
    ("semantics.eval_lasso.s", "s"),
    ("semantics.eval_lasso.calls", "count"),
    ("modelcheck.parse_model.s", "s"),
    ("modelcheck.parse_model.states", "count"),
    ("modelcheck.parse_model.edges", "count"),
    ("modelcheck.check_model.s", "s"),
    ("modelcheck.product_nonempty.s", "s"),
    ("modelcheck.product_nonempty.calls", "count"),
    ("modelcheck.product_nonempty.found", "count"),
    ("modelcheck.product_nonempty.witness_stem", "count"),
    ("modelcheck.product_nonempty.witness_loop", "count"),
    ("cli.import_ms", "ms"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
)

# gnba.successors has no public entry point of its own: it is the part
# of a build that its separately timed public parts do not cover.
_BUILD_PARTS = (
    "syntax.closure_of",
    "elementary.enumerate_elementary",
    "gnba.acceptance_sets",
)


class Phase:
    """One measured stretch: input index and latency of every op."""

    def __init__(self) -> None:
        self.indices = array("l")
        self.latencies = array("d")
        self.failures: list[str] = []
        self.passes = 0

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.busy


def run_phase(workload, seconds: float, tracer, side=(), min_ops: int = 1) -> Phase:
    """Whole passes over the inputs until `seconds` have elapsed and at
    least `min_ops` ops have run, so every input runs equally often.

    `side` is a list of (fraction, callable): each callable runs once,
    between two ops, when that fraction of `seconds` has elapsed.  The
    subprocess timings are spread this way so that they sample the
    machine over the whole run; their own time does not count toward
    `seconds`.
    """
    phase = Phase()
    span = tracer.span
    pending = sorted(side, key=lambda task: task[0])
    started = perf_counter()
    paused = 0.0
    while True:
        for index, item in enumerate(workload.items):
            began = perf_counter()
            try:
                with span("op"):
                    out = workload.op(item, span)
            except Exception:
                phase.indices.append(index)
                phase.latencies.append(perf_counter() - began)
                phase.failures.append(traceback.format_exc())
                continue
            phase.indices.append(index)
            phase.latencies.append(perf_counter() - began)
            try:
                problem = workload.verify(index, item, out)
                if tracer.enabled:
                    with span("probe"):
                        workload.probe(item, out, tracer)
            except Exception:
                problem = traceback.format_exc()
            if problem:
                phase.failures.append(f"input {index}: {problem}")
            # Without this the result stays alive during the next op,
            # and peak_rss_mb would count two results at once.
            del out
            if pending and perf_counter() - started - paused >= pending[0][0] * seconds:
                side_began = perf_counter()
                pending.pop(0)[1]()
                paused += perf_counter() - side_began
        phase.passes += 1
        if (
            perf_counter() - started - paused >= seconds
            and len(phase.latencies) >= min_ops
        ):
            break
    for _fraction, task in pending:
        task()
    return phase


def deciles_ms(latencies) -> list[float]:
    return [1000 * q for q in statistics.quantiles(latencies, n=10, method="inclusive")]


def spread(count: int, task) -> list:
    """`count` runs of `task`, evenly spaced over a phase."""
    return [((i + 0.5) / count, task) for i in range(count)]


class CommandTimer:
    """Wall time of a subprocess per call; counts runs that exit
    non-zero or print anything but `expect`."""

    def __init__(self, cmd: list[str], expect: str | None = None):
        self.cmd = cmd
        self.expect = expect
        self.times: list[float] = []
        self.failed = 0

    def __call__(self) -> None:
        began = perf_counter()
        result = subprocess.run(
            self.cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120,
        )
        self.times.append(perf_counter() - began)
        if result.returncode != 0 or (
            self.expect is not None and result.stdout != self.expect
        ):
            self.failed += 1
            sys.stderr.write(
                f"{' '.join(self.cmd)}: exit {result.returncode}\n"
                f"{result.stdout}{result.stderr}"
            )

    @property
    def median_ms(self) -> float:
        return 1000 * statistics.median(self.times)


class SetupTimer:
    """Time from spawning a fresh benchmark process to its first timed
    op: interpreter start, import, input generation and warm-up."""

    def __init__(self, args):
        self.cmd = [
            sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe",
        ]
        self.times: list[float] = []

    def __call__(self) -> None:
        began = perf_counter()
        with subprocess.Popen(
            self.cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            self.times.append(perf_counter() - began)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")


def cli_command(workload, tmp: str) -> list[str]:
    """The matching CLI subcommand on a fixed small input."""
    for name, text in workload.cli_files.items():
        Path(tmp, name).write_text(text, encoding="utf-8")
    cmd = [sys.executable, "-m", "triltl.cli"]
    return cmd + [arg.format(tmp=tmp) for arg in workload.cli_args]


def layer_metrics(tracer, phase: Phase) -> dict[str, float]:
    """Per-op self times and event counts, and per-call mean sizes."""
    ops = len(phase.latencies)
    self_times = tracer.self_times()
    values: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        span, _, key = name.rpartition(".")
        calls, total = self_times.get(span, (0, 0.0))
        if key == "s":
            values[name] = total / ops
        elif key == "calls":
            values[name] = calls / ops
        elif key in tracer.events.get(span, {}):
            values[name] = tracer.events[span][key] / ops
        elif tracer.sizes.get(span, {}).get(key):
            values[name] = statistics.fmean(tracer.sizes[span][key])
        else:
            values[name] = 0.0
    values["gnba.successors.s"] = values["gnba.build_family.s"] - sum(
        values[f"{part}.s"] for part in _BUILD_PARTS
    )
    return values


def print_layer_table(tracer, phase: Phase) -> None:
    ops = len(phase.latencies)
    op_time = phase.busy / ops
    print(f"layer self time per op (op time {1000 * op_time:.3f} ms, {ops} ops):")
    rows = sorted(tracer.self_times().items(), key=lambda kv: -kv[1][1])
    for name, (calls, total) in rows:
        sizes = ", ".join(
            f"{key}={statistics.fmean(vals):.4g}"
            for key, vals in sorted(tracer.sizes.get(name, {}).items())
        )
        events = ", ".join(
            f"{key}={val / ops:.4g}/op"
            for key, val in sorted(tracer.events.get(name, {}).items())
        )
        print(
            f"  {name:34s} calls/op={calls / ops:7.3f} "
            f"self={1000 * total / ops:10.4f} ms/op "
            f"share={100 * total / ops / op_time:7.2f}%  {sizes} {events}".rstrip()
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "triltl" / "__init__.py").is_file():
        print(f"error: no triltl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import triltl
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS

    if Path(triltl.__file__).resolve().parent != SRC / "triltl":
        print(f"error: imported triltl from {triltl.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    first = workload.items[0]
    problem = workload.verify(0, first, workload.op(first, NullTracer().span))
    if problem:
        print(f"error: warm-up op failed its check: {problem}", file=sys.stderr)
        return 1
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    own_setup = perf_counter() - STARTED

    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        imported = CommandTimer([sys.executable, "-c", "import triltl.cli"])
        bare = CommandTimer([sys.executable, "-c", "pass"])
        side = spread(CLI_RUNS, imported) + spread(CLI_RUNS, bare)
        plain = run_phase(workload, args.seconds / 2, NullTracer(), side)
        tracer = Tracer()
        phase = run_phase(workload, args.seconds / 2, tracer)
        phases = [plain, phase]
    else:
        setup = SetupTimer(args)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            cli = CommandTimer(cli_command(workload, tmp), workload.cli_stdout)
            side = spread(CLI_RUNS, cli) + spread(SETUP_RUNS, setup)
            phase = run_phase(workload, args.seconds, NullTracer(), side, MIN_OPS)
        phases = [phase]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = sum(len(p.latencies) for p in phases)
    failures = [f for p in phases for f in p.failures]
    for failure in failures[:5]:
        sys.stderr.write(failure.rstrip() + "\n")

    deciles = deciles_ms(phase.latencies)
    print(f"workload {workload.name} seed {args.seed}: {len(phase.latencies)} ops "
          f"in {phase.passes} passes of {len(workload.items)} inputs "
          f"({phase.busy:.2f} s busy)")
    for key, value in workload.summary(phase.indices, phase.latencies).items():
        print(f"  {key}: {value}")

    if args.trace:
        metrics = layer_metrics(tracer, phase)
        metrics["cli.import_ms"] = imported.median_ms - bare.median_ms
        metrics["trace.untraced_ops_per_s"] = plain.ops_per_s
        metrics["trace.traced_ops_per_s"] = phase.ops_per_s
        metrics["trace.overhead_pct"] = 100 * (1 - phase.ops_per_s / plain.ops_per_s)
        print_layer_table(tracer, phase)
        spans_file = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        tracer.write(spans_file, {"workload": workload.name, "seed": args.seed})
        print(f"  spans written to {spans_file.relative_to(ROOT)}")
        units = dict(PER_LAYER)
    else:
        attempted += len(cli.times)
        failures += ["cli"] * cli.failed
        metrics = {
            "setup_s": statistics.median(setup.times),
            "ops_per_s": phase.ops_per_s,
            "latency_ms_p50": deciles[4],
            "latency_ms_p90": deciles[8],
            "peak_rss_mb": peak_rss_mb,
            "cli_ms_p50": cli.median_ms,
        }
        units = dict(END_TO_END)

    beyond = sum(1 for latency in phase.latencies if 1000 * latency > deciles[8])
    print(f"  latency samples: {len(phase.latencies)}, beyond p90: {beyond}")
    print(f"  own set-up: {own_setup:.3f} s")
    print(f"  fail_share: {len(failures) / attempted:.6f} "
          f"({len(failures)} of {attempted})")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
