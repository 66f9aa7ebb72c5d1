"""tools/pairs.py on a stubbed runner: pair order, quartiles, wins and the
claim rule, without starting the benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def result(**values):
    return {"failed": 0, "metrics": {name: {"value": v} for name, v in values.items()}}


class Stub:
    """Serves canned runs per side, in call order, and records the calls."""

    def __init__(self, base, change):
        self.runs = {"base": list(base), "change": list(change)}
        self.calls = []

    def __call__(self, side, index):
        self.calls.append((side, index))
        return self.runs[side].pop(0)


HIGHER = {"ops_per_s": True, "latency_ms_p50": False}


def test_sides_alternate_which_runs_first():
    stub = Stub([result(ops_per_s=1)] * 3, [result(ops_per_s=2)] * 3)
    pairs.run_pairs(stub, 3)
    assert stub.calls == [
        ("base", 0), ("change", 0),
        ("change", 1), ("base", 1),
        ("base", 2), ("change", 2),
    ]


def test_clear_gain_meets_the_claim_rule():
    base = [result(ops_per_s=v, latency_ms_p50=10) for v in range(50, 60)]
    change = [result(ops_per_s=v, latency_ms_p50=10) for v in range(80, 90)]
    results = pairs.run_pairs(Stub(base, change), 10)
    ops, latency = pairs.summarize(results, HIGHER)
    assert ops["base"] == pytest.approx((52.25, 54.5, 56.75))
    assert ops["change"] == pytest.approx((82.25, 84.5, 86.75))
    assert ops["wins"] == 10 and ops["base_iqr"] == pytest.approx(4.5)
    assert ops["gain"]
    # Ties count for neither side, so equal latencies show no gain.
    assert latency["wins"] == 0 and not latency["gain"]


def test_eight_wins_of_ten_is_no_gain():
    base = [result(ops_per_s=50, latency_ms_p50=5.0) for _ in range(10)]
    change = [result(ops_per_s=v, latency_ms_p50=4.0) for v in [90] * 8 + [40] * 2]
    rows = pairs.summarize(pairs.run_pairs(Stub(base, change), 10), HIGHER)
    assert (rows[0]["wins"], rows[0]["gain"]) == (8, False)
    # Lower is better for latency: 4 ms beats 5 ms in every pair.
    assert (rows[1]["wins"], rows[1]["gain"]) == (10, True)


def test_gap_within_the_base_spread_is_no_gain():
    base = [result(ops_per_s=v, latency_ms_p50=1) for v in (40, 60) * 5]
    change = [result(ops_per_s=v + 5, latency_ms_p50=1) for v in (40, 60) * 5]
    rows = pairs.summarize(pairs.run_pairs(Stub(base, change), 10), HIGHER)
    assert rows[0]["wins"] == 10 and not rows[0]["gain"]


def test_directions_come_from_the_benchmark_file(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps(
            {
                "end_to_end": [
                    {"name": "ops_per_s", "better": "higher"},
                    {"name": "peak_rss_mb", "better": "lower"},
                ]
            }
        )
    )
    assert pairs.directions(tmp_path) == {"ops_per_s": True, "peak_rss_mb": False}
    with pytest.raises(FileNotFoundError):
        pairs.directions(tmp_path / "missing")


def test_report_lists_every_metric_and_the_failures():
    results = pairs.run_pairs(
        Stub([result(ops_per_s=1, latency_ms_p50=2)], [result(ops_per_s=3, latency_ms_p50=1)]), 1
    )
    text = pairs.report(pairs.summarize(results, HIGHER), results)
    assert "ops_per_s" in text and "latency_ms_p50" in text
    assert "base: failed ops per run [0]" in text
