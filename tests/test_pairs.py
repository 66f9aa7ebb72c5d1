"""tools/pairs.py on a stubbed runner: pair order, quartiles, wins, the
claim rule and the no-regression rule, without starting the benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def result(failed=0, attempted=100, **values):
    return {
        "failed": failed,
        "attempted": attempted,
        "metrics": {name: {"value": v} for name, v in values.items()},
    }


class Stub:
    """Serves canned runs per side, in call order, and records the calls."""

    def __init__(self, base, change):
        self.runs = {"base": list(base), "change": list(change)}
        self.calls = []

    def __call__(self, side, index):
        self.calls.append((side, index))
        return self.runs[side].pop(0)


#: Metric name -> (higher is better, bound), as `pairs.rules` reads them.
HIGHER = {"ops_per_s": (True, 0.25), "latency_ms_p50": (False, 0.25)}


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
                    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
                    {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
                ]
            }
        )
    )
    assert pairs.rules(tmp_path) == {"ops_per_s": (True, 0.25), "peak_rss_mb": (False, 0.15)}
    with pytest.raises(FileNotFoundError):
        pairs.rules(tmp_path / "missing")


def test_report_lists_every_metric_and_the_failures():
    results = pairs.run_pairs(
        Stub([result(ops_per_s=1, latency_ms_p50=2)], [result(ops_per_s=3, latency_ms_p50=1)]), 1
    )
    text = pairs.report(pairs.summarize(results, HIGHER), results)
    assert "ops_per_s" in text and "latency_ms_p50" in text
    assert "base: failed ops per run [0]" in text
    assert "regression" in text.splitlines()[0]


def regression(base, change, up=True, bound=0.25):
    """The no-regression verdict of one metric over stubbed pairs."""
    results = pairs.run_pairs(
        Stub([result(m=v) for v in base], [result(m=v) for v in change]), len(base)
    )
    return pairs.summarize(results, {"m": (up, bound)})[0]["regression"]


def test_median_worse_by_more_than_the_bound_is_regressed():
    # Throughput median 100 -> 70: 30 % worse, past the 25 % bound.
    assert regression([98, 100, 102] * 3 + [100], [68, 70, 72] * 3 + [70]) == "regressed"
    # Latency median 10 -> 13 ms is worse by 30 % too; lower is better.
    assert regression([10] * 10, [13] * 10, up=False) == "regressed"
    # 20 % worse is inside the bound, and the base's spread is narrow.
    assert regression([100] * 10, [80] * 10) == "ok"


def test_wide_base_spread_is_unresolved():
    # Base IQR 50 exceeds 0.25 x median 100; medians equal, runs overlap.
    base = [50, 150] * 5
    assert regression(base, base) == "unresolved"
    # Change runs that all beat every base run resolve it.
    assert regression(base, [200] * 10) == "ok"
    assert regression([100] * 10, [100] * 10) == "ok"


def test_narrow_base_spread_and_small_change_is_ok():
    base = [96, 98, 100, 102, 104] * 2
    change = [93, 95, 97, 99, 101] * 2
    assert regression(base, change) == "ok"
    assert regression(base, change, up=False) == "ok"


def failed_share_lines(base, change):
    """The report's failed-share lines for stubbed (failed, attempted) runs."""
    results = pairs.run_pairs(
        Stub(
            [result(failed=f, attempted=a, ops_per_s=1) for f, a in base],
            [result(failed=f, attempted=a, ops_per_s=1) for f, a in change],
        ),
        len(base),
    )
    text = pairs.report(pairs.summarize(results, {"ops_per_s": (True, 0.25)}), results)
    return [line for line in text.splitlines() if "failed share" in line]


def test_larger_failed_share_of_the_change_is_worse():
    assert failed_share_lines([(0, 100), (0, 100)], [(1, 100), (0, 100)]) == [
        "base: failed share 0.000000 (0 of 200)",
        "change: failed share 0.005000 (1 of 200)",
        "failed share: worse",
    ]


def test_equal_or_smaller_failed_share_is_ok():
    assert failed_share_lines([(2, 100)], [(2, 100)])[-1] == "failed share: ok"
    assert failed_share_lines([(2, 100)], [(1, 100)])[-1] == "failed share: ok"
    assert failed_share_lines([(0, 100)], [(0, 300)])[-1] == "failed share: ok"


def test_failed_share_sums_over_runs():
    # Base: 1 of 100 (1 %) in all; per run 10 % and 0 %, a mean of 5 %.
    # Change: 2 of 100 (2 %), 2 % in each run: worse by the summed rule,
    # better by a mean of per-run shares.
    lines = failed_share_lines([(1, 10), (0, 90)], [(1, 50), (1, 50)])
    assert lines[:2] == [
        "base: failed share 0.010000 (1 of 100)",
        "change: failed share 0.020000 (2 of 100)",
    ]
    assert lines[-1] == "failed share: worse"
