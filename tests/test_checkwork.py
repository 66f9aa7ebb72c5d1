"""tools/checkwork.py: two runs of one seed print the same digests and
the same work counts."""

import json
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "checkwork.py"


def run_seed_1() -> list[dict]:
    done = subprocess.run(
        [sys.executable, str(_TOOL), "--seeds", "1", "--repeat", "1"],
        capture_output=True,
        text=True,
        check=True,
    )
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    for line in lines:
        assert line.pop("cpu_s") > 0
    return lines


def test_two_runs_print_identical_counts_and_digests():
    first = run_seed_1()
    assert [line["set"] for line in first] == ["committed", "random-labels"]
    assert all(line["inputs"] == 48 for line in first)
    for line in first:
        assert set(line["out_edges"]) == {"liveness", "witness"}
        assert all(count > 0 for count in line["out_edges"].values())
    assert run_seed_1() == first
