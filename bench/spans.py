"""In-memory spans around the benchmark's calls into the library.

A span records its name, its parent span, and its start and end on
the monotonic clock.  Sizes read from returned objects (bases, states,
edges, ...) are kept beside the spans under the same names.  Nothing
is written until the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

_NO_SPAN = nullcontext()


class Tracer:
    """Collects spans, per-call sizes and per-op event counts."""

    enabled = True

    def __init__(self) -> None:
        # [name, parent index or -1, start, end]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.sizes: dict[str, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(list)
        )
        self.events: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def size(self, name: str, **values: float) -> None:
        """Sizes of one call's input or output; reported as means."""
        for key, value in values.items():
            self.sizes[name][key].append(value)

    def event(self, name: str, **counts: float) -> None:
        """Events such as accepted runs or found witnesses; reported
        per op."""
        for key, value in counts.items():
            self.events[name][key] += value

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self time).  Self time is the
        span's duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (name, _parent, start, end) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start - child_time[i]
        return {name: (calls, total) for name, (calls, total) in out.items()}

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = dict(header)
        document["spans"] = self.spans
        document["sizes"] = {k: dict(v) for k, v in self.sizes.items()}
        document["events"] = {k: dict(v) for k, v in self.events.items()}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


class _Span:
    """Context manager for one span; a class rather than a generator
    because its cost is part of the measured tracing overhead."""

    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.record = [name, -1, 0.0, 0.0]

    def __enter__(self) -> None:
        tracer, record = self.tracer, self.record
        if tracer._open:
            record[1] = tracer._open[-1]
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(record)
        record[2] = perf_counter()

    def __exit__(self, *exc) -> None:
        self.record[3] = perf_counter()
        self.tracer._open.pop()


class NullTracer:
    """Tracing off: spans cost one no-op context manager each."""

    enabled = False

    def span(self, name: str):
        return _NO_SPAN
