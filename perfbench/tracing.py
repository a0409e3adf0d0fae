"""In-memory spans recorded by the benchmark around its calls into each layer.

A span is (name, start, end, parent, item): the parent is the index of the
enclosing span, and a child span inherits the item id of its parent, so the
spans of one item share an identifier.  Nothing is written until the run ends.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, item: int | None = None):
        parent = self._open[-1] if self._open else None
        if item is None and parent is not None:
            item = self.spans[parent][4]
        rec = [name, perf_counter(), None, parent, item]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - c
                for (_, start, end, _, _), c in zip(self.spans, covered)]

    def busy_by_name(self) -> dict[str, float]:
        busy: dict[str, float] = {}
        for (name, *_), own in zip(self.spans, self.self_times()):
            busy[name] = busy.get(name, 0.0) + own
        return busy

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, ((name, start, end, parent, item), own) in enumerate(
                zip(self.spans, self.self_times())
            ):
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "item": item, "self_s": own,
                }) + "\n")


class NullTracer:
    """Tracing off: every span is a no-op."""

    def span(self, name: str, item: int | None = None):
        return nullcontext()


def span_cost_s(batches: int = 5, spans_per_batch: int = 2000) -> float:
    """Median wall cost of recording one child span inside an item span."""
    costs = []
    for _ in range(batches):
        tr = Tracer()
        t0 = perf_counter()
        with tr.span("item", 0):
            for _ in range(spans_per_batch - 1):
                with tr.span("layer"):
                    pass
        costs.append((perf_counter() - t0) / spans_per_batch)
    return statistics.median(costs)
