"""In-memory spans around the benchmark's calls into kellymarket.

A span records a name (``<layer>.<function>``), its start and end on the
``perf_counter`` clock, the span it ran inside, the operation it belongs
to, and work counters.  Spans stay in memory until the run ends.  The
untraced run uses :data:`OFF`, whose spans cost one attribute lookup and
record nothing.
"""

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id, counters]
        self.op = None       # id of the operation whose spans are recorded
        self._open = []

    @contextlib.contextmanager
    def span(self, name, **counters):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, self.op, counters]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def self_times(self):
        """Duration of each span minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_totals(self):
        """Per layer: calls, self time in seconds, and summed counters."""
        totals = defaultdict(lambda: defaultdict(float))
        for span, own in zip(self.spans, self.self_times()):
            name, _, _, _, _, counters = span
            layer = name.split(".", 1)[0]
            bucket = totals[layer]
            bucket["calls"] += counters.get("calls", 1)
            bucket["busy_s"] += own
            for key, value in counters.items():
                if key != "calls":
                    bucket[key] += value
        return totals

    def write(self, path):
        """One JSON object per span, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, counters) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start_s": start - t0,
                    "end_s": end - t0, "parent": parent, "op": op,
                    **counters,
                }) + "\n")


class _Off:
    op = None
    _null = contextlib.nullcontext()

    def span(self, name, **counters):
        return self._null


OFF = _Off()
