"""In-memory span recorder and the per-layer numbers derived from it.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span (the operation span for a layer call) and ``op`` the
operation id shared by every span of one operation.  Spans are kept in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter


class Tracer:
    """Records a span around each call when enabled; a plain call when not."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.op = None
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, t0, t1, parent, self.op)

    def write(self, path):
        rows = [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


NULL = Tracer(False)


def layer_metrics(spans, layers, op_names):
    """p50 (ms) and share of operation time (%) for each layer name.

    The share is the layer's summed span time over the summed time of
    the operation spans.  Spans of the warm-up (op ``prime``) are left
    out, so a layer the workload never calls reads 0.
    """
    by_name = {}
    for name, t0, t1, _, op in spans:
        if op != "prime":
            by_name.setdefault(name, []).append(t1 - t0)
    op_total = sum(sum(by_name.get(n, ())) for n in op_names)
    out = {}
    for name, unit in layers:
        durs = by_name.get(name, [])
        p50 = statistics.median(durs) if durs else 0.0
        scale = 1e3 if unit == "ms" else 1.0
        out[f"{name}_{unit}"] = (p50 * scale, unit)
        share = 100.0 * sum(durs) / op_total if op_total > 0 else 0.0
        out[f"{name}_share"] = (share, "%")
    return out
