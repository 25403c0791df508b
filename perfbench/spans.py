"""In-memory spans recorded around the benchmark's calls into the library.

A span is one call into a layer (``layer.what``) with its start, end, the
span that was open when it started, and the query or cycle it belongs to.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    """Records spans when ``enabled``; otherwise ``span`` costs one branch."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def _record(self, name: str, req):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": parent, "req": req}
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def span(self, name: str, req=None):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name, req)

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Seconds of self time per layer: each span's duration minus the
        part of it its child spans cover (children never overlap, since
        one client thread opens them in sequence)."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans[since:], since):
            layer = s["name"].split(".", 1)[0]
            out[layer] += (s["end"] - s["start"]) - child[i]
        return dict(out)

    def totals(self, name: str, since: int = 0) -> tuple[int, float]:
        """(count, summed seconds) of the spans called ``name``, from span
        index ``since`` on."""
        durs = [s["end"] - s["start"] for s in self.spans[since:]
                if s["name"] == name]
        return len(durs), sum(durs)

    def dump(self) -> list[dict]:
        """Spans with times relative to the first one, in milliseconds."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return [{"name": s["name"], "start_ms": (s["start"] - t0) * 1e3,
                 "end_ms": (s["end"] - t0) * 1e3, "parent": s["parent"],
                 "req": s["req"]} for s in self.spans]
