"""In-memory span recorder for the traced run.

A span is one call into an engine entry point or kernel, recorded from the
benchmark's own code: name (``<layer>.<call>``), start, end, parent span
and the run id. Spans stay in memory and are written as JSON lines when
the run ends. A layer's self time is the summed duration of its spans
minus the parts of those intervals that their child spans cover.

With tracing off, ``span`` returns a shared no-op context manager, so the
untraced runs that give the end-to-end numbers carry no recording cost.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, **attrs):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name, attrs)

    @contextlib.contextmanager
    def _record(self, name: str, attrs: dict):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, obj, method: str, name: str):
        """Record a span around every call of ``obj.method`` (instance
        attribute override; the class is untouched)."""
        if not self.enabled:
            return
        fn = getattr(obj, method)

        def traced(*a, **k):
            with self.span(name):
                return fn(*a, **k)

        setattr(obj, method, traced)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """layer -> summed self time (span duration minus child spans)."""
        child_s: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            out[layer] += max(0.0, s["end"] - s["start"] - child_s[s["id"]])
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
