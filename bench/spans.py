"""In-memory span recorder for the traced benchmark run.

A span covers one call into a module's public function: name, start,
end, parent span and run id (the id of the top-level span it belongs
to).  Spans stay in memory and are written out when the run ends.  Only
the first `max_kept` spans are kept verbatim; per-name call counts, self
times and result-derived counts are exact however many spans there are.

Self time is a span's duration minus the time its child spans cover.
Calls are single-threaded, so children never overlap and the covered
time is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, max_kept: int = 20000):
        self.max_kept = max_kept
        self.spans: list[tuple] = []      # (id, name, start, end, parent, run)
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []      # [id, start, covered, run]
        self._last_id = 0

    def span(self, name: str, fn, count=None):
        """fn wrapped to record one span per call.

        count(counts, result, args, kwargs), when given, adds counts that
        the call's result carries.
        """
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._last_id += 1
            sid = self._last_id
            parent = stack[-1] if stack else None
            frame = [sid, 0.0, 0.0, parent[3] if parent else sid]
            stack.append(frame)
            frame[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                if parent is not None:
                    parent[2] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if len(self.spans) < self.max_kept:
                    self.spans.append((sid, name, frame[1], end,
                                       parent[0] if parent else None, frame[3]))
                else:
                    self.dropped += 1
            if count is not None:
                count(self.counts, result, args, kwargs)
            return result

        return traced

    def counted(self, name: str, genfn):
        """Generator function wrapped to add its number of yields to counts[name]."""
        @functools.wraps(genfn)
        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in genfn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                self.counts[name] += n

        return wrapper

    def mean_self_s(self, name: str) -> float:
        calls = self.calls[name]
        return self.self_s[name] / calls if calls else 0.0

    @contextmanager
    def installed(self, plan):
        """Replace module attributes with traced wrappers while active.

        plan holds (module, attribute, span name, count) entries; a count
        of "yields" marks a generator function whose yields are counted
        under the span name instead of recording spans.
        """
        saved = []
        try:
            for module, attr, name, count in plan:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                if count == "yields":
                    wrapped = self.counted(name, original)
                else:
                    wrapped = self.span(name, original, count)
                setattr(module, attr, wrapped)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def to_dict(self) -> dict:
        return {
            "fields": ["id", "name", "start", "end", "parent", "run"],
            "spans": self.spans,
            "dropped": self.dropped,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }
