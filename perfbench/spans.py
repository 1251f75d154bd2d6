"""In-memory spans for the traced run, and their Chrome Trace Event export.

A span has a name, a start and an end (``time.perf_counter`` seconds,
which on Linux is ``CLOCK_MONOTONIC`` and so comparable across the
benchmark's child processes), the span that caused it and the request it
belongs to.  Spans are only collected here; :meth:`Tracer.write_chrome`
writes them out once the run is over.
"""

import contextlib
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._request = None
        self.request_class = {}
        self._children_of = {}
        self._indexed = 0

    def declare(self, cls):
        """A new request id of class *cls* (for spans added from outside)."""
        request_id = len(self.request_class) + 1
        self.request_class[request_id] = cls
        return request_id

    @contextlib.contextmanager
    def request(self, cls, name="request"):
        """A top-level span that child spans of one request hang under."""
        previous = self._request
        self._request = self.declare(cls)
        try:
            with self.span(name) as span:
                yield span
        finally:
            self._request = previous

    @contextlib.contextmanager
    def span(self, name):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "request": self._request, "start": time.perf_counter(),
                "end": None}
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name, start, end, request=None, track=1):
        """Record a span timed elsewhere (a child process, the daemon).

        Without *request* the span hangs under the innermost open span.
        With it, the span is a root span of that request (a job's time in
        the daemon, seen from outside).  *track* is the Chrome trace
        thread it is drawn on: spans that overlap without nesting go on a
        track of their own.
        """
        if request is None:
            parent = self._stack[-1]["id"] if self._stack else None
            request = self._request
        else:
            parent = None
        span = {"id": len(self.spans), "name": name, "parent": parent,
                "request": request, "start": start, "end": end,
                "track": track}
        self.spans.append(span)
        return span

    # -- analysis ------------------------------------------------------------

    def children(self, span):
        if self._indexed != len(self.spans):
            self._children_of = {}
            for child in self.spans:
                self._children_of.setdefault(child["parent"], []).append(child)
            self._indexed = len(self.spans)
        return self._children_of.get(span["id"], [])

    def self_time(self, span):
        """The span's duration minus the part its children cover."""
        covered = _union_length(
            (max(child["start"], span["start"]), min(child["end"], span["end"]))
            for child in self.children(span))
        return (span["end"] - span["start"]) - covered

    def coverage(self, span):
        """The share of *span* its children cover."""
        duration = span["end"] - span["start"]
        return 1.0 - self.self_time(span) / duration if duration > 0 else 1.0

    def self_times(self, name, classes=None, exclude=()):
        """Self times of the spans called *name*, of requests of *classes*
        (any class when ``None``) but not of *exclude*."""
        times = []
        for span in self.spans:
            if span["name"] != name:
                continue
            cls = self.request_class.get(span["request"])
            if cls in exclude or (classes is not None and cls not in classes):
                continue
            times.append(self.self_time(span))
        return times

    # -- export --------------------------------------------------------------

    def chrome_events(self):
        if not self.spans:
            return []
        origin = min(span["start"] for span in self.spans)
        return [{"name": span["name"], "cat": span["name"].split(".")[0],
                 "ph": "X", "pid": 1, "tid": span.get("track", 1),
                 "ts": round((span["start"] - origin) * 1e6, 3),
                 "dur": round((span["end"] - span["start"]) * 1e6, 3),
                 "args": {"id": span["id"], "parent": span["parent"],
                          "request": span["request"]}}
                for span in self.spans]

    def write_chrome(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": self.chrome_events(),
                       "displayTimeUnit": "ms"}, handle)


def _union_length(intervals):
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total
