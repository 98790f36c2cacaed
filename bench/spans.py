"""In-memory span tracer that wraps functions at module boundaries.

A span records its name, start, end and the index of the span that was open
when it began (its parent).  Spans stay in a list until the traced process
writes them out at the end.  Wrapping replaces a module attribute, so it
catches only the calls that look the name up in that module: wrap the name
in the namespace of the caller.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    """Collects spans from the functions it wraps, in call order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, module, attr: str, note=None) -> None:
        """Replace ``module.attr`` by a traced call; spans are named ``attr``.

        ``note(args, kwargs, result)`` may return a dict of counts stored on
        the span once the call has returned.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {"name": attr, "start": self.clock(), "end": None,
                    "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._open.pop()
            if note is not None:
                span.update(note(args, kwargs, result))
            return result

        setattr(module, attr, traced)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time(spans: list[dict], index: int) -> float:
    """A span's duration minus the part of its interval its children cover."""
    span = spans[index]
    children = [(max(c["start"], span["start"]), min(c["end"], span["end"]))
                for c in spans if c["parent"] == index]
    return duration(span) - covered(c for c in children if c[1] > c[0])
