"""In-memory spans recorded by the benchmark around calls into the program.

The program itself is not instrumented: :func:`patch` swaps a public
function or method for a wrapper that opens a span around the original, and
the returned undo callable restores it.  Spans carry a name, start and end
(``time.monotonic_ns``, one clock for every process on the machine), their
own id, their parent's id and a trace id; they stay in memory and are
written out once, at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self, clock: Callable[[], int] = time.monotonic_ns):
        self.clock = clock
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(
        self, name: str, parent: tuple[str, str] | None = None, **attrs: Any
    ) -> Iterator[dict]:
        """Record ``name`` around the body; ``parent`` is ``(trace_id, span_id)``
        for a span whose parent is open in another thread."""
        stack = self._stack()
        span_id = f"{self.pid}-{next(self._ids)}"
        if parent is None and stack:
            parent = (stack[-1]["trace_id"], stack[-1]["span_id"])
        record = {
            "name": name,
            "span_id": span_id,
            "parent_id": parent[1] if parent else None,
            "trace_id": parent[0] if parent else span_id,
            "start_ns": self.clock(),
            "end_ns": None,
            "pid": self.pid,
            "attrs": attrs,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end_ns"] = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def current(self) -> tuple[str, str] | None:
        """``(trace_id, span_id)`` of this thread's innermost open span."""
        stack = self._stack()
        return (stack[-1]["trace_id"], stack[-1]["span_id"]) if stack else None

    def wrap(self, fn: Callable, name: str, attrs: Callable[..., dict] | None = None) -> Callable:
        """``fn`` inside a span; ``attrs(*args, **kwargs)`` adds span attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = attrs(*args, **kwargs) if attrs is not None else {}
            with self.span(name, **extra):
                return fn(*args, **kwargs)

        return traced


def patch(owner: Any, attr: str, tracer: Tracer, name: str, attrs=None) -> Callable[[], None]:
    """Replace ``owner.attr`` by a traced wrapper; returns the undo callable."""
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(original, (staticmethod, classmethod)):
        raise TypeError(f"cannot trace descriptor {owner!r}.{attr}")
    setattr(owner, attr, tracer.wrap(original, name, attrs))
    return lambda: setattr(owner, attr, original)


# --------------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------------- #
def duration_ns(span: dict) -> int:
    return span["end_ns"] - span["start_ns"]


def covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals if b > start and a < end)
    total = 0
    cursor = start
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: list[dict]) -> dict[str, int]:
    """Span id -> its duration minus the part of it its child spans cover.

    Children may run in parallel (pool workers), so the covered part is the
    union of their intervals, never more than the span itself.
    """
    children: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span["parent_id"] is not None:
            children[span["parent_id"]].append((span["start_ns"], span["end_ns"]))
    return {
        span["span_id"]: duration_ns(span)
        - covered_ns(span["start_ns"], span["end_ns"], children.get(span["span_id"], []))
        for span in spans
    }


def roots_of(spans: list[dict]) -> dict[str, dict]:
    """Span id -> the root span of its tree (following parent ids present)."""
    by_id = {span["span_id"]: span for span in spans}
    roots: dict[str, dict] = {}
    for span in spans:
        node = span
        seen = set()
        while node["parent_id"] in by_id and node["span_id"] not in seen:
            seen.add(node["span_id"])
            node = by_id[node["parent_id"]]
        roots[span["span_id"]] = node
    return roots
