"""In-memory spans recorded around calls into keyrace's public functions.

A span holds a name, start, end and the id of the span that caused it.
Spans stay in memory and are written out once, when the traced process
ends.  A span's self time is its duration minus the part of its interval
that its children cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        # a span opened on a pool thread has no open span of its own
        # thread, so it hangs under the outermost span
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        if self._root is None:
            self._root = sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if self._root == sid:
                self._root = None
            self.spans.append(
                {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
            )

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        """Add a finished top-level span timed by the caller."""
        span = {"id": next(self._ids), "name": name, "start": start, "end": end, "parent": None}
        self.spans.append({**span, **attrs})

    def wrap(self, module, attr: str, name: str):
        """Replace ``module.attr`` by a traced wrapper; returns the original."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        return original

def load(path: Path) -> list[dict]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Sum of self time per span name."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    totals: dict[str, float] = {}
    for s in spans:
        covered = _union(
            (max(lo, s["start"]), min(hi, s["end"]))
            for lo, hi in children.get(s["id"], [])
            if hi > s["start"] and lo < s["end"]
        )
        totals[s["name"]] = totals.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
    return totals


def busy_times(spans: list[dict]) -> dict[str, float]:
    """Wall time during which at least one span of each name was open."""
    by_name: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append((s["start"], s["end"]))
    return {name: _union(iv) for name, iv in by_name.items()}
