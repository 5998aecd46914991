"""In-memory spans recorded around calls into the program's public functions.

The benchmark measures every layer from outside: :meth:`Recorder.wrap`
replaces a public function or method, at the name its caller looks it
up, with a wrapper that records one span per call.  A span is
``(span_id, name, start, end, parent_id, request_id)``: the parent is the
span open on the same thread when the call began, and every span of one
request carries that request's id.  Spans stay in memory until the run
ends; :func:`self_times` derives a layer's self time (its span minus its
child spans) from them.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time

__all__ = ["Recorder", "self_times", "median", "percentile"]


class Recorder:
    """Collects spans from any thread of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.request = 0
        return local, stack

    def set_request(self, request_id: int) -> None:
        """Tag the spans this thread records from now on with *request_id*."""
        local, _ = self._state()
        local.request = request_id

    def current_request(self) -> int:
        local, _ = self._state()
        return local.request

    def record(self, name: str, start: float, end: float) -> None:
        """Record a finished span that no wrapper timed (a leaf)."""
        local, stack = self._state()
        self.spans.append(
            (next(self._ids), name, start, end, stack[-1] if stack else 0, local.request)
        )

    def call(self, name: str, function, *args, **kwargs):
        """Run ``function(*args, **kwargs)`` inside a span named *name*."""
        local, stack = self._state()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, local.request))

    def wrap(self, owner, attribute: str, name: str | None, adapt=None) -> None:
        """Time every call of ``owner.attribute`` as a span named *name*.

        *adapt*, when given, receives each result and returns what the
        caller gets instead (used to count items a returned iterator
        yields).  With *name* None no span is recorded, only *adapt* runs.
        :meth:`unwrap_all` puts the originals back.
        """
        original = getattr(owner, attribute)
        call = self.call

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                result = call(name, original, *args, **kwargs)
            return result if adapt is None else adapt(result)

        setattr(owner, attribute, wrapper)
        self._restore.append((owner, attribute, original))

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write the spans (and any *extra* fields) as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, **(extra or {})}, handle)


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children."""
    own = {span[0]: span[3] - span[2] for span in spans}
    for span in spans:
        parent = span[4]
        if parent in own:
            own[parent] -= span[3] - span[2]
    return own


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1]) of *values*."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[int(rank) - 1]
