"""In-memory span recording around calls into the program's layers.

The benchmark measures each layer from outside: it wraps the public
functions and methods a workload calls, records one span per call
(name, start, end, parent) and derives every layer's self time, its
span time minus the time its child spans cover. Nothing inside the
program is changed; :func:`patched` swaps the wrapped attributes in for
one traced iteration and restores them afterwards.

Calls made once per record (an iterator's ``next``, the event-time
merge) would produce hundreds of thousands of spans, so they are
*rolled up*: their time still feeds the self-time accounting exactly,
but only a per-(name, parent) count and total is kept.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

perf_counter = time.perf_counter


class Tracer:
    """A span stack plus the per-layer self-time totals it yields."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.rollups: dict[tuple[str, str], list[float]] = {}
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.top_level_s = 0.0
        # One frame per open span: [name, start, child time, span index].
        self._stack: list[list] = []

    def _enter(self, name: str, rollup: bool) -> list:
        index = -1
        if not rollup:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self._stack[-1][3] if self._stack else -1))
        frame = [name, perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, rollup: bool) -> None:
        end = perf_counter()
        name, start, child_s, index = frame
        self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child_s
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_name = parent[0]
        else:
            self.top_level_s += duration
            parent_name = ""
        if rollup:
            entry = self.rollups.setdefault((name, parent_name), [0, 0.0])
            entry[0] += 1
            entry[1] += duration
        else:
            self.spans[index] = (name, start, end, self.spans[index][3])

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        frame = self._enter(name, False)
        try:
            yield
        finally:
            self._exit(frame, False)

    def wrap(self, function, name: str, rollup: bool = False):
        """*function* with every call recorded as a span called *name*."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = self._enter(name, rollup)
            try:
                return function(*args, **kwargs)
            finally:
                self._exit(frame, rollup)

        return traced

    def iterate(self, iterable, name: str):
        """Yield from *iterable*, each ``next`` rolled up as *name*."""
        iterator = iter(iterable)
        enter, leave = self._enter, self._exit
        while True:
            frame = enter(name, True)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                leave(frame, True)
            yield item

    def layer_s(self, name: str) -> float:
        """Self time of the layer *name*, 0.0 when it never ran."""
        return self.self_s.get(name, 0.0)

    def dump(self, path: str) -> None:
        """Write every span and roll-up to *path* as JSON."""
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(
                {
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p}
                        for n, s, e, p in self.spans
                    ],
                    "rollups": [
                        {"name": n, "parent": p, "calls": int(c), "total_s": t}
                        for (n, p), (c, t) in sorted(self.rollups.items())
                    ],
                    "self_s": dict(sorted(self.self_s.items())),
                },
                stream,
                indent=1,
            )


@contextlib.contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples, restoring them on exit.

    A missing attribute raises instead of silently tracing nothing, so
    a renamed layer function breaks the traced run loudly.
    """
    saved = []
    try:
        for owner, attribute, value in replacements:
            saved.append((owner, attribute, owner.__dict__[attribute]))
            setattr(owner, attribute, value)
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
