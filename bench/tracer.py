"""Spans recorded by the benchmark around its calls into the package.

A span has a name `<layer>.<what>` (the layer is the package module that
owns the public function called), a parent and a duration.  Spans are kept
in memory and summarised when the run ends.  A layer's self time is the
span's duration minus the durations of its children.

Where a public function calls into another layer, the benchmark calls the
inner public functions again on the same inputs right after the outer call
returns, inside `children(parent)`.  Those replayed spans count as children
of the outer span, so the outer layer's self time is the outer call minus
measured inner calls rather than a guess.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.names: list[str] = []
        self.parents: list[int] = []
        self.durations: list[float] = []
        self.values: dict[str, float] = defaultdict(float)
        self._stack: list[int] = [-1]

    @contextmanager
    def span(self, name: str):
        """Time the body as a span under the current parent; yields its id
        (None when tracing is off)."""
        if not self.enabled:
            yield None
            return
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.durations.append(0.0)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self.durations[sid] = time.perf_counter() - start
            self._stack.pop()

    @contextmanager
    def children(self, parent: int | None):
        """Spans opened in the body become children of `parent`."""
        if not self.enabled or parent is None:
            yield
            return
        self._stack.append(parent)
        try:
            yield
        finally:
            self._stack.pop()

    def add(self, name: str, amount: float = 1) -> None:
        """Accumulate a count or size at a layer boundary."""
        self.values[name] += amount

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: summed self time and number of spans."""
        child_sum = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child_sum[parent] += self.durations[sid]
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for sid, name in enumerate(self.names):
            entry = out[name]
            entry[0] += max(0.0, self.durations[sid] - child_sum[sid])
            entry[1] += 1
        return {name: (s, c) for name, (s, c) in out.items()}
