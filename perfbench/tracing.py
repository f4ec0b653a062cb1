"""Spans around calls into penwave's public functions.

``Tracer.install`` replaces a module attribute with a wrapper that records a
span (name, start, end, parent, round id) on every call, including calls the
program makes through that module attribute itself, such as
``geometry.boundary_curve`` from inside ``solver.transform_to_cylinder``.
Spans stay in memory until the run ends.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, round id]
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.round_id = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.round_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def install(self, module, attr: str, name=None) -> None:
        """Wrap ``module.attr``; ``name`` is a span name or a function of the call's arguments."""
        original = getattr(module, attr)
        label = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self._open(label(*args, **kwargs) if callable(label) else label)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self, round_id: int) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts per span name within one round."""
        child_time = defaultdict(float)
        for name, start, end, parent, rid in self.spans:
            if rid == round_id and parent is not None:
                child_time[parent] += end - start
        seconds, calls = defaultdict(float), defaultdict(int)
        for index, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid == round_id:
                seconds[name] += end - start - child_time[index]
                calls[name] += 1
        return dict(seconds), dict(calls)

    def dump(self, path, run_id: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "run_id": run_id,
                "fields": ["name", "start", "end", "parent", "round"],
                "spans": self.spans,
                "self_s": {rid: self.self_times(rid)[0]
                           for rid in sorted({s[4] for s in self.spans})},
            }, fh)
