"""In-memory span tracer for the benchmark's traced run.

The tracer replaces public layer functions by module (or class) attribute
at run time with timing wrappers and restores them afterwards; the package
itself carries no tracing code. Each span records its name, start, end and
parent, so a layer's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name(args) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)
        return traced

    def install(self, targets) -> None:
        """Wrap each (owner, attribute, span name) target.

        `span name` is a string or a function of the call's positional
        arguments, for spans named per call (e.g. per CLI subcommand).
        """
        for owner, attr, name in targets:
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            setattr(owner, attr, wrapped)
            self._saved.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def drain(self):
        """Aggregate and forget the recorded spans.

        Returns {name: (calls, total duration, total self time)} and, for each
        root span, (name, duration, self time).
        """
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, list] = {}
        roots = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            own = dur - child_time[i]
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += 1
            s[1] += dur
            s[2] += own
            if parent < 0:
                roots.append((name, dur, own))
        self.spans.clear()
        return {k: tuple(v) for k, v in stats.items()}, roots
