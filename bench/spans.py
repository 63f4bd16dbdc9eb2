"""In-memory span tracing from outside the program.

A :class:`Tracer` wraps public functions under the module attributes their
callers look up, records one :class:`Span` per call (name, start, end,
parent span, run id), and restores the originals on exit.  Nothing in the
traced program changes; only the bindings in its module namespaces do, and
only while :meth:`Tracer.installed` is active.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

_MARK = "__bench_traced__"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the root
    run: int  # id shared by the spans of one unit of work
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; write them out with :meth:`dump`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._runs = 0
        self._installed: list[tuple] = []

    def open(self, name: str, unit: bool = False, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if unit or parent < 0:
            self._runs += 1
            run = self._runs
        else:
            run = self.spans[parent].run
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, run, attrs))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, unit: bool = False, **attrs):
        index = self.open(name, unit, attrs or None)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def wrap(self, fn, name: str, unit: bool = False, before=None, after=None):
        """Traced stand-in for ``fn``.

        ``before(args, kwargs)`` and ``after(args, result)`` return dicts of
        span attributes, e.g. counts read off the call's result.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, unit, before(args, kwargs) if before else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                span = self.spans[index]
                span.attrs = {**(span.attrs or {}), **after(args, result)}
            return result

        setattr(traced, _MARK, True)
        return traced

    @contextmanager
    def installed(self, modules, targets):
        """Wrap each target in every module that binds it, for the block.

        ``targets`` holds ``(home_module, attribute, span_name, options)``;
        ``options`` are keyword arguments of :meth:`wrap`.
        """
        try:
            for home, attr, name, options in targets:
                original = getattr(home, attr)
                wrapper = self.wrap(original, name, **options)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(self._installed):
                setattr(module, attr, original)
            self._installed.clear()

    def dump(self, path) -> None:
        """Write one JSON array per span: name, start, end, parent, run, attrs."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.run,
                                     s.attrs or {}], default=str) + "\n")


def traced_attributes(modules) -> list[str]:
    """``module.attribute`` of every tracing wrapper still bound in ``modules``."""
    return [
        f"{m.__name__}.{attr}"
        for m in modules
        for attr, value in vars(m).items()
        if getattr(value, _MARK, False)
    ]


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out
