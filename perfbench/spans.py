"""Spans recorded around calls into quasiact's layers.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
span that was open when it started, the run id shared by every span of one
benchmark step, and integer or float counters. Spans stay in memory and are
written as JSON lines when the step ends.

Tracing happens here, outside the package: ``instrument`` rebinds chosen
public functions, in every ``quasiact`` module that imported them, to
wrappers that open a span around each call.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, parent, self.run, time.perf_counter())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name, count=None):
        """``fn`` with a span around each call.

        ``name`` is a string or a function of (args, kwargs) giving one.
        ``count(args, kwargs, result)`` returns counters for the span; it
        runs after the span has closed, so counting is not timed as the
        layer's work.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.counters.update(count(args, kwargs, result))
            return result

        return traced

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")


def instrument(tracer: Tracer, targets) -> None:
    """Rebind each target function to a traced wrapper everywhere it is bound.

    ``targets`` holds (module, attribute, name, count) tuples. Modules that
    did ``from .x import f`` hold their own reference to ``f``, so every
    loaded ``quasiact`` module is searched for the original object.
    """
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "quasiact"]
    for module, attr, name, count in targets:
        original = getattr(module, attr)
        traced = tracer.wrap(original, name, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)


def read_jsonl(path: str) -> list[Span]:
    with open(path) as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    result = {}
    for s in spans:
        covered = 0.0
        edge = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        result[s.id] = s.duration - covered
    return result
