"""In-memory span recording for the traced run.

A traced run replaces public functions of stochfsi with wrappers that
open a span on entry and close it on exit.  Each wrapper is installed
where its caller looks the name up (``stochfsi.scheme.fluid_step``, not
the defining module), and every original is put back afterwards.  Spans
stay in memory until the run ends.

Self time is a span's duration minus the time its direct children cover.
The recorder is single-threaded: spans nest strictly, so the children of
one span never overlap.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self._stack.pop()
        self.spans[idx].end = self.clock()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(result, *args, **kwargs)`` records counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def summarize(spans: list[Span], within: str | None = None) -> dict:
    """Per name: total duration ``s``, total self time ``self_s``, ``calls``.
    With ``within``, only spans named so and their descendants count."""
    inside: list[bool] = []
    for s in spans:  # a parent always precedes its children
        inside.append(within is None or s.name == within
                      or (s.parent is not None and inside[s.parent]))
    table: dict[str, dict] = {}
    for s, own, keep in zip(spans, self_times(spans), inside):
        if not keep:
            continue
        row = table.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["s"] += s.end - s.start
        row["self_s"] += own
        row["calls"] += 1
    return table


@dataclass(frozen=True)
class Patch:
    """Replace ``owner.attr`` by a span-recording wrapper named ``name``;
    ``after`` is passed on to ``Tracer.wrap``."""

    owner: object
    attr: str
    name: str
    after: object = None


@contextmanager
def installed(tracer: Tracer, patches: list[Patch]):
    """Install every patch for the duration of the block, then restore the
    originals and check that none of the wrappers is left behind."""
    originals = []
    try:
        for p in patches:
            original = getattr(p.owner, p.attr)
            originals.append((p, original))
            setattr(p.owner, p.attr, tracer.wrap(p.name, original, p.after))
        yield
    finally:
        for p, original in reversed(originals):
            setattr(p.owner, p.attr, original)
    left = [f"{p.owner!r}.{p.attr}" for p, original in originals
            if getattr(p.owner, p.attr) is not original]
    if left:
        raise RuntimeError("trace wrappers still installed: " + ", ".join(left))
