"""In-memory span tracing installed from outside the library.

The tracer wraps public functions of each layer (class attributes where
possible; module functions where they are bound by name) and records one
span per call: name, start, end, parent span and job id.  Spans stay in
memory until the run ends.  A layer's *self time* is its spans' duration
minus the part covered by their child spans, so the layers of one job add up
to the job's time minus whatever no wrapped function covered (``coverage``).

Tracing costs nothing when it is off: wrappers are installed for a traced
job and removed again before an untraced one.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Spans the benchmark itself records around a unit of work; not a layer.
BENCH_PREFIX = "bench."


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    job: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; installs and removes the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # ----------------------------------------------------------------- spans
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent, job=self.job))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = self.clock()
        # Pop through any span left open by an exception below this one.
        while self._stack and self._stack.pop() != index:
            pass
        return span

    @contextmanager
    def unit(self, name: str, job: str):
        """A span around one unit of work (a job or round); its spans carry ``job``."""
        previous, self.job = self.job, job
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)
            self.job = previous

    # -------------------------------------------------------------- wrappers
    def traced(self, func, name, *, before=None, after=None):
        """``func`` wrapped to record a span per call.

        ``name`` is a string or ``name(args, kwargs)``; ``before(args,
        kwargs)`` runs ahead of the call and its value reaches ``after(args,
        kwargs, result, state)``, which returns counts attached to the span.
        Both hooks run outside the span's interval.
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            index = tracer.open(name(args, kwargs) if callable(name) else name)
            try:
                result = func(*args, **kwargs)
            finally:
                span = tracer.close(index)
            if after is not None:
                span.counts = after(args, kwargs, result, state)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name, *, before=None, after=None) -> None:
        """Replace ``owner.attr`` (class or module attribute) with a traced wrapper."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self.traced(raw.__func__, name, before=before, after=after))
        else:
            replacement = self.traced(raw, name, before=before, after=after)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, raw))

    def install(self, patches) -> None:
        for owner, attr, name, before, after in patches:
            self.wrap(owner, attr, name, before=before, after=after)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


# --------------------------------------------------------------- arithmetic
def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.duration - covered)
    return result


def layer_of(name: str) -> str | None:
    """The layer a span belongs to (``None`` for the benchmark's own spans)."""
    if name.startswith(BENCH_PREFIX):
        return None
    return name.split(".", 1)[0]


@dataclass
class SpanTotals:
    """Self time, inclusive time, call count and counters per span name."""

    self_s: dict = field(default_factory=dict)
    inclusive_s: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def self_of(self, *names: str) -> float:
        return sum(self.self_s.get(name, 0.0) for name in names)

    def inclusive_of(self, name: str) -> float:
        return self.inclusive_s.get(name, 0.0)

    def calls_of(self, name: str) -> int:
        return self.calls.get(name, 0)

    def count_of(self, name: str, key: str) -> float:
        return self.counts.get((name, key), 0)

    def layer_self(self) -> dict[str, float]:
        layers: dict[str, float] = {}
        for name, seconds in self.self_s.items():
            layer = layer_of(name)
            if layer is not None:
                layers[layer] = layers.get(layer, 0.0) + seconds
        return layers


def totals(spans: list[Span], jobs) -> SpanTotals:
    """Aggregate the spans whose job id is in ``jobs``."""
    jobs = set(jobs)
    out = SpanTotals()
    for span, own in zip(spans, self_times(spans)):
        if span.job not in jobs:
            continue
        out.self_s[span.name] = out.self_s.get(span.name, 0.0) + own
        out.inclusive_s[span.name] = out.inclusive_s.get(span.name, 0.0) + span.duration
        out.calls[span.name] = out.calls.get(span.name, 0) + 1
        for key, value in span.counts.items():
            out.counts[(span.name, key)] = out.counts.get((span.name, key), 0) + value
    return out


def coverage(spans: list[Span], unit_name: str, jobs) -> float:
    """Layer self time inside the ``unit_name`` spans of ``jobs`` over their duration."""
    jobs = set(jobs)
    layered = 0.0
    unit_total = 0.0
    for span, own in zip(spans, self_times(spans)):
        if span.job not in jobs:
            continue
        if span.name == unit_name:
            unit_total += span.duration
        elif layer_of(span.name) is not None:
            layered += own
    return layered / unit_total if unit_total > 0 else 0.0
