"""In-memory span recorder that times library functions from outside the package.

A span is one call of a wrapped function: its name, start and end in
process CPU seconds, the span that was open when it started, the request
(benchmark instance) it belongs to, and the exception type if the call
raised.  Spans stay in memory until the caller writes them out.  CPU time is
used because on a shared virtual machine wall time also counts the periods
in which the host runs other tenants on this CPU.

Wrapping replaces every binding of a function object in the given modules,
so a name imported with ``from .numerics import operator_norm`` is timed in
every module that calls it.  :meth:`Recorder.installed` puts every original
object back on exit, also when the body raises.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    request: int
    error: str | None = None


class Recorder:
    """Wraps functions with span timers and optional per-call counters.

    ``targets`` lists ``(defining module, function name)`` pairs; a span is
    named ``<module>.<function>`` after the last component of the module
    name.  ``hooks`` maps a span name to ``fn(args, kwargs, result, counts)``,
    called after a successful call to add derived counts.  ``counters`` lists
    ``(owner, attribute, label, under)``: a call of ``owner.attribute`` made
    while the innermost open span is named ``under`` adds 1 to
    ``counts[label]``; such calls get no span of their own.
    """

    def __init__(self, modules, targets, hooks=None, counters=()):
        self.modules = list(modules)
        self.targets = list(targets)
        self.hooks = dict(hooks or {})
        self.counters = list(counters)
        self.spans: list[Span] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.request = -1
        self._stack: list[int] = []

    def _timed(self, name, fn):
        spans, stack, hook = self.spans, self._stack, self.hooks.get(name)
        clock = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.request)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, self.counts)
            return result

        return wrapper

    def _counted(self, label, under, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]].name == under:
                counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target binding for the duration of the block."""
        saved = []
        try:
            for module, fname in self.targets:
                original = getattr(module, fname)
                name = f"{module.__name__.rsplit('.', 1)[-1]}.{fname}"
                wrapper = self._timed(name, original)
                for mod in self.modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
            for owner, attr, label, under in self.counters:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._counted(label, under, original))
            yield self
        finally:
            for mod, attr, value in reversed(saved):
                setattr(mod, attr, value)


def children_of(spans) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            kids[span.parent].append(i)
    return kids


def self_times(spans, kids=None) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    if kids is None:
        kids = children_of(spans)
    out = []
    for span, ks in zip(spans, kids):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in ks):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds, calls that raised."""
    table: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(
            span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0}
        )
        row["calls"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += own
        row["failed"] += span.error is not None
    return table
