"""Spans and counters around the program's functions, installed from outside src/.

A span records its calls, its total time and the time of the spans nested
inside it, so every span also has a self time. A callback attached to a
span (a counter, say) runs outside the span's own clock and is charged to
no span, so tracing bookkeeping does not land in a parent's self time.

gridpop modules import each other's functions by name, so a function is
replaced in every gridpop module that holds it.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    calls: int = 0
    total: float = 0.0
    nested: float = 0.0

    @property
    def self_time(self) -> float:
        return self.total - self.nested


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [nested seconds, span name] per open span

    @property
    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self._stack[-1][1] if self._stack else None

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        """fn timed as span `name`; before(*args) and after(result, *args)
        run outside the span's clock."""
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t_in = clock()
            if before is not None:
                before(*args, **kwargs)
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span.calls += 1
                span.total += t1 - t0
                span.nested += frame[0]
            if after is not None:
                after(result, *args, **kwargs)
            if stack:
                stack[-1][0] += clock() - t_in
            return result

        traced.__wrapped__ = fn
        return traced

    def probe(self, fn, count):
        """fn unchanged, except that count(span, *args) is added to the
        counter it names for the innermost open span, or to none. The
        counting is charged as nested time of that span, so it stays out
        of the span's self time."""
        stack = self._stack
        clock = time.perf_counter

        def probed(*args, **kwargs):
            t_in = clock()
            counter = count(self.current, *args, **kwargs)
            if counter is not None:
                self.add(*counter)
            if stack:
                stack[-1][0] += clock() - t_in
            return fn(*args, **kwargs)

        probed.__wrapped__ = fn
        return probed


def replace_function(original, replacement) -> None:
    """Rebind every gridpop module attribute that is `original`."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").partition(".")[0] != "gridpop":
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
