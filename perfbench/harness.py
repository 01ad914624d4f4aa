"""Measurement primitives: percentiles, a machine-speed gauge, nested
spans and call wrappers.

Nothing here knows about vdsagent.  Spans are aggregated by name as
they close (calls, total seconds, self seconds), so a long traced run
keeps a few numbers per layer in memory instead of every span.
"""

from __future__ import annotations

import bisect
import heapq
import resource
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

MIN_BEYOND = 10  # samples a reported tail percentile must leave above it
GAUGE_EVERY = 0.1  # seconds between reference-loop samples, at least
GAUGE_WINDOW = 0.25  # seconds either side of t whose samples scale t


class InsufficientSamples(ValueError):
    """Too few samples to report the requested percentile."""


def _rank(q: int, n: int) -> int:
    # nearest rank, in integer arithmetic: 0.9 * 100 is not 90 in floats
    return max(1, (q * n + 99) // 100)


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank q-th percentile (q an integer in 1..100)."""
    if not values:
        raise InsufficientSamples("no samples")
    if not 1 <= q <= 100:
        raise ValueError(f"percentile {q} outside 1..100")
    return sorted(values)[_rank(q, len(values)) - 1]


def samples_beyond(n: int, q: int) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - _rank(q, n)


def min_samples(q: int) -> int:
    """Smallest sample count that leaves MIN_BEYOND samples above the q-th."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def tail_percentile(values: list[float], q: int) -> float:
    """The q-th percentile, refused unless MIN_BEYOND samples lie above it."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q} of {len(values)} samples leaves fewer than {MIN_BEYOND} "
            f"above it; need {min_samples(q)}")
    return percentile(values, q)


def _reference_loop() -> int:
    """Fixed plain-Python work (dicts, a heap, strings): ~1.2 ms at best."""
    table: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    words = []
    for i in range(1500):
        table[i % 97] = table.get(i % 97, 0) + i
        heapq.heappush(heap, (i * 7919 % 1009, i))
        if i % 3 == 0:
            words.append(str(i))
    while heap:
        heapq.heappop(heap)
    return len(" ".join(words).split()) + len(table)


class SpeedGauge:
    """Converts wall time into reference seconds.

    Other tenants of a shared machine slow a process by up to 2x for
    seconds to minutes at a time, and that slowdown hits plain Python
    code nearly uniformly.  The gauge times a fixed loop (best of three)
    at most every GAUGE_EVERY seconds; `scale(t)` is `nominal` over the
    median loop time within GAUGE_WINDOW seconds of t, so
    `seconds * scale(t)` is how long the work would have taken when the
    loop takes `nominal`.  `scale(start, end)` is the mean of that factor
    at the samples taken within a span, so a span of several seconds is
    not scaled by its middle alone.
    """

    def __init__(self, nominal: float,
                 clock: Callable[[], float] = time.perf_counter,
                 loop: Callable[[], Any] = _reference_loop):
        self.nominal = nominal
        self.clock = clock
        self.loop = loop
        self.times: list[float] = []
        self.loop_s: list[float] = []
        self.spent = 0.0  # wall seconds spent in the loop

    def tick(self) -> None:
        """Sample the loop if the last sample is older than GAUGE_EVERY."""
        now = self.clock()
        if self.times and now - self.times[-1] < GAUGE_EVERY:
            return
        best = float("inf")
        for _ in range(3):
            start = self.clock()
            self.loop()
            best = min(best, self.clock() - start)
        self.times.append(now)
        self.loop_s.append(best)
        self.spent += self.clock() - now

    def scale(self, start: float, end: float | None = None) -> float:
        end = start if end is None else end
        inside = self.times[bisect.bisect_left(self.times, start):
                            bisect.bisect_right(self.times, end)]
        if len(inside) < 2:
            return self._scale_at((start + end) / 2)
        return statistics.fmean(self._scale_at(t) for t in inside)

    def _scale_at(self, t: float) -> float:
        lo = bisect.bisect_left(self.times, t - GAUGE_WINDOW)
        hi = bisect.bisect_right(self.times, t + GAUGE_WINDOW)
        if lo == hi:  # nothing that close: the samples either side of t
            at = bisect.bisect_left(self.times, t)
            lo, hi = max(at - 1, 0), at + 1
        return self.nominal / statistics.median(self.loop_s[lo:hi])


class Tracer:
    """Aggregates nested spans by name, plus free-form counters.

    A span's self time is its duration minus the time covered by the
    spans that opened and closed inside it.  Spans nest strictly (one
    thread), so children never overlap and their durations add up.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total, self]
        self.counters: Counter[str] = Counter()
        self._open: list[list[float]] = []  # [start, time in children]

    def begin(self) -> None:
        self._open.append([self.clock(), 0.0])

    def end(self, name: str) -> None:
        start, children = self._open.pop()
        duration = self.clock() - start
        entry = self.spans.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - children
        if self._open:
            self._open[-1][1] += duration

    def calls(self) -> Counter[str]:
        """Span call counts and counters, as one tally."""
        tally = Counter({name: int(e[0]) for name, e in self.spans.items()})
        tally.update(self.counters)
        return tally


def traced(tracer: Tracer, name: str, fn: Callable[..., Any],
           label: Callable[..., str] | None = None,
           observe: Callable[[Tracer, tuple, Any], None] | None = None
           ) -> Callable[..., Any]:
    """Wrap fn in a span; `label` picks a sub-name (e.g. a role) per call.

    A call that raises still closes its span and bumps `<span>.errors`.
    `observe` sees the arguments and result of calls that return.
    """
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = name if label is None else f"{name}.{label(*args, **kwargs)}"
        tracer.begin()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.counters[f"{span}.errors"] += 1
            raise
        finally:
            tracer.end(span)
        if observe is not None:
            observe(tracer, args, result)
        return result
    return wrapper


@contextmanager
def patched(replacements: list[tuple[Any, str, Any]]) -> Iterator[None]:
    """Set each owner.attr to a replacement, restoring all on exit."""
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, _ in replacements]
    try:
        for owner, attr, new in replacements:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


class CountingBackend:
    """Pass-through LLM backend that tallies calls and characters by role."""

    def __init__(self, inner: Any, tally: Counter[str]):
        self._inner = inner
        self._tally = tally

    def complete(self, bundle: Any) -> str:
        self._tally["llm.backend.calls"] += 1
        self._tally[f"llm.prompt_chars.{bundle.role}"] += \
            len(bundle.system) + len(bundle.user)
        text = self._inner.complete(bundle)
        self._tally[f"llm.completion_chars.{bundle.role}"] += len(text)
        return text


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
