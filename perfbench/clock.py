"""Op timing, with the machine's speed measured alongside.

On a shared host the same pure-Python work can take 20-40% longer from one
minute to the next, and a single op of a few seconds varies as much.  An
untraced run therefore interrupts itself every INTERVAL_S seconds to run a
fixed reference kernel, owned by the benchmark and untouched by the
program.  The reported times leave the kernel's calls out and are divided
by the slowdown, the kernel's mean time per call over
`REFERENCE_NOMINAL_S`: for a pass, over the whole pass; for an op, over
the calls made while it ran; for a set-up child process, over calls made
right after its set-up.  The kernel does the program's kind of work:
small integer dot products through nested generator expressions, gcds and
tuple building.
"""

from __future__ import annotations

import random
import signal
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from math import gcd
from time import perf_counter

#: Scaled times read as seconds on a machine where one reference call takes
#: this long; it took 3-6 ms on the 2-vCPU host (Python 3.11.7) where the
#: benchmark's bounds were set.
REFERENCE_NOMINAL_S = 0.004
#: Wall-clock period of the reference calls, about 4% of the run.
INTERVAL_S = 0.1
#: Fewest reference calls an op's slowdown is estimated from.
MIN_REFERENCES = 5

_rng = random.Random("perfbench/reference")
_GRAM = [[_rng.randrange(-3, 4) for _ in range(10)] for _ in range(10)]
_VECTORS = [tuple(_rng.randrange(-2, 3) for _ in range(10)) for _ in range(30)]


def reference_kernel() -> int:
    n = len(_GRAM)
    total = 0
    for v in _VECTORS:
        for w in _VECTORS[:8]:
            pairing = sum(v[i] * sum(_GRAM[i][j] * w[j] for j in range(n)) for i in range(n))
            content = 0
            for x in v:
                content = gcd(content, x)
            total += pairing + content + len(tuple(a + b for a, b in zip(v, w)))
    return total


class Clock:
    """Times the ops of one pass, groups them into latency samples and sets
    the tracer's op id, if any.  Use it as a context manager around the
    pass; with `calibrate`, the reference kernel then runs every INTERVAL_S
    seconds from a SIGALRM handler, and its calls are left out of every
    time the clock reports."""

    def __init__(self, tracer=None, calibrate: bool = False) -> None:
        self.tracer = tracer
        self.calibrate = calibrate
        self.ops: list[tuple[float, float, float]] = []  # start, end, seconds
        self._ref_times: list[float] = []  # start of each reference call
        self._ref_seconds: list[float] = []
        self._samples: list[list[int]] = []  # op indices of each latency sample
        self._open: list[int] | None = None
        self._previous = None

    def __enter__(self) -> "Clock":
        if self.calibrate:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.calibrate:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        reference_kernel()
        self._ref_times.append(t0)
        self._ref_seconds.append(perf_counter() - t0)

    @contextmanager
    def sample(self):
        """Ops timed inside the block make up one latency sample."""
        self._open = []
        try:
            yield
        finally:
            if self._open:
                self._samples.append(self._open)
            self._open = None

    def timed(self, op_id: str, fn, *args, **kwargs):
        """(result or None, exception or None); a failed op is counted by
        the caller, not fatal."""
        if self.tracer is not None:
            self.tracer.op = op_id
        before = len(self._ref_seconds)
        t0 = perf_counter()
        try:
            result, exc = fn(*args, **kwargs), None
        except Exception as e:
            result, exc = None, e
        t1 = perf_counter()
        if self._open is not None:
            self._open.append(len(self.ops))
        self.ops.append((t0, t1, t1 - t0 - sum(self._ref_seconds[before:])))
        return result, exc

    @property
    def reference_s(self) -> float:
        """Time spent in reference calls."""
        return sum(self._ref_seconds)

    def slowdown(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """The reference's mean time per call over nominal, from the calls
        in [start, end] widened to at least MIN_REFERENCES calls: 1.2 when
        the machine ran 20% slower than nominal."""
        times = self._ref_times
        if not times:
            return 1.0
        margin = INTERVAL_S
        while True:
            lo, hi = bisect_left(times, start), bisect_right(times, end)
            if hi - lo >= MIN_REFERENCES or (lo == 0 and hi == len(times)):
                break
            start, end, margin = start - margin, end + margin, 2 * margin
        return sum(self._ref_seconds[lo:hi]) / (hi - lo) / REFERENCE_NOMINAL_S

    def scaled(self, seconds: float) -> float:
        """A pass's `seconds`, less reference calls: each op divided by its
        own slowdown, and the time between ops by the pass's."""
        ops_s = sum(s for _, _, s in self.ops)
        return (sum(s / self.slowdown(a, b) for a, b, s in self.ops)
                + (seconds - ops_s) / self.slowdown())

    def latencies(self) -> list[float]:
        """Each latency sample's ops, each divided by the slowdown measured
        while it ran."""
        return [sum(self.ops[i][2] / self.slowdown(self.ops[i][0], self.ops[i][1])
                    for i in indices)
                for indices in self._samples]
