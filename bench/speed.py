"""Host speed, measured by timing a fixed pure-Python kernel.

A shared host's single-thread speed drifts by up to 2x over seconds to
minutes (the best of three runs of the kernel below takes from 0.25 ms
to 0.45 ms on the same 2-core host, depending on the moment and the
process), and an operation's time drifts with it.  So while operations
run, `Speed` times the kernel every `interval` seconds of CPU time from a
SIGPROF handler, also in the middle of long operations, and `scaled()`
converts an operation's seconds to seconds at the nominal speed: its
duration, minus the time spent in the handler, times the mean of
nominal / kernel time over the samples taken during it and within
`window` seconds of it.

The kernel does not recurse, so it adds almost no stack depth to a deep
operation it interrupts, and runs with the garbage collector off, so
objects the engine keeps alive cannot slow it.  This module imports nothing beyond `gc`, `signal` and `time`, so a fresh
interpreter can time the kernel before measuring `import redsem`.
"""

import gc
import signal
import time


class _Node:
    """A frozen record with Python-level __eq__ and __hash__, like the
    engine's term dataclasses (which this module may not import)."""

    __slots__ = ("kind", "items")

    def __init__(self, kind, items):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "items", items)

    def __eq__(self, other):
        return isinstance(other, _Node) and (self.kind, self.items) == (other.kind, other.items)

    def __hash__(self):
        return hash((self.kind, self.items))


def _children(t):
    if isinstance(t, _Node) and t.items:
        yield t.items[0]
        yield _Node(t.kind, t.items[1:])


def kernel() -> int:
    """Two fixed mixes of interpreter work, neither of which recurses.

    Tuples: build a complete binary tree bottom-up and walk it with a
    stack.  Records: build a tree of `_Node`s, walk it through a
    generator, and hash and compare every node.  Two different mixes
    track the engine's speed better than either alone.
    """
    n = 0
    level = [(d,) for d in range(256)]
    while len(level) > 1:
        level = [(level[i], level[i + 1], i) for i in range(0, len(level), 2)]
    seen = set()
    stack = [level[0]]
    while stack:
        t = stack.pop()
        n += 1
        if len(t) == 1:
            seen.add(t)
        else:
            stack.append(t[0])
            stack.append(t[1])
    names = ("x", "y", "z", "w", "f", "g")
    level = [_Node("app", (names[i % 6], names[(i + 1) % 6])) for i in range(16)]
    while len(level) > 1:
        level = [_Node("app", (level[i], level[i + 1])) for i in range(0, len(level), 2)]
    stack = [level[0]]
    while stack:
        t = stack.pop()
        n += 1
        seen.add(t)
        for c in _children(t):
            if isinstance(c, _Node) and c not in seen:
                stack.append(c)
    return n + len(seen)


def kernel_time(repeats: int = 1) -> float:
    """Best of `repeats` kernel times, in seconds, garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


class Speed:
    """Kernel samples taken by a SIGPROF timer between `start` and `stop`."""

    def __init__(self, nominal_s: float, interval_s: float, window_s: float):
        self.nominal = nominal_s
        self.interval = interval_s
        self.window = window_s
        self.samples: list[tuple[float, float, float]] = []  # (at, kernel s, handler s)
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            k = kernel_time(3)
            self.samples.append((start, k, time.perf_counter() - start))
        finally:
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        self._tick(signal.SIGPROF, None)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        self._tick(signal.SIGPROF, None)

    def scaled(self, start: float, end: float, first: int = 0) -> tuple[float, int]:
        """Nominal-speed seconds of the interval [start, end], and the index
        of the first sample a later interval can need (intervals must come
        in time order)."""
        samples = self.samples
        while first < len(samples) and samples[first][0] < start - self.window:
            first += 1
        handler = 0.0
        speeds = []
        i = first
        while i < len(samples) and samples[i][0] <= end + self.window:
            at, k, spent = samples[i]
            if start <= at <= end:
                handler += spent
            speeds.append(self.nominal / k)
            i += 1
        if not speeds:  # no sample near: use the closest earlier one
            speeds = [self.nominal / samples[min(first, len(samples) - 1)][1]]
        return (end - start - handler) * sum(speeds) / len(speeds), first
