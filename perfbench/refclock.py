"""A clock that runs at the host's reference speed.

The benchmark shares its cores with other tenants, and their load slows
every step by a factor that changes from one moment to the next (1.0 to 1.6
on the 2-core machine it was tuned on, over milliseconds to minutes). A
`ReferenceClock` measures that factor as the program runs: every `PERIOD`
seconds a timer signal interrupts the program, between two bytecodes of the
same thread, and times a fixed pure-Python probe. The wall time since the previous probe is then scaled by
``PROBE_REFERENCE_S / probe time`` (the median of the last few probes), so a
stretch that ran at half speed counts half. The probes' own time is left
out. No thread or process is started.

A change to the program moves the clock's readings as it moves the wall
time, because the probe is benchmark code that no change to ``qcpredict``
touches. What the clock removes is the host's share: two runs of the same
work read the same within a few percent, where their wall times differ by
up to half.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time

# how often the probe runs, and how long it takes on an idle core of the
# machine the benchmark was tuned on (2-core x86, Python 3.11); the clock's
# second is a wall second at that speed
PERIOD = 0.01
PROBE_REFERENCE_S = 5.5e-5
# probes whose median gives the speed factor, so one disturbed probe does
# not count
WINDOW = 5

_TABLE = {k: 3 * k for k in range(64)}


def _step(a: int, b: int) -> int:
    return _TABLE[(a + b) & 63] ^ b


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _probe() -> int:
    """Calls, dict lookups, small-int arithmetic, and short-lived tuples and
    objects: the interpreter work the program's own hot loops consist of.
    The collector is off while it runs. Of the probes tried, this mix
    tracked `label`, `train`, `load_model` and single compiles best."""
    s = 0
    for i in range(300):
        s = _step(s, i & 127) & 255
    for i in range(60):
        pair = (i, i + 1)
        a, b = pair
        obj = _Pair(a, b)
        s += obj.a + obj.b + len(pair)
    return s


class ReferenceClock:
    def __init__(self) -> None:
        self.reference = 0.0
        self.last = 0.0
        self.factors: list[float] = []
        self.factor = 1.0
        self.probes: list[float] = []
        self.previous_handler = None

    def _measure(self) -> tuple[float, float]:
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        _probe()
        ended = time.perf_counter()
        if collecting:
            gc.enable()
        self.probes.append(ended - started)
        self.factors = self.factors[-(WINDOW - 1):] + [PROBE_REFERENCE_S / (ended - started)]
        return started, ended

    def _tick(self, signum, frame) -> None:
        started, ended = self._measure()
        self.reference += (started - self.last) * self.factor
        self.last = ended
        self.factor = statistics.median(self.factors)

    def __enter__(self) -> "ReferenceClock":
        for _ in range(WINDOW):
            self._measure()
        self.factor = statistics.median(self.factors)
        self.last = time.perf_counter()
        self.previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.previous_handler)

    def now(self) -> float:
        """Reference seconds since the clock started."""
        return self.reference + (time.perf_counter() - self.last) * self.factor

    def mean_factor(self) -> float:
        """How fast the host ran, on average, relative to the reference."""
        return PROBE_REFERENCE_S / statistics.mean(self.probes) if self.probes else 1.0
