"""Machine-speed calibration for timings taken on a shared machine.

On a shared 2-core VM the same ``decide`` call takes anywhere from 0.8 s
to 1.8 s, in slow spells that last minutes, so raw wall times of runs
made a few minutes apart spread by 30% and more.  The benchmark therefore
times a fixed calibration routine next to every measurement and reports
each wall time scaled by ``NOMINAL_S / calibration time``: seconds at a
fixed reference speed.  The routine is frozen here, independent of
splittree, and does what the solver spends its time on (sorting tuples,
an elementwise domination scan, tuple and dict churn), so it slows down
with the machine the way the solver does.  Raw seconds are kept in the
run's metadata next to the scaled ones.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

NOMINAL_S = 0.0035  # the routine's median time on the machine that set up the benchmark
REFRESH_S = 0.25  # re-calibrate at most this often
REPEATS = 3

_rng = random.Random(20140215)
_DATA = [tuple(sorted(_rng.randint(0, 40) for _ in range(12))) for _ in range(300)]


def _routine() -> int:
    order = sorted(set(_DATA), key=lambda s: (-sum(s), s))
    kept: list[tuple[int, ...]] = []
    for c in order:
        if not any(all(x <= y for x, y in zip(c, o)) for o in kept):
            kept.append(c)
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for s in _DATA:
        for i in range(0, len(s) - 1, 2):
            seen.setdefault(tuple(sorted(s[:i] + s[i + 2:] + (min(s[i], s[i + 1]) - 1,))), s)
    return len(kept) + len(seen)


def _calibrate() -> float:
    """Median time of the routine, with the cyclic collector off so that
    the size of the program's heap does not leak into the reading."""
    samples = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            start = time.perf_counter()
            _routine()
            samples.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)


class Meter:
    """Scales wall times to the reference speed.

    Usage: ``cal = meter.reading()`` before the timed code, then
    ``seconds * meter.factor(cal)`` after it; the factor averages the
    calibrations on both sides.
    """

    def __init__(self) -> None:
        self._cal = _calibrate()
        self._stamp = time.perf_counter()
        self.factors: list[float] = []

    def reading(self) -> float:
        if time.perf_counter() - self._stamp >= REFRESH_S:
            self._cal = _calibrate()
            self._stamp = time.perf_counter()
        return self._cal

    def factor(self, before: float) -> float:
        factor = NOMINAL_S * 2 / (before + self.reading())
        self.factors.append(factor)
        return factor

    def summary(self) -> dict:
        """Spread of the speed factors seen: how much the machine moved."""
        q = statistics.quantiles(self.factors, n=4) if len(self.factors) > 1 else self.factors * 3
        return {"median": statistics.median(self.factors), "q1": q[0], "q3": q[2],
                "samples": len(self.factors)}
