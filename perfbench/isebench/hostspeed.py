"""Host speed, sampled while the timed calls run.

The benchmark shares its host, whose speed drifts by up to about 2x for
minutes at a time (clock frequency and the neighbours' load), and by a
tenth within a second.  That is more than the changes the benchmark exists
to show, and a slow spell often outlasts a run, so neither the fastest of
several rounds nor a median removes it.  The CPU-bound timings are
therefore reported in reference seconds.

A :class:`Reference` is a fixed loop and its median time on a quiet host.
While a run measures, a sampler thread times the loop every
:data:`PERIOD_S`; a timed interval's wall seconds are scaled by the
reference time over the median loop time sampled during the interval
(widened by :data:`PAD_S` at each end, so a short interval still has
samples).  A reference second is a wall second on a host where the loop
takes its reference time.

A slower host does not slow all code alike: on this one, pure-Python
big-integer work slows about half as much again as small numpy array
expressions.  So each workload samples the loop that does its own kind of
work — :data:`PYTHON` for interpreter work, :func:`numpy_reference` for
the numpy kernel's gain sweep — and a change to the program moves only the
program.  Each sample holds the interpreter lock for well under a
millisecond, a cost every run pays alike.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

PERIOD_S = 0.05
PAD_S = 0.25
#: Bits of the loops' masks: the node count of AES's critical block.
WIDTH = 696
#: The same block in 64-bit lanes.
LANES = (WIDTH + 63) // 64


@dataclass(frozen=True)
class Reference:
    """A fixed loop and its median sampled seconds on a quiet 2-vCPU Xeon
    (Sapphire Rapids) guest."""

    name: str
    loop: Callable[[], object]
    seconds: float


def python_loop() -> int:
    """Big-integer bit operations and dict traffic in the interpreter."""
    counts: dict[int, int] = {}
    value, mask = 1, (1 << WIDTH) - 1
    for step in range(600):
        value = ((value << 7) ^ (value >> 3) ^ step) & mask
        counts[step & 63] = counts.get(step & 63, 0) + value.bit_count()
    return sum(counts.values())


PYTHON = Reference("python", python_loop, 2.3e-4)


def numpy_reference() -> Reference:
    """Small array expressions over one block's lane tables, as the numpy
    kernel's gain sweep does; :data:`PYTHON` where numpy is missing."""
    try:
        import numpy as np
    except ImportError:
        return PYTHON
    generator = np.random.default_rng(WIDTH)
    tables = generator.integers(0, 2**63, size=(WIDTH, LANES), dtype=np.uint64)
    mask = generator.integers(0, 2**63, size=LANES, dtype=np.uint64)
    weights = generator.random(WIDTH)

    def numpy_loop() -> float:
        best = 0.0
        for step in range(12):
            counts = np.bitwise_count(tables & mask).sum(axis=1)
            gains = weights * counts - (counts > step) * 0.5
            best += float(gains[int(np.argmax(gains))])
        return best

    return Reference("numpy", numpy_loop, 5.6e-4)


def loop_s(reference: Reference = PYTHON) -> float:
    """Seconds of one run of *reference*'s loop on this thread."""
    start = time.perf_counter()
    reference.loop()
    return time.perf_counter() - start


class HostSpeed:
    """Samples *reference*'s loop on a daemon thread while entered."""

    def __init__(self, reference: Reference = PYTHON, period: float = PERIOD_S) -> None:
        self.reference = reference
        self.period = period
        #: ``(start, seconds)`` of each loop run, in ``time.perf_counter`` time.
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> HostSpeed:
        self._stop.clear()
        self._thread = threading.Thread(target=self._sample, name="perfbench-hostspeed", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> bool:
        self._stop.set()
        self._thread.join()
        return False

    def _sample(self) -> None:
        while not self._stop.wait(self.period):
            start = time.perf_counter()
            self.reference.loop()
            self.samples.append((start, time.perf_counter() - start))

    def loop_s(self, start: float, end: float, pad: float = PAD_S) -> float | None:
        """Median loop seconds sampled in ``[start - pad, end + pad]``."""
        inside = [seconds for at, seconds in self.samples if start - pad <= at <= end + pad]
        return statistics.median(inside) if inside else None

    def reference_s(self, start: float, end: float) -> float:
        """The wall interval ``[start, end]`` in reference seconds."""
        loop = self.loop_s(start, end)
        if loop is None:
            raise RuntimeError("no host-speed sample near a timed interval")
        return (end - start) * self.reference.seconds / loop

    def median_loop_s(self) -> float | None:
        return statistics.median(seconds for _, seconds in self.samples) if self.samples else None
