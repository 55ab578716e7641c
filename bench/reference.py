"""A fixed reference kernel that tracks the speed of the host.

This benchmark runs on a few virtual cores of a shared host, whose speed
changes by up to a factor of two from one second to the next as other
tenants load the same cores and memory.  A kernel that never changes,
sampled around and while each step runs, measures that speed.  Its mean time over a
step, set against ``NOMINAL_S``, is the host factor of the step, and the
reported times are the measured ones divided by that factor: seconds on a
host as fast as the nominal one.  The kernel imports nothing from
atlascover, so a change to the package moves the scaled times exactly as
much as the measured ones.

The kernel mixes what the workloads spend their time on: interpreted Python
(loops, float arithmetic, dict stores) and small numpy operations on
complex arrays.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.0035        # median kernel call inside steps, shared 2-vCPU x86-64 VM
PERIOD_S = 0.1            # CPU seconds between two samples inside a step

_Z = (np.exp(1j * np.linspace(0.0, 6.283, 2048))
      * np.linspace(0.1, 1.2, 2048))


def _work() -> float:
    s = 0.0
    table = {}
    for k in range(75):
        w = (_Z - k * 1e-3) / (0.9 + 0.3j)
        s += float(np.count_nonzero(w.real ** 2 + w.imag ** 2 <= 1.0))
        for i in range(150):
            s += (i * 0.37 + k) % 1.0
            table[i] = s
    return s


_expected = None


def sample(calls: int = 1) -> list:
    """Time ``calls`` kernel calls; each is checked against an untimed
    first call."""
    global _expected
    if _expected is None:
        _expected = _work()
    times = []
    for _ in range(calls):
        t0 = perf_counter()
        value = _work()
        times.append(perf_counter() - t0)
        if value != _expected:
            raise RuntimeError(f"reference kernel gave {value}, not {_expected}")
    return times


def host_factor(samples: list) -> float:
    """How much slower than nominal the host ran while ``samples`` were
    taken (1.0 = nominal, 1.5 = half as fast again)."""
    return statistics.fmean(samples) / NOMINAL_S


class Sampler:
    """Samples the kernel right before and after a step and, while the step
    runs, every ``PERIOD_S`` of process CPU time.

    Inside the step a ``SIGPROF`` handler runs the kernel calls, so the
    samples spread over it.  ``spent`` adds up the wall time of all calls;
    the timing of the step and of its flow takes it off again.
    """

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        sample(1)
        signal.signal(signal.SIGPROF, self._handler)

    def _handler(self, signum, frame):
        t0 = perf_counter()
        self.samples += sample(1)
        self.spent += perf_counter() - t0

    def arm(self, inside: bool = True) -> None:
        """Start a step; sample inside it only if ``inside``."""
        self.samples = []
        self._handler(None, None)
        if inside:
            signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def disarm(self) -> list:
        """End a step; the samples from ``arm`` on."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        self._handler(None, None)
        return self.samples
