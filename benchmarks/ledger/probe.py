"""Host-speed probe: lets a host time read the same on a busy shared host.

The benchmark runs on a few vCPUs of a shared machine. A neighbour on
the same physical core slows *everything* — the simulator and any other
code alike — by up to 1.6x, switching on and off every few seconds, and
the fastest state itself drifts by 20 % over minutes. ``process_time``
rises with ``perf_counter`` (it is contention, not descheduling), so no
clock and no statistic over a run's sections removes it: ten runs of one
deterministic 2 s section spread 15-30 %.

So the worker measures the host while it measures the program. An
interval timer interrupts the main thread every ``PERIOD_S`` and times a
fixed piece of interpreter work, ``_kernel``; it takes ``REFERENCE_S`` on
the development host when nothing disturbs it. With progress rate
``REFERENCE_S / k(t)`` at each sample, a section that took ``T`` seconds
(net of the time spent in the probe itself) did

    T * mean(REFERENCE_S / k_i)

seconds of work at reference speed. That product is what the ledger
reports as a host time; the raw seconds and the speed are kept beside
it. Over 184 sections of gate ``scatter_w128`` in eight noisy minutes the
raw time spread 23 % (quartile distance / median) and this one 5.8 %;
medians of six sections, 20 % and 3.3 %. README.md ("Noise protocol") has
the ten-run spreads of every workload and what the correction misses.

The probe only reads clocks and runs its own loop: nothing in the
simulator is patched, and a signal handler runs between two bytecodes of
the main thread, so the simulated results cannot change (the output
checks run under it).
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, process_time

PERIOD_S = 0.010
# `_kernel` on the development host (Xeon @ 2.1 GHz, CPython 3.11) at
# its fastest: the 1st percentile of 100,000 samples over its quietest
# half hour. Another host only rescales every host time by one constant.
REFERENCE_S = 0.00021


def _kernel() -> int:
    """Fixed work with the simulator's mix: dict stores and lookups,
    small-int arithmetic, branches. About 3 % of a period."""
    table = {}
    total = 0
    for i in range(2000):
        table[i & 255] = i
        key = (i * 7) & 255
        total += table[key] if key in table else 0
    return total


class SpeedProbe:
    """Samples of the host's speed since the last `reset`."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wall = 0.0  # spent inside the probe, to be taken off a section
        self.cpu = 0.0

    def sample(self, signum=None, frame=None) -> None:
        wall, cpu = perf_counter(), process_time()
        _kernel()
        took = perf_counter() - wall
        self.samples.append(took)
        self.wall += took
        self.cpu += process_time() - cpu

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reset(self) -> None:
        self.samples.clear()
        self.wall = self.cpu = 0.0

    def speed(self) -> float:
        """Mean progress rate since `reset`, 1.0 = reference speed. A
        stretch too short for the timer to have fired is sampled now."""
        if not self.samples:
            self.sample()
        return statistics.fmean(REFERENCE_S / took for took in self.samples)
