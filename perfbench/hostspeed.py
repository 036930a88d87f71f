"""Host-speed calibration for timings taken on a shared machine.

A fixed pure-Python probe loop is timed between items, at most once per
INTERVAL_S.  A span's calibrated time is its measured time scaled by
REF_S over the median probe time within WINDOW_S of the span: its time
at the speed the probe had on a quiet host.  The probe calls nothing in
krfl, so no change to krfl can move it.

On the 2-CPU VM the benchmark was tuned on, the host's speed swings by
up to 2x over seconds to minutes, and whole runs land in slow spells.
Over ten seeds, calibration cut the quartile spread of wall_s from
0.10-0.29 to 0.05-0.10.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

REF_S = 0.0075  # probe time on the tuning host in a quiet spell
INTERVAL_S = 0.2  # probe at most this often, ~5% of the run
WINDOW_S = 1.0  # probes this close to a span calibrate it


def probe_loop():
    """Integer arithmetic and a small dict store.  A probe of Fraction
    sums allocates more, and in slow spells it slowed by more than krfl
    did (1.65x against 1.35x), so it over-corrected."""
    acc = 0
    table = {}
    for i in range(60_000):
        acc += i * i % 7
        table[i % 97] = acc
    return acc


class HostSpeed:
    def __init__(self, clock=time.perf_counter, probe=probe_loop):
        self.clock = clock
        self.probe = probe
        self.starts = []
        self.seconds = []

    def tick(self):
        """Time the probe loop unless it ran less than INTERVAL_S ago."""
        if self.starts and self.clock() - self.starts[-1] < INTERVAL_S:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = self.clock()
            self.probe()
            self.seconds.append(self.clock() - t0)
            self.starts.append(t0)
        finally:
            if enabled:
                gc.enable()

    def factor(self, start, end=None):
        """REF_S over the median probe time within WINDOW_S of the span
        [start, end].  Call tick() right before every span, so a probe
        is never more than INTERVAL_S before its start."""
        end = start if end is None else end
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        return REF_S / statistics.median(self.seconds[lo:hi])
