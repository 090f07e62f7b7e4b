"""Machine-speed sampling, so that timings measure the library, not the host.

On a shared host the CPU runs the same code up to about 1.9x slower for
seconds to minutes at a time, and CPU time slows with it.  A run therefore
samples the speed every ``INTERVAL_S`` of wall time: a ``SIGALRM`` handler
times a fixed probe (about 0.3 ms of small complex matrix products, 2-norms
and list conversions, the same mix of interpreter and small numpy calls as
the library's own work).  An interval of wall time is then converted to
*reference seconds*: its length without the probes inside it, times the mean
of ``REF_PROBE_S / probe time`` over the probes it holds, i.e. the time the
same work takes when every probe runs at ``REF_PROBE_S``.  ``REF_PROBE_S`` is
a fixed constant near the probe's time on the reference machine in its fast
state, so reference seconds read close to unloaded wall seconds there, and
stay comparable between runs and between versions of the library.

The probe uses numpy only, never ``ginv``, so a change to the library cannot
change it.  The sampler works in the main thread of a process that does not
use ``SIGALRM`` itself; the library does not.  Timers are not inherited by
child processes, so a child is timed by the parent's samples: both share
the ``perf_counter`` clock (CLOCK_MONOTONIC).
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
#: Probe time taken as the reference speed (Xeon, 2 vCPUs, Python 3.11,
#: numpy 2.4, one BLAS thread, fast state).
REF_PROBE_S = 2.5e-4
_PROBE_LOOPS = 5


def make_probe():
    """The probe: a function that returns the seconds a fixed piece of work takes now.

    numpy is imported here, not at module level, so that callers can pin
    the BLAS threads first."""
    import numpy as np

    a = (np.arange(16).reshape(4, 4) / 10 + 1j).astype(complex)

    def probe() -> float:
        start = time.perf_counter()
        for _ in range(_PROBE_LOOPS):
            b = a @ a.conj().T
            np.linalg.norm(b, 2)
            sum(b.real.ravel().tolist())
        return time.perf_counter() - start
    return probe


class Sampler:
    """Probes the machine's speed every ``INTERVAL_S`` while started."""

    def __init__(self):
        self.samples = []  # (start, seconds) of each probe
        self._previous = None
        self._probe = make_probe()

    def _tick(self, signum, frame):
        self.samples.append((time.perf_counter(), self._probe()))

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def scaled(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall interval ``[t0, t1]`` (perf_counter)."""
        inside = [d for t, d in self.samples if t0 <= t < t1]
        probes = inside or self._nearest(t0, t1)
        if not probes:
            raise RuntimeError("no speed samples were taken")
        net = (t1 - t0) - sum(inside)
        return net * statistics.fmean(REF_PROBE_S / d for d in probes)

    def _nearest(self, t0: float, t1: float, k: int = 2) -> list:
        mid = 0.5 * (t0 + t1)
        return [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:k]]

    def speed(self) -> float:
        """Mean speed over every probe, as a share of the reference speed."""
        return statistics.fmean(REF_PROBE_S / d for _, d in self.samples)
