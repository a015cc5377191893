"""Host-speed calibration: a fixed reference computation sampled all along
the timed work.

The benchmark shares a small virtual machine with other tenants, and the
speed it gets swings by up to 2x within seconds and drifts over minutes;
CPU time swings with wall time, so neither can be read on its own.  The
``Sampler`` runs a small fixed computation that uses no nldp code from a
``SIGALRM`` handler, every ``PERIOD_S`` of wall time, on the same thread
as the timed work, and keeps how long each sample took.  ``scaled`` turns
a measured interval into reference seconds: the interval without the
samples' own time, multiplied by the host's mean speed over it relative to
``REF_S`` (the time of one sample on the reference host).  That is what the
work would have taken had the host run at its reference speed all along.

The reference computation mixes what the toolkit's hot paths do: a bare
Python loop, numpy calls on 15-point arrays (the Gauss-Kronrod panels of
the quadrature), vectorised arithmetic on a 24,000-point array (the
grid sweeps of the operator) and a pass over 2 MiB (the kernel
matrices).  No change to nldp can speed it up or slow it down, so a change
of the program moves the scaled times as much as it moves the raw ones.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median time of one sample on the machine of baseline.json (2 vCPU Intel
# Xeon at 2.1 GHz, one BLAS thread) when its first entry was measured.
REF_S = 0.0009
PERIOD_S = 0.05      # one sample per this much wall time, 2-3% of it

_NODES = np.linspace(-1.0, 1.0, 15)
_WEIGHTS = np.full(15, 2.0 / 15)
_GRID = np.linspace(0.01, 4.0, 24_000)
_BIG = np.ones(1 << 18)          # 2 MiB


def work() -> float:
    """The fixed reference computation."""
    acc = 0.0
    for k in range(2_000):
        acc += k * 0.5
    for k in range(20):
        x = 0.5 * (_NODES + 1.0) + 0.001 * k
        acc += float(np.dot(_WEIGHTS, np.exp(-x) * np.abs(x) ** 1.3))
    v = np.sign(_GRID - 1.0) * np.abs(_GRID - 1.0) ** 1.5
    acc += float(np.sum(v * np.exp(-_GRID)))
    return acc + float(np.dot(_BIG, _BIG))


class Sampler:
    """Samples the reference computation every ``PERIOD_S`` between
    ``start`` and ``stop``.  Not re-entrant; one per process."""

    def __init__(self):
        # (end of the previous sample, start, end) of every sample
        self.samples: list[tuple[float, float, float]] = []
        self._last = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        work()
        t1 = time.perf_counter()
        self.samples.append((self._last, t0, t1))
        self._last = t1

    def start(self):
        self._last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0: float, t1: float, raw: float) -> float:
        """``raw``, a time measured over the wall interval [t0, t1], in
        reference seconds: without the samples' own time, times the mean
        host speed over the interval, each sample weighted by the wall time
        since the one before it.  An interval shorter than a period takes
        the first sample after it."""
        inside = [s for s in self.samples if t0 <= s[1] and s[2] <= t1]
        own = sum(s[2] - s[1] for s in inside)
        if not inside:
            inside = [s for s in self.samples if s[1] >= t1][:1]
        if not inside:
            raise RuntimeError("no host-speed sample after the interval")
        weights = [max(s[1] - max(s[0], t0), 1e-9) for s in inside]
        speed = sum(w * REF_S / (s[2] - s[1])
                    for w, s in zip(weights, inside)) / sum(weights)
        return (raw - own) * speed

    def speed(self) -> float:
        """Median host speed over every sample, relative to the reference."""
        return statistics.median(REF_S / (s[2] - s[1]) for s in self.samples)
