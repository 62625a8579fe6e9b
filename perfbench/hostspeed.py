"""Host-speed reference: a fixed numpy kernel timed throughout a run.

On a shared host the same code runs at different speeds from minute to
minute: a fixed kernel reads about 1.5x slower in the host's slow state, and
the share of slow time drifts. A run's wall times follow that drift, so they
differ between runs of the same code by more than a change worth measuring.

``HostSpeed.sampling()`` runs a fixed reference kernel (``REF_NOMINAL_S``
long on a quiet host) from a SIGALRM handler every ``INTERVAL_S`` seconds,
in the same thread as the program, and records when each sample started
and how long it took. A stretch of work is then reported as

    (wall time - reference time inside it) * REF_NOMINAL_S / mean sample

that is, in seconds at the host speed where the kernel takes exactly
``REF_NOMINAL_S``. The mean, not the median, because the program feels the
time average of the host's speed. The kernel is pure numpy and lives here,
so no change to the program can speed it up or slow it down, except by
competing with it for the CPU or the caches (a background thread, say),
which the normalised figure would then partly hide. The raw wall times are
printed next to the normalised ones.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05    # one reference sample per 50 ms of work, about 2% of the time
REF_NOMINAL_S = 1e-3
MIN_SAMPLES = 5      # fewer samples in a stretch: use every sample of the run

_RNG = np.random.default_rng(20240601)
_Q = _RNG.random((4, 256))          # value-iteration-sized: 4 actions x 16x16 cells
_W = _RNG.random((32, 72))          # conv-sized: 32 filters x (8 channels x 3x3)
_X = _RNG.random((72, 256))


def reference_kernel() -> float:
    """A fixed mix of small elementwise ops and small matmuls, about 1 ms."""
    q = _Q
    for _ in range(40):
        q = np.exp(q - q.max(axis=0)) * 0.5 + _Q
    y = _X
    for _ in range(4):
        y = _W.T @ np.tanh(_W @ y * 0.01)
    return float(q[0, 0] + y[0, 0])


class HostSpeed:
    """Samples the reference kernel while installed; normalises wall times."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a late signal during a sample: skip it
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_kernel()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def _between(self, t0: float, t1: float) -> list:
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return self.durations[lo:hi]

    def reference_s(self, t0: float, t1: float) -> float:
        """Time spent in reference samples that started in [t0, t1)."""
        return sum(self._between(t0, t1))

    def mean_sample_s(self, t0: float, t1: float) -> float:
        inside = self._between(t0, t1)
        if len(inside) >= MIN_SAMPLES:
            return statistics.fmean(inside)
        return statistics.fmean(self.durations) if self.durations else REF_NOMINAL_S

    def factor(self, t0: float, t1: float) -> float:
        """Multiplier from wall seconds in [t0, t1) to seconds at nominal host speed."""
        return REF_NOMINAL_S / self.mean_sample_s(t0, t1)
