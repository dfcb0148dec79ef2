"""Scaling measured times to a reference machine speed.

On a shared host the speed of one core drifts by up to about 2x over
seconds as neighbours come and go, so wall times of the same code differ
from run to run far more than any bound a benchmark could keep. While a
workload runs, ``SpeedProbe`` interrupts it every ``PERIOD_S`` with an
interval-timer signal and times a small fixed reference kernel (numpy
calls and LAPACK solves on tiny arrays plus interpreter work, the mix
posecast's loops are made of). A stretch of wall time is then scaled by ``REF_NS`` over the
kernel's time around it, with the kernel's own time taken out, so the
reported figure is what the code would have taken on the reference core.
Code changes move the scaled figures; host load, which slows the kernel
by the same factor, does not.
"""

import signal
import time
from array import array

import numpy as np

PERIOD_S = 0.02
REF_NS = 133_000          # the warm kernel's time on an uncontended core of the reference host
SMOOTH = 9                # samples in the running median of kernel times

_F6 = np.eye(6)
_X6 = np.ones(6)
_F14 = np.eye(14)
_X14 = np.ones(14)
_S7 = 2.0 * np.eye(7) + 0.1
_V7 = np.ones(7)


def reference_kernel():
    """Fixed work whose duration tracks the host's current speed."""
    x, acc = _X6, 0.0
    for i in range(24):
        x = _F6 @ x + 1e-3
        acc += float(np.dot(x, x)) ** 0.5 + 0.5 * i
    x = _X14
    for i in range(6):
        x = _F14 @ x
        s = _S7 + 1e-3 * i
        acc += float(np.linalg.eigvalsh(s)[0]) + float(np.linalg.solve(s, _V7)[0])
    return acc


class SpeedProbe:
    """Samples the reference kernel on a timer while installed (main thread only)."""

    def __init__(self):
        self.at = array("q")      # perf_counter_ns when each sample started
        self.took = array("q")    # how long the sample held up the workload, ns
        self.kernel = array("q")  # the timed (second, warm) kernel call, ns
        self._old = None

    def __enter__(self):
        self._sample(None, None)
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def _sample(self, signum, frame):
        t0 = time.perf_counter_ns()
        reference_kernel()        # warms the caches the workload evicted
        t1 = time.perf_counter_ns()
        reference_kernel()
        t2 = time.perf_counter_ns()
        self.at.append(t0)
        self.took.append(t2 - t0)
        self.kernel.append(t2 - t1)

    def _arrays(self):
        # copies: a view would pin the arrays, and a sample that arrives
        # meanwhile could not append to them
        at = np.array(self.at, dtype=np.int64)
        took = np.array(self.took, dtype=np.int64)
        kernel = np.array(self.kernel, dtype=np.int64)
        pad = np.pad(kernel.astype(float), SMOOTH // 2, mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(pad, SMOOTH)
        return at, took, np.median(windows, axis=1) / REF_NS

    def slowdown(self):
        """Median kernel time over the reference time: 1 on the reference core."""
        return float(np.median(self._arrays()[2]))

    def scale_interval(self, start_ns, end_ns):
        """Reference-speed length, in ns, of the work done in [start_ns, end_ns]."""
        at, took, slow = self._arrays()
        i0, i1 = np.searchsorted(at, [start_ns, end_ns])
        edges = np.concatenate(([start_ns], at[i0:i1], [end_ns])).astype(float)
        work = np.diff(edges)
        work[1:] -= took[i0:i1]   # each sample inside starts a piece with its kernel
        factor = slow[np.r_[max(i0 - 1, 0), i0:i1]]
        return float(np.sum(work / factor))

    def scale_ticks(self, start_ns, dur_ns):
        """Reference-speed durations, in ns, of short timed calls.

        A call that a sample interrupted (its time holds the kernel's) comes
        back as NaN; the others are scaled by the nearest sample's speed.
        """
        at, _, slow = self._arrays()
        start_ns = np.asarray(start_ns, dtype=np.int64)
        dur_ns = np.asarray(dur_ns, dtype=np.int64)
        first = np.searchsorted(at, start_ns)
        clean = np.searchsorted(at, start_ns + dur_ns) == first
        nearest = np.clip(first, 0, len(at) - 1)
        before = np.clip(first - 1, 0, len(at) - 1)
        use = np.where(np.abs(at[before] - start_ns) < np.abs(at[nearest] - start_ns),
                       before, nearest)
        return np.where(clean, dur_ns / slow[use], np.nan)
