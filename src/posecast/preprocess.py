"""Causal low-pass prefiltering of pose streams, and chunking.

The uplink pose stream is smoothed channel-by-channel (3 position + 4
quaternion components) with a Butterworth biquad cascade before anything
downstream sees it. Filtering is strictly causal: each output depends only
on samples received so far, so streaming a prefix reproduces the prefix of
the batch output bit for bit.
"""

import numpy as np
from scipy import signal

from .traces import Pose, Trace

CHUNK_LEN = 200  # poses per classified chunk


def design_butterworth_lowpass(order=2, cutoff_hz=5.0, sample_hz=100.0):
    """Design a discrete Butterworth low-pass as second-order sections.

    Bilinear transform with frequency prewarping; unity DC gain. Returns
    an (n_sections, 6) array of [b0, b1, b2, 1, a1, a2] rows.
    """
    if order not in (2, 4):
        raise ValueError(f"order must be 2 or 4, got {order}")
    if not 0.0 < cutoff_hz < 0.5 * sample_hz:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz must lie in (0, {0.5 * sample_hz}) for fs={sample_hz}")
    return signal.butter(order, cutoff_hz, btype="low", fs=sample_hz, output="sos")


class StreamFilter:
    """Streaming pose filter: one biquad cascade state per channel.

    Sections run in direct form II transposed; state starts at zero. The
    incoming quaternion is sign-aligned with the previous input before
    filtering and the filtered quaternion is renormalized to unit length.
    """

    def __init__(self, sos):
        self.sos = np.asarray(sos, dtype=float)
        if self.sos.ndim != 2 or self.sos.shape[1] != 6:
            raise ValueError("sos must be an (n_sections, 6) array")
        self.z = np.zeros((len(self.sos), 2, 7))
        self._prev_q = None

    def filter_sample(self, pose):
        """Advance the filter by one pose; returns the filtered pose."""
        q = np.asarray(pose.q, dtype=float)
        if self._prev_q is not None and np.dot(q, self._prev_q) < 0.0:
            q = -q
        self._prev_q = q
        x = np.concatenate([pose.p, q])
        for si in range(len(self.sos)):
            b0, b1, b2, _, a1, a2 = self.sos[si]
            y = b0 * x + self.z[si, 0]
            self.z[si, 0] = b1 * x - a1 * y + self.z[si, 1]
            self.z[si, 1] = b2 * x - a2 * y
            x = y
        qf = x[3:7]
        qf = qf / np.linalg.norm(qf)
        return Pose(pose.t, x[0:3].copy(), qf)


def filter_trace(trace, sos):
    """Run a fresh StreamFilter over a whole trace."""
    f = StreamFilter(sos)
    n = len(trace)
    p = np.empty((n, 3))
    q = np.empty((n, 4))
    for i in range(n):
        out = f.filter_sample(trace.pose(i))
        p[i] = out.p
        q[i] = out.q
    return Trace(trace.t.copy(), p, q)


def chunk_trace(trace, chunk_len=CHUNK_LEN):
    """Split a trace into consecutive non-overlapping chunks.

    The tail shorter than chunk_len is dropped. chunk_len below 16 is
    rejected: entropy estimates on shorter windows are meaningless.
    """
    chunk_len = int(chunk_len)
    if chunk_len < 16:
        raise ValueError(f"chunk_len must be at least 16, got {chunk_len}")
    n = len(trace) // chunk_len
    return [trace[i * chunk_len:(i + 1) * chunk_len] for i in range(n)]
