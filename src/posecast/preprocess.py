"""Causal low-pass prefiltering of pose streams, and chunking.

The uplink pose stream is smoothed channel-by-channel (3 position + 4
quaternion components) with a Butterworth biquad cascade before anything
downstream sees it. Filtering is strictly causal: each output depends only
on samples received so far, so streaming a prefix reproduces the prefix of
the batch output bit for bit.

The streaming filter runs in Python floats, as the filters' tick does:
on 7 channels numpy's call overhead costs more than the arithmetic. Its
coefficients are one (b0, b1, b2, a1, a2) tuple per section, and each
section's state is two 7-float tuples (z0, z1), channels ordered
px, py, pz, qw, qx, qy, qz.
"""

import math

import numpy as np
from scipy import signal

from . import so3
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
    Each biquad computes y = b0*x + z0, z0' = b1*x - a1*y + z1 and
    z1' = b2*x - a2*y in that order, as elementwise array code would, so
    positions match the numpy reference in the tests bit for bit. The
    norm is math.sqrt of the summed squares rather than a BLAS dot
    product, so it does not depend on the BLAS build; a filtered
    quaternion of zero norm comes out NaN.
    """

    def __init__(self, sos):
        sos = np.asarray(sos, dtype=float)
        if sos.ndim != 2 or sos.shape[1] != 6:
            raise ValueError("sos must be an (n_sections, 6) array")
        self._sections = [(b0, b1, b2, a1, a2) for b0, b1, b2, _, a1, a2 in sos.tolist()]
        self._z = [((0.0,) * 7, (0.0,) * 7) for _ in self._sections]
        self._prev_q = None

    def filter_sample(self, pose):
        """Advance the filter by one pose; returns the filtered pose."""
        w, x, y, z = so3._floats(pose.q)
        prev = self._prev_q
        if prev is not None and w * prev[0] + x * prev[1] + y * prev[2] + z * prev[3] < 0.0:
            w, x, y, z = -w, -x, -y, -z
        self._prev_q = (w, x, y, z)
        u0, u1, u2 = so3._floats(pose.p)
        u3, u4, u5, u6 = w, x, y, z
        state = self._z
        for i, (b0, b1, b2, a1, a2) in enumerate(self._sections):
            (z00, z01, z02, z03, z04, z05, z06), (z10, z11, z12, z13, z14, z15, z16) = state[i]
            v0, v1, v2 = b0 * u0 + z00, b0 * u1 + z01, b0 * u2 + z02
            v3, v4, v5, v6 = b0 * u3 + z03, b0 * u4 + z04, b0 * u5 + z05, b0 * u6 + z06
            state[i] = ((b1 * u0 - a1 * v0 + z10, b1 * u1 - a1 * v1 + z11,
                         b1 * u2 - a1 * v2 + z12, b1 * u3 - a1 * v3 + z13,
                         b1 * u4 - a1 * v4 + z14, b1 * u5 - a1 * v5 + z15,
                         b1 * u6 - a1 * v6 + z16),
                        (b2 * u0 - a2 * v0, b2 * u1 - a2 * v1, b2 * u2 - a2 * v2,
                         b2 * u3 - a2 * v3, b2 * u4 - a2 * v4, b2 * u5 - a2 * v5,
                         b2 * u6 - a2 * v6))
            u0, u1, u2, u3, u4, u5, u6 = v0, v1, v2, v3, v4, v5, v6
        norm = math.sqrt(u3 * u3 + u4 * u4 + u5 * u5 + u6 * u6) or math.nan
        return Pose(pose.t, np.array((u0, u1, u2)),
                    np.array((u3 / norm, u4 / norm, u5 / norm, u6 / norm)))


def filter_trace(trace, sos):
    """Run a fresh StreamFilter over a whole trace."""
    f = StreamFilter(sos)
    out = [f.filter_sample(Pose(t, p, q))
           for t, p, q in zip(trace.t.tolist(), trace.p.tolist(), trace.q.tolist())]
    return Trace(trace.t.copy(), np.array([o.p for o in out]).reshape(-1, 3),
                 np.array([o.q for o in out]).reshape(-1, 4))


def chunk_trace(trace):
    """Split a trace into consecutive non-overlapping CHUNK_LEN-pose chunks;
    the shorter tail is dropped."""
    n = len(trace) // CHUNK_LEN
    return [trace[i * CHUNK_LEN:(i + 1) * CHUNK_LEN] for i in range(n)]
