"""Causal low-pass prefiltering of pose streams, and chunking.

The uplink pose stream is smoothed channel-by-channel (3 position + 4
quaternion components) with a Butterworth biquad cascade before anything
downstream sees it. The cascade is designed here in numpy, in the
operation order of scipy.signal.butter, so its coefficients equal scipy's
bit for bit without loading scipy.signal at run time. Filtering is
strictly causal: each output depends only on samples received so far, so
streaming a prefix reproduces the prefix of the batch output bit for bit.

The streaming filter runs in Python floats, as the filters' tick does:
on 7 channels numpy's call overhead costs more than the arithmetic. Its
coefficients are one (b0, b1, b2, a1, a2) tuple per section, and each
section's state is two 7-float tuples (z0, z1), channels ordered
px, py, pz, qw, qx, qy, qz.
"""

import math

import numpy as np

from . import so3
from .traces import Pose, Trace

CHUNK_LEN = 200  # poses per classified chunk


def design_butterworth_lowpass(order=2, cutoff_hz=5.0, sample_hz=100.0):
    """Design a discrete Butterworth low-pass as second-order sections.

    Bilinear transform with frequency prewarping; unity DC gain. Returns
    an (n_sections, 6) array of [b0, b1, b2, 1, a1, a2] rows, equal bit for
    bit to scipy.signal.butter(order, cutoff_hz, fs=sample_hz, output="sos")
    (the tests compare the two). Each step runs scipy's numpy operations in
    scipy's order: Wn = cutoff / (fs/2) is prewarped to 4 tan(pi Wn / 2)
    (butter works at fs = 2), the analog poles are -exp(i pi m / 2N) times
    that and the gain its N-th power (buttap, lp2lp_zpk), and the bilinear
    map takes p to (4 + p) / (4 - p) and the gain k to k Re(1 / prod(4 - p))
    (bilinear_zpk). As zpk2sos pairs them, each upper-half-plane pole and
    its conjugate go over the double zero at z = -1, the sections run from
    the pole farthest from the unit circle to the nearest, and the gain
    multiplies the first section's numerator.
    """
    if order not in (2, 4):
        raise ValueError(f"order must be 2 or 4, got {order}")
    if not (math.isfinite(sample_hz) and 0.0 < cutoff_hz < 0.5 * sample_hz):
        raise ValueError(
            f"cutoff {cutoff_hz} Hz must lie in (0, {0.5 * sample_hz}) for fs={sample_hz}")
    wn = cutoff_hz / (sample_hz / 2)
    warped = float(4.0 * np.tan(np.pi * wn / 2.0))     # prewarped, for fs = 2
    m = np.arange(-order + 1, order, 2, dtype=float)
    poles = warped * -np.exp(1j * np.pi * m / (2 * order))
    gain = warped ** order * np.real(1.0 / np.prod(4.0 - poles))
    z = (4.0 + poles) / (4.0 - poles)
    upper = sorted(z[z.imag > 0.0], key=lambda q: -abs(1.0 - abs(q)))
    sos = np.array([[1.0, 2.0, 1.0, *np.convolve((1.0, -q), (1.0, -q.conjugate())).real]
                    for q in upper])
    sos[0, :3] *= gain
    return sos


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
        """Advance the filter by one pose; returns the filtered pose.
        ValueError, leaving the filter as it was, for a non-finite position
        or quaternion component, which would turn every later output NaN."""
        u0, u1, u2 = so3._floats(pose.p)
        w, x, y, z = so3._floats(pose.q)
        isfinite = math.isfinite
        if not (isfinite(u0) and isfinite(u1) and isfinite(u2) and isfinite(w)
                and isfinite(x) and isfinite(y) and isfinite(z)):
            raise ValueError(f"pose at t = {pose.t:.9g} is not finite")
        prev = self._prev_q
        if prev is not None and w * prev[0] + x * prev[1] + y * prev[2] + z * prev[3] < 0.0:
            w, x, y, z = -w, -x, -y, -z
        self._prev_q = (w, x, y, z)
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
