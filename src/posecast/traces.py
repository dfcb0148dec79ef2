"""Pose containers, trace file I/O, and synthetic motion profiles.

A trace file is a CSV with the exact header ``t,px,py,pz,qw,qx,qy,qz``:
time in seconds (strictly increasing), position in meters, orientation as
a scalar-first unit quaternion. On load, quaternions are renormalized and
sign-aligned so consecutive samples sit in the same hemisphere.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import so3

TRACE_HEADER = "t,px,py,pz,qw,qx,qy,qz"


def whole_number(name, value):
    """value as an int if it is a whole real number, a numpy integer or an
    integral float included; ValueError otherwise, for a bool too, which
    Python counts as an integer."""
    if not isinstance(value, bool) and (isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and float(value).is_integer())):
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def real_number(name, value):
    """value as a float if it is a real number (a numpy one included; a
    str or a bool never); ValueError otherwise."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass
class Pose:
    """A timestamped rigid-body pose: t seconds, p meters, q unit [w,x,y,z]."""
    t: float
    p: np.ndarray
    q: np.ndarray


class Trace:
    """Column view of a pose sequence: t (n,), p (n, 3), q (n, 4)."""

    def __init__(self, t, p, q):
        self.t = np.asarray(t, dtype=float)
        self.p = np.asarray(p, dtype=float)
        self.q = np.asarray(q, dtype=float)
        if not (len(self.t) == len(self.p) == len(self.q)):
            raise ValueError("t, p, q must have matching lengths")

    def __len__(self):
        return len(self.t)

    def __getitem__(self, s):
        if not isinstance(s, slice):
            raise TypeError("traces slice into sub-traces; use pose(i) for one sample")
        return Trace(self.t[s], self.p[s], self.q[s])

    def pose(self, i):
        return Pose(float(self.t[i]), self.p[i].copy(), self.q[i].copy())

    def median_dt(self):
        """Median tick interval in seconds; NaN with fewer than two samples."""
        if len(self.t) < 2:
            return math.nan
        return float(np.median(np.diff(self.t)))


def hemisphere_align(q):
    """Flip quaternion rows so each has non-negative dot with its predecessor."""
    q = np.array(q, dtype=float)
    for i in range(1, len(q)):
        if np.dot(q[i], q[i - 1]) < 0.0:
            q[i] = -q[i]
    return q


def load_trace(path):
    """Read a trace CSV, validating format and quaternion sanity.

    Raises ValueError naming the offending line for a bad header, a
    malformed row, a non-increasing timestamp, or a degenerate quaternion.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != TRACE_HEADER:
        raise ValueError(f"{path}: line 1: header must be exactly '{TRACE_HEADER}'")
    t, p, q = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 8:
            raise ValueError(f"{path}: line {lineno}: expected 8 fields, got {len(fields)}")
        try:
            vals = [float(f) for f in fields]
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric field") from None
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"{path}: line {lineno}: non-finite value")
        if t and vals[0] <= t[-1]:
            raise ValueError(f"{path}: line {lineno}: timestamp not strictly increasing")
        quat = np.array(vals[4:8])
        norm = np.linalg.norm(quat)
        if norm < 0.5:
            raise ValueError(f"{path}: line {lineno}: degenerate quaternion norm {norm:.3g}")
        t.append(vals[0])
        p.append(vals[1:4])
        q.append(quat / norm)
    if not t:
        raise ValueError(f"{path}: no data rows")
    return Trace(np.array(t), np.array(p), hemisphere_align(q))


def save_trace(trace, path):
    """Write a trace CSV with 9-significant-digit floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        for t, p, q in zip(trace.t.tolist(), trace.p.tolist(), trace.q.tolist()):
            fh.write(",".join("%.9g" % v for v in (t, *p, *q)) + "\n")


def _triangle(t, freq, phase):
    """Unit triangle wave: piecewise linear, slope reversals at the peaks."""
    x = freq * t + phase
    return 4.0 * np.abs(x - np.floor(x + 0.5)) - 1.0


def _hump(rng, t, a_lo, a_hi, f_lo, f_hi):
    """Raised-cosine oscillation in [0, 2*amp]: starts at zero, stays one-sided."""
    amp = rng.uniform(a_lo, a_hi)
    f = rng.uniform(f_lo, f_hi)
    return amp * (1.0 - np.cos(2.0 * np.pi * f * t))


def _smooth_walk(rng, n, dt, tau, scale):
    """Low-pass filtered white noise: a smooth, bounded random wander."""
    alpha = dt / (tau + dt)
    w = rng.normal(size=n)
    out = np.empty(n)
    acc = 0.0
    for i in range(n):
        acc += alpha * (w[i] - acc)
        out[i] = acc
    out -= out.mean()
    std = out.std()
    return out * (scale / std) if std > 0 else out


def _steps(rng, n, dt, hold_lo, hold_hi, ramp, levels):
    """Piecewise-constant level sequence with short linear ramps between holds.

    Produces the abrupt-turn component of the hard profile: the level jumps
    between entries of `levels`, each transition crossed in `ramp` seconds.
    """
    out = np.empty(n)
    i = 0
    cur = 0.0
    while i < n:
        hold = int(rng.uniform(hold_lo, hold_hi) / dt)
        nxt = float(rng.choice(levels))
        while nxt == cur:
            nxt = float(rng.choice(levels))
        ramp_n = max(1, int(ramp / dt))
        for k in range(min(ramp_n, n - i)):
            out[i + k] = cur + (nxt - cur) * (k + 1) / ramp_n
        i += ramp_n
        if i >= n:
            break
        stop = min(n, i + hold)
        out[i:stop] = nxt
        i = stop
        cur = nxt
    return out


PROFILES = ("easy", "medium", "hard")


def generate_synthetic_trace(profile, duration_s, sample_hz=100.0, seed=0):
    """Deterministic synthetic head-motion trace at desk scale.

    easy:   slow sinusoidal sway, <= 0.5 Hz, centimeter amplitudes, small tilts.
    medium: mixed-frequency sinusoids up to 2 Hz plus a smooth random wander.
    hard:   piecewise segments with abrupt velocity reversals and right-angle
            turns, content up to 4 Hz.

    duration_s and sample_hz are real numbers and seed a non-negative whole
    number (ValueError otherwise).
    Identical arguments produce a bit-identical trace.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile '{profile}', expected one of {PROFILES}")
    duration_s = real_number("duration_s", duration_s)
    sample_hz = real_number("sample_hz", sample_hz)
    if not (0.0 < duration_s < math.inf and 0.0 < sample_hz < math.inf):
        raise ValueError("duration and sample rate must be positive and finite")
    seed = whole_number("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    pid = PROFILES.index(profile)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 71, pid)))
    n = int(round(duration_s * sample_hz))
    if n < 1:
        raise ValueError(f"{duration_s} s at {sample_hz} Hz holds no sample")
    dt = 1.0 / sample_hz
    t = np.arange(n) * dt

    p = np.zeros((n, 3))
    r = np.zeros((n, 3))

    if profile == "easy":
        # every axis stays on one side of its starting value, with swing
        # smaller than one classifier cell, so the symbol stream is constant
        for ax in range(3):
            sp = rng.choice((-1.0, 1.0))
            p[:, ax] = sp * _hump(rng, t, 0.012, 0.02, 0.2, 0.45)
            sr = rng.choice((-1.0, 1.0))
            r[:, ax] = sr * _hump(rng, t, 0.02, 0.04, 0.2, 0.45)
    elif profile == "medium":
        sp = rng.choice((-1.0, 1.0), size=3)
        sr = rng.choice((-1.0, 1.0), size=3)
        # one drifting axis per group swings across a single classifier cell
        # edge a couple of times per chunk; the rest carry sub-cell texture
        p[:, 0] = sp[0] * _hump(rng, t, 0.034, 0.04, 0.13, 0.19)
        p[:, 0] += _smooth_walk(rng, n, dt, tau=1.5, scale=0.0025)
        for ax in (1, 2):
            p[:, ax] = sp[ax] * (_hump(rng, t, 0.008, 0.012, 0.4, 0.9)
                                 + _hump(rng, t, 0.002, 0.004, 1.0, 2.0))
        r[:, 2] = sr[2] * _hump(rng, t, 0.068, 0.08, 0.13, 0.19)
        r[:, 2] += _smooth_walk(rng, n, dt, tau=1.5, scale=0.005)
        for ax in (0, 1):
            r[:, ax] = sr[ax] * (_hump(rng, t, 0.015, 0.025, 0.4, 0.9)
                                 + _hump(rng, t, 0.005, 0.008, 1.0, 2.0))
    else:
        for ax in range(3):
            f = rng.uniform(0.9, 1.5)
            amp = rng.uniform(0.1, 0.16)
            ph = rng.uniform(0.0, 1.0)
            p[:, ax] = amp * _triangle(t, f, ph)
            f2 = rng.uniform(2.8, 4.0)
            amp2 = rng.uniform(0.015, 0.03)
            ph2 = rng.uniform(0.0, 2.0 * np.pi)
            p[:, ax] += amp2 * np.sin(2.0 * np.pi * f2 * t + ph2)
        # right-angle turns on two axes, held then reversed abruptly
        half_pi = np.pi / 2.0
        r[:, 2] = _steps(rng, n, dt, 0.4, 0.9, 0.12, (-half_pi, 0.0, half_pi))
        r[:, 0] = 0.35 * _steps(rng, n, dt, 0.5, 1.1, 0.12, (-1.0, 0.0, 1.0))
        for ax in range(3):
            f3 = rng.uniform(3.0, 4.0)
            wob = rng.uniform(0.04, 0.08)
            ph3 = rng.uniform(0.0, 2.0 * np.pi)
            r[:, ax] += wob * np.sin(2.0 * np.pi * f3 * t + ph3)

    # start at the origin pose so causal prefilters see no step at t = 0
    p -= p[0]
    r -= r[0]

    q = np.array([so3._exp(v) for v in r.tolist()])
    return Trace(t, p, hemisphere_align(q))
