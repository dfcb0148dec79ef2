"""Pose prediction filters: high-order error-state variants and a linear baseline.

The error-state filters keep a nominal kinematic state integrated with
rotation-increment steps, and a minimal-coordinate error state

    dx = [dp dv (da) (dj) | dth dw (dalpha) (dwdd)]

whose orientation component dth lives in the tangent space, injected
multiplicatively on the right: q <- q * exp(dth). Parenthesized blocks
exist only for the higher-order variants, by (translational,
rotational) kinematic order:

    ESKF  (1, 1)   constant velocity / constant rate
    p2o2  (2, 2)   adds acceleration and angular acceleration
    p2o3  (2, 3)   third-order orientation only
    p3o3  (3, 3)   adds jerk and angular jerk

Derivatives are never measured; each received tick re-estimates them
from a window of received nodes (derivatives of the interpolating
polynomial at the newest node, exact on polynomial motion of the
variant's degree). A correction therefore injects only dp and dth. The
window keeps each node's floats and the body rate of the pair it ends,
so a received tick adds one node and takes one log map.

Process, measurement and initial covariances are identity, and every
covariance is stored as scalar chains: a chain P_s of size 1 + order
stands for kron(P_s, I3), and with T[i, j] = dt^(j-i) / (j-i)! it
propagates as T P_s T^T + I (error_transition_matrix gives T's entries,
propagate_covariance applies them) and is measured through its first
entry, S = s00 + 1, which never degenerates (_chain_update). Position and
attitude never correlate. The position block is exactly kron(P_s, I3) for
a chain of size 1 + ord_pos that depends on the tick intervals and the
drop pattern only. The attitude block is a second chain of size
1 + ord_rot: it leaves out the rotation exp(w dt)^T of the dth row in the
transition and J_r^-T in the measurement, both I + O(|w dt|, |y|), so the
correction is dth = k0 y for the chain's first gain k0. The attitude
chain, too, depends on the tick intervals and the drop pattern only, so
when ord_pos = ord_rot it is the position chain, and the predictor keeps
one chain for both.

The two halves never read each other. Published positions depend only
on ord_pos (the position chain, the position stencil, the Taylor rows),
and published orientations only on ord_rot (the attitude chain, the rate
stencil, so3._rotation_chain). So two error-state variants with equal
ord_pos roll out bit-identical positions on the same ticks and drop
pattern, and two with equal ord_rot bit-identical orientations; the
sweep relies on this to stitch p2o3 from p2o2's positions and p3o3's
orientations (experiment._stream_plan, keyed on a FilterConfig's
predictor class and orders). Per-variant state that enters either half
other than these orders, such as per-variant noise, must extend that key.

The "KF" baseline is a 14-dimensional linear filter over [p v q qdot]
that treats quaternion components as independent scalars and
renormalizes after every step. Its covariance is kron(P_s, I3) (+)
kron(P_s, I4) for the order-1 chain.

Everything per tick runs in Python floats, where numpy's call overhead
would cost more than the arithmetic. Both predictors keep their state as
tuples of floats: the error-state filters a NominalState, the baseline
x = (p, v, q, qdot). Only the Poses at the boundary and the published
forecast hold arrays, and so does the covariance `pred.P` assembles on
request. propagate_nominal and predict_horizon share one core, _chain,
which runs the position Taylor chain and, through so3._rotation_chain,
the orientation and rate rows. A rollout is a list of
((px, py, pz), (qw, qx, qy, qz)) float tuples. The kernels are
specialised to the model's order, each bit for bit the generic loop that
tests/numpy_reference.py keeps.

A predictor's tick is `update` (propagate, correct, re-estimate the
pseudo-derivatives); every check runs before anything is assigned, so a
refused tick leaves the filter as it was. `step` is update plus the
forecast it publishes. `track` runs a whole stream, bit for bit the
update loop, and `forecasts` rolls the states out at once on a stack
(predict_horizon takes a NominalState whose leaves are (m,) arrays,
_chain then running so3._stacked_rotation_chain, and _cv_chain np.sqrt).
Of an error-state tick only a recurrence in (p, q) reads the state: add
the position terms v c1, a c2, j c3 to p, set q to canonical(q
exp(phi)), and on a received tick inject the pose (correct). The
derivative rows, the terms, the increments exp(phi) and the gains read
only the poses, the losses and the clock (t + (z.t - t) on every tick),
so track computes them first: per draw of received flags once for every
stream (Ticks, _Draw: the pose checks, the window rates, one covariance
chain per size, the baseline's gains among them), and per stream
stacked over its ticks in numpy (EskfPredictor._recur). An error-state
track returns States, arrays that make NominalStates when read.
A FilterConfig is frozen, and resolves its model's predictor class and
orders (_MODELS) once, when it is built; the kernels read them off it.
"""

import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from typing import NamedTuple

import numpy as np

from . import so3
from .traces import Pose, real_number, whole_number

class DegeneracyError(RuntimeError):
    """A filter whose innovation covariance is numerically unusable.

    No built-in filter raises it: every update's S = s00 + 1 is at least 1.
    It is kept only because the benchmark's tracer (perfbench/tracer.py)
    imports it; the sweep does not catch it."""


def canonical_model_name(name):
    for m in MODEL_NAMES:
        if isinstance(name, str) and name.lower() == m.lower():
            return m
    raise ValueError(f"unknown model '{name}', expected one of {MODEL_NAMES}")


@dataclass(frozen=True)
class FilterConfig:
    """A stream's settings. The model's predictor class, its orders and the
    window they need are resolved from the name when the config is built."""

    model: str = "p3o3"
    dt: float = 0.01
    horizon_steps: int = 10
    predictor: type = field(init=False)
    ord_pos: int = field(init=False)
    ord_rot: int = field(init=False)
    min_window: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "model", canonical_model_name(self.model))
        predictor, ord_pos, ord_rot = _MODELS[self.model]
        for name, value in (("predictor", predictor), ("ord_pos", ord_pos),
                            ("ord_rot", ord_rot), ("min_window", max(ord_pos, ord_rot) + 1)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "dt", real_number("dt", self.dt))
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and positive, got {self.dt!r}")
        object.__setattr__(self, "horizon_steps",
                           whole_number("horizon_steps", self.horizon_steps))
        if self.horizon_steps < 1:
            raise ValueError("horizon_steps must be at least 1")


class NominalState(NamedTuple):
    """Nominal kinematics: pos rows are [p; v; a; j], wvec rows [w; wd; wdd].

    Position rows are meters and derivatives thereof; angular rates are
    body-frame rad/s and derivatives. Rows above the variant's order stay
    +0.0, which _chain relies on. Every row, and q, is a tuple of Python floats; the
    state is immutable, so a variant is built with _replace.
    """
    t: float
    pos: tuple = (so3._ZERO3,) * 4
    q: tuple = (1.0, 0.0, 0.0, 0.0)
    wvec: tuple = (so3._ZERO3,) * 3

    @classmethod
    def at_pose(cls, pose):
        """At rest at pose's position and orientation."""
        zero = so3._ZERO3
        return cls(float(pose.t), (tuple(so3._floats(pose.p)), zero, zero, zero),
                   tuple(so3._floats(pose.q)))


def _chain(x, dt, n, ord_pos, ord_rot, rollout, rotation_chain=so3._rotation_chain):
    """n chained integration steps of dt from x, in Python floats, or
    elementwise in numpy on a stack of states (x's leaves (m,) arrays,
    rotation_chain so3._stacked_rotation_chain).

    The orientation and the rate rows [w wd wdd] follow rotation_chain at
    the variant's rotation order, and the position rows [p v a j] the
    Taylor chain dt^k/k!, one scalar per axis, cut at ord_pos. The rows
    above the order are +0.0, so the full chain's terms in them only turn
    a -0.0 into +0.0, which adding 0.0 to the rows once does as well; the
    top row is constant, so its products are taken once. The (position,
    orientation) after each step is appended to the `rollout` list as a
    pair of tuples of its leaves. Returns the end state.
    """
    c1, c2, c3 = dt, dt ** 2 / 2, dt ** 3 / 6       # dt^k / k!
    (p0, p1, p2), (v0, v1, v2), (a0, a1, a2), j = x.pos
    qs, wvec = rotation_chain(x.q, *x.wvec, dt, n, ord_rot)
    t = x.t
    append = rollout.append
    if ord_pos < 3:
        p0, p1, p2, v0, v1, v2 = p0 + 0.0, p1 + 0.0, p2 + 0.0, v0 + 0.0, v1 + 0.0, v2 + 0.0
        a0, a1, a2 = a0 + 0.0, a1 + 0.0, a2 + 0.0
    if ord_pos == 1:
        d0, d1, d2 = v0 * c1, v1 * c1, v2 * c1
        for q in qs:
            p0, p1, p2 = p0 + d0, p1 + d1, p2 + d2
            t = t + dt
            append(((p0, p1, p2), q))
    elif ord_pos == 2:
        d0, d1, d2, e0, e1, e2 = a0 * c2, a1 * c2, a2 * c2, a0 * c1, a1 * c1, a2 * c1
        for q in qs:
            p0, p1, p2 = p0 + v0 * c1 + d0, p1 + v1 * c1 + d1, p2 + v2 * c1 + d2
            v0, v1, v2 = v0 + e0, v1 + e1, v2 + e2
            t = t + dt
            append(((p0, p1, p2), q))
    else:
        j0, j1, j2 = j
        d0, d1, d2, e0, e1, e2 = j0 * c3, j1 * c3, j2 * c3, j0 * c2, j1 * c2, j2 * c2
        f0, f1, f2 = j0 * c1, j1 * c1, j2 * c1
        for q in qs:
            p0 = p0 + v0 * c1 + a0 * c2 + d0
            p1 = p1 + v1 * c1 + a1 * c2 + d1
            p2 = p2 + v2 * c1 + a2 * c2 + d2
            v0, v1, v2 = v0 + a0 * c1 + e0, v1 + a1 * c1 + e1, v2 + a2 * c1 + e2
            a0, a1, a2 = a0 + f0, a1 + f1, a2 + f2
            t = t + dt
            append(((p0, p1, p2), q))
    return NominalState(t, ((p0, p1, p2), (v0, v1, v2), (a0, a1, a2), j), qs[-1], wvec)


def propagate_nominal(x, dt, config):
    """Advance the nominal state by dt using the variant's kinematic order.

    Returns a new state of float tuples; x is left as it was."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    return _chain(x, dt, 1, config.ord_pos, config.ord_rot, [])


def predict_horizon(x, dt, n, config, rollout=None):
    """Pose n chained steps of dt ahead of the nominal state.

    x is one NominalState of floats, or a stack of them: a NominalState
    whose leaves are equal-length (m,) arrays, rolled out elementwise.
    When a list is given as `rollout`, the (position, orientation) tuples
    after each of the n steps are appended to it, of floats or of (m,)
    arrays; the published pose holds arrays of the last entry's, p (3,)
    and q (4,), or for a stack t (m,), p (m, 3) and q (m, 4). ValueError
    unless dt is finite and positive and n a whole number of at least 1.
    """
    if type(n) is not int:          # the per-tick call passes an int; skip the general check
        n = whole_number("n", n)
    if n < 1:
        raise ValueError("horizon must be at least 1 step")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    poses = [] if rollout is None else rollout
    stacked = isinstance(x.t, np.ndarray)
    rotation_chain = so3._stacked_rotation_chain if stacked else so3._rotation_chain
    t = _chain(x, dt, n, config.ord_pos, config.ord_rot, poses, rotation_chain).t
    p, q = poses[-1]
    if stacked:
        return Pose(t, np.column_stack(p), np.column_stack(q))
    return Pose(t, np.array(p), np.array(q))


def error_transition_matrix(dt):
    """The chains' integrator over dt, T[i, j] = dt^(j-i) / (j-i)!.

    T is unit upper triangular and constant along its diagonals, so it is
    returned as the entries (dt, dt^2/2, dt^3/6) of its first three
    superdiagonals; every chain size reads the ones it has.
    """
    return dt, dt ** 2 / 2, dt ** 3 / 6


def propagate_covariance(s, n, T):
    """T P_s T^T + I for a scalar covariance chain P_s of size n <= 4.

    T holds the integrator's entries (error_transition_matrix). P_s is
    held as the upper triangle of a 4-square matrix, row by row,
    (s00 s01 .. s33); rows past n are zero and stay zero, so one unrolled
    U = T P_s, U T^T serves every size.
    """
    c1, c2, c3 = T
    a, b, c, d, e, f, g, h, i, j = s
    u00 = a + b * c1 + c * c2 + d * c3
    u01 = b + e * c1 + f * c2 + g * c3
    u02 = c + f * c1 + h * c2 + i * c3
    u03 = d + g * c1 + i * c2 + j * c3
    u11 = e + f * c1 + g * c2
    u12 = f + h * c1 + i * c2
    u13 = g + i * c1 + j * c2
    u22 = h + i * c1
    u23 = i + j * c1
    return (u00 + u01 * c1 + u02 * c2 + u03 * c3 + 1.0, u01 + u02 * c1 + u03 * c2,
            u02 + u03 * c1, u03,
            u11 + u12 * c1 + u13 * c2 + 1.0, u12 + u13 * c1, u13,
            u22 + u23 * c1 + (n > 2), u23, j + (n > 3))


def _chain_update(s):
    """Unit-noise measurement of a chain's first entry: S = s00 + 1.

    Returns P_s - K P_s[0, :] for K = P_s[:, 0] / S, and the gains K[0], K[1]."""
    a, b, c, d, e, f, g, h, i, j = s
    S = a + 1.0
    k0, k1, k2, k3 = a / S, b / S, c / S, d / S
    return (a - k0 * a, b - k0 * b, c - k0 * c, d - k0 * d, e - k1 * b,
            f - k1 * c, g - k1 * d, h - k2 * c, i - k2 * d, j - k3 * d), k0, k1


def _chain_eye(n):
    return (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, float(n > 2), 0.0, float(n > 3))


def _chain_matrix(s, n, k=1):
    """kron(P_s, I_k) for a chain P_s of size n held as in propagate_covariance."""
    a, b, c, d, e, f, g, h, i, j = s
    S = np.array(((a, b, c, d), (b, e, f, g), (c, f, h, i), (d, g, i, j)))[:n, :n]
    return (S[:, None, :, None] * np.eye(k)[:, None]).reshape(n * k, n * k)


def correct(p, q, zp, zq, g, k):
    """Inject a received pose's floats zp, zq (_check_pose) into p and q
    at the chains' first gains g and k; returns the new (p, q).

    p moves by g (zp - p), q by dth = k y on the right, for the residual
    y = log(q^-1 zq): only dp and dth, as the derivative rows are
    re-estimated on every received tick. ValueError, from so3._log, when
    q^-1 zq is off unit. update and track's recurrence inject through here.
    """
    qw, qx, qy, qz = q
    y0, y1, y2 = so3._log(so3._mul((qw, -qx, -qy, -qz), zq))
    p0, p1, p2 = p
    z0, z1, z2 = zp
    return ((p0 + g * (z0 - p0), p1 + g * (z1 - p1), p2 + g * (z2 - p2)),
            so3._mul(q, so3._exp((k * y0, k * y1, k * y2))))


def _dd(a, b, h):
    """The divided difference (a - b) / h of two 3-vectors of floats, or
    elementwise of 3-vectors of (m,) arrays."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a0 - b0) / h, (a1 - b1) / h, (a2 - b2) / h


def _stencil_derivatives(us, fs):
    """First three derivatives at the newest node of the interpolant.

    Nodes come newest first: us are their offsets from the newest node
    (us[0] = 0), fs their values as 3-vectors of floats, at most four of
    them; or, elementwise, (m,) arrays in place of every float. The
    Newton divided differences c_k = f[u_0 .. u_k], on all three axes at
    once, weigh the basis polynomials s (s - u_1) ... (s - u_{k-1}),
    whose derivatives at s = 0 give

        f'   = c_1 - u_1 c_2 + u_1 u_2 c_3
        f''  = 2 (c_2 - (u_1 + u_2) c_3)
        f''' = 6 c_3

    with c_k = 0 past the stencil: the one-sided backward difference
    formulas, exact whenever fs samples a polynomial of degree
    len(us) - 1. Returns the rows [f', f'', f''']; those of an order
    above that degree are zero. The table is written out for each stencil
    size; every entry is the difference of the same two entries as when
    it is built in place, so every size gives the loop's floats.
    """
    m = len(us)
    if m == 1:
        return so3._ZERO3, so3._ZERO3, so3._ZERO3
    u0, u1 = us[0], us[1]
    u2, c2, c3 = 0.0, so3._ZERO3, so3._ZERO3
    if m == 2:
        c1 = _dd(fs[1], fs[0], u1 - u0)
    elif m == 3:
        u2 = us[2]
        c1 = _dd(fs[1], fs[0], u1 - u0)
        c2 = _dd(_dd(fs[2], fs[1], u2 - u1), c1, u2 - u0)
    else:
        u2, u3 = us[2], us[3]
        f0, f1, f2, f3 = fs
        c1 = _dd(f1, f0, u1 - u0)
        d2 = _dd(f2, f1, u2 - u1)
        c2 = _dd(d2, c1, u2 - u0)
        c3 = _dd(_dd(_dd(f3, f2, u3 - u2), d2, u3 - u1), c2, u3 - u0)
    s, r = u1 + u2, u1 * u2
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = c1, c2, c3
    return ((x1 - u1 * x2 + r * x3, y1 - u1 * y2 + r * y3, z1 - u1 * z2 + r * z3),
            (2.0 * (x2 - s * x3), 2.0 * (y2 - s * y3), 2.0 * (z2 - s * z3)),
            (6.0 * x3, 6.0 * y3, 6.0 * z3))


def _window_node(t, p, q, prev):
    """A received pose as a derivative-window node (t, p, q, w).

    p and q are the pose's floats as _check_pose returns them, and w the
    body rate over the pair from node `prev`,
    quat_log(q_prev^-1 * q) / (t - t_prev), or None without a previous
    node: the one log map a received tick takes for its derivatives.
    """
    if prev is None:
        return t, p, q, None
    t0, _, (qw, qx, qy, qz), _ = prev
    h = t - t0
    w0, w1, w2 = so3._log(so3._mul((qw, -qx, -qy, -qz), q))
    return t, p, q, (w0 / h, w1 / h, w2 / h)


def estimate_pseudo_derivatives(window, config):
    """Derivative estimates from a window of nodes (_window_node), oldest first.

    Translational derivatives are read off the backward polynomial through
    the last ord_pos+1 window nodes at the newest node: the classical
    one-sided difference formulas, exact on polynomial motion of the
    variant's degree. The angular rate is the pinned backward estimate
    w_k = quat_log(q_{k-1}^-1 * q_k)/dt each node keeps for the pair it
    ends; its own derivatives come from the same treatment of the last
    ord_rot rates, each placed at its pair's newer end. Both run in Python
    floats (_stencil_derivatives), or elementwise on a stack of windows of
    one length, whose t, p and w leaves are (m,) arrays (_recur).

    Returns (pos_deriv, rot_deriv), three rows each, [v, a, j] and
    [w, wd, wdd] (rows beyond the variant's order zero), each row a tuple
    of three floats, or on a stack of (m,) arrays or floats, or None when
    fewer than two nodes are available. While ramping up, derivatives
    whose stencil does not fit yet stay zero.
    """
    n = len(window)
    if n < 2:
        return None
    ts, ps, _, ws = zip(*reversed(window))          # newest first
    t0 = ts[0]
    us = [t - t0 for t in ts]
    pos_d = _stencil_derivatives(us[:config.ord_pos + 1], ps[:config.ord_pos + 1])
    # body-frame rates over the pairs inside the window, newest pair first
    k = min(config.ord_rot, n - 1)
    wd, wdd, _ = _stencil_derivatives(us[:k], ws[:k])
    return pos_d, (ws[0], wd, wdd)


def _leading(ok):
    """How many entries of a bool array come before its first False."""
    return len(ok) if ok.all() else int(ok.argmin())


def _check_pose(z):
    """Pose z's position and quaternion as floats.

    ValueError unless they and z.t are finite and the quaternion is unit
    to so3.UNIT_NORM_TOL, the tolerance of so3.quat_log."""
    p, q = so3._floats(z.p), so3._floats(z.q)
    p0, p1, p2 = p
    qw, qx, qy, qz = q
    isfinite = math.isfinite
    if not (isfinite(z.t) and isfinite(p0) and isfinite(p1) and isfinite(p2)
            and isfinite(qw) and isfinite(qx) and isfinite(qy) and isfinite(qz)):
        raise ValueError(f"measurement at t = {z.t:.9g} is not finite: "
                         f"p = {z.p}, q = {z.q}")
    n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    if abs(n - 1.0) > so3.UNIT_NORM_TOL:
        raise ValueError(f"measurement at t = {z.t:.9g}: {so3.off_unit_message(n)}")
    return p, q


def _tick_interval(z, t, received):
    """Time from t to tick z, and z's (position, quaternion) floats when
    received, else None; ValueError for a tick no filter may take.

    A tick must carry a finite timestamp past t, and a received one a pose
    _check_pose accepts. A lost packet's pose is never read, so it is not
    checked.
    """
    dt = z.t - t
    if not math.isfinite(dt):
        raise ValueError(f"tick timestamp {z.t!r} is not finite")
    if dt <= 0.0:
        raise ValueError(
            f"tick timestamp {z.t:.9g} does not advance past {t:.9g}")
    return dt, (_check_pose(z) if received else None)


def _array(rows, shape):
    """Rows of floats nested as shape as one (len(rows), *shape) array, in
    one np.fromiter pass: under half the time np.array takes."""
    floats = rows
    for _ in shape:
        floats = chain.from_iterable(floats)
    return np.fromiter(floats, float, len(rows) * math.prod(shape)).reshape(-1, *shape)


def _leaves(a):
    """An (m, *shape) array as shape's nesting of (m,) arrays."""
    a = np.moveaxis(a, 0, -1)
    return tuple(map(tuple, a)) if a.ndim == 3 else tuple(a)


def _stack(rows, shape):
    return _leaves(_array(rows, shape))


def _update_loop(pred, ticks, states):
    """pred.update on each (pose, received) of ticks; appends the state x
    after each to states and returns it."""
    for z, received in ticks:
        pred.update(z, received)
        states.append(pred.x)
    return states


def _forecast_rows(rollout, steps):
    """Per entry n of steps, the rollout's n-th stacked (position,
    orientation) as one (m, 7) array of rows [p q]."""
    return [np.column_stack((*rollout[n - 1][0], *rollout[n - 1][1])) for n in steps]


def _rows(rows):
    return tuple(map(tuple, rows))


class States(Sequence):
    """The NominalStates EskfPredictor.track returns, as arrays t (m,),
    pos (m, 4, 3), q (m, 4) and wvec (m, 3, 3), made into float tuples
    when read: a sweep builds no tuples per tick for the garbage
    collector to walk. `+` joins two."""

    def __init__(self, *arrays):
        self.arrays = arrays

    @classmethod
    def of(cls, states):
        return cls(*(_array([s[i] for s in states], shape)
                     for i, shape in enumerate(((), (4, 3), (4,), (3, 3)))))

    def __len__(self):
        return len(self.arrays[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return States(*(a[i] for a in self.arrays))
        t, pos, q, wvec = (a[i].tolist() for a in self.arrays)
        return NominalState(t, _rows(pos), tuple(q), _rows(wvec))

    def __add__(self, other):
        return States(*map(np.concatenate, zip(self.arrays, other.arrays)))

    def __repr__(self):
        return repr(list(self))


def _clock(t, stamps, kf):
    """(t after each tick, error_transition_matrix of each interval) from
    t over ticks at `stamps`, up to one whose interval update refuses:
    t moves to t + (z.t - t), as propagate_nominal moves it, or for the
    baseline (kf) to z.t."""
    ts, Ts = [], []
    for zt in stamps:
        h = zt - t
        if not 0.0 < h < math.inf:
            break
        try:
            Ts.append(error_transition_matrix(h))
        except OverflowError:
            break
        t = zt if kf else t + h
        ts.append(t)
    return np.array(ts), Ts


class Ticks(list):
    """A stream's poses after its first, with what reads only them (the
    floats and checks, one numpy pass; the clocks) and per draw of flags
    (_Draw) done once for every stream from `start`. run_experiment hands
    one to each predictor it builds at `first`, which reads it while
    fresh there; any other builds its own Ticks from its state."""

    def __init__(self, poses, first=None, start=None):
        super().__init__(poses)
        self.first, self._draws = first, {}
        if start:
            self.start = start

    @cached_property
    def start(self):
        """(t, window, chains by size, else identity) fresh at `first`."""
        p, q = _check_pose(self.first)
        return float(self.first.t), (_window_node(self.first.t, p, q, None),), {}

    @cached_property
    def floats(self):
        """(t, P, Q, ok) arrays, ok where _check_pose takes the pose; None
        where a pose is not 3 and 4 numbers, which update refuses."""
        try:
            t, P, Q = (np.array([getattr(z, f) for z in self], dtype=float) for f in "tpq")
        except (TypeError, ValueError):
            return None
        if P.shape != (len(t), 3) or Q.shape != (len(t), 4):
            return None
        qw, qx, qy, qz = Q.T
        with np.errstate(all="ignore"):
            norm = np.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
            ok = (np.isfinite(t) & np.isfinite(P).all(axis=1) & np.isfinite(Q).all(axis=1)
                  & (np.abs(norm - 1.0) <= so3.UNIT_NORM_TOL))
        return t, P, Q, ok

    @cached_property
    def clock(self):
        """The error-state clock, its entries also as an (n, 3) array."""
        ts, Ts = _clock(self.start[0], self.floats[0].tolist(), False)
        return ts, Ts, np.array(Ts).reshape(-1, 3)

    @cached_property
    def kf_clock(self):
        """The baseline's: `clock` itself unless t + (z.t - t) rounds off z.t."""
        clock = _clock(self.start[0], self.floats[0].tolist(), True)
        return self.clock if clock[1] == self.clock[1] else clock

    def draw(self, received):
        flags = [bool(r) for _, r in zip(self, received)]
        key = bytes(flags)
        if key not in self._draws:
            self._draws[key] = _Draw(self, flags)
        return self._draws[key]


class _Draw:
    """A draw of flags over a Ticks: recv, the received ticks before
    stop_pose, the first _check_pose refuses; z, their [p q] as seven
    lists of floats; `window` and `gains`. No tuples per tick: a group's
    draws live together."""

    def __init__(self, ticks, flags):
        _, P, Q, ok = self._floats = ticks.floats
        self._start, self.flags, self._gains = ticks.start, flags, {}
        recv = np.flatnonzero(flags)
        c = _leading(ok[recv])
        self.stop_pose = int(recv[c]) if c < len(recv) else len(flags)
        self.recv = recv = recv[:c]
        self.z = np.column_stack((P[recv], Q[recv])).T.tolist()

    @cached_property
    def window(self):
        """(stop_pair, nodes): the first received tick whose pair
        _window_node refuses (one so3._stacked_log of all pairs), and the
        start window's and received nodes before it as (t, p, w) arrays."""
        t, P, Q, _ = self._floats
        window, recv = self._start[1], self.recv
        L = len(window)
        tn = np.concatenate(([node[0] for node in window], t[recv]))
        qw, qx, qy, qz = np.vstack((window[-1][2], Q[recv])).T
        with np.errstate(all="ignore"):
            (lx, ly, lz), norm = so3._stacked_log(*so3._mul((qw[:-1], -qx[:-1], -qy[:-1], -qz[:-1]),
                                                            (qw[1:], qx[1:], qy[1:], qz[1:])))
            h = tn[L:] - tn[L - 1:-1]
            c = _leading((np.abs(norm - 1.0) <= so3.UNIT_NORM_TOL) & (h > 0.0))
            W = np.column_stack((lx / h, ly / h, lz / h))[:c]
        rates = [(math.nan,) * 3 if node[3] is None else node[3] for node in window]
        return (int(recv[c]) if c < len(recv) else self.stop_pose,
                (tn[:L + c], np.vstack(([node[1] for node in window], P[recv[:c]])),
                 np.vstack((rates, W))))

    def gains(self, size, clock):
        """The chain of this size on the clock up to stop_pose: the gains
        of each received tick as lists k0, k1, and each tick's chain."""
        key = size, id(clock)
        if key not in self._gains:
            chain, k0s, k1s, chains = self._start[2].get(size) or _chain_eye(size), [], [], []
            for T, r in zip(clock[1][:self.stop_pose], self.flags):
                chain = propagate_covariance(chain, size, T)
                if r:
                    chain, k0, k1 = _chain_update(chain)
                    k0s.append(k0)
                    k1s.append(k1)
                chains.append(chain)
            self._gains[key] = k0s, k1s, np.array(chains).reshape(-1, 10)
        return self._gains[key]


def _carry(rows, c1, c2, order, pad):
    """Rows (v, a, j), or (w, wd, wdd), (k, 3, 3), one lost tick of dt c1
    on, as _chain (pad 0.0 at orders 1 and 2) or so3._rotation_chain
    (pad -0.0, which adds nothing) advance them."""
    v, a, j = rows[:, 0], rows[:, 1], rows[:, 2]
    if order == 3:
        v, a = v + a * c1 + j * c2, a + j * c1
    elif order == 2:
        v, a = v + pad + (a + pad) * c1, a + pad
    else:
        v, a = v + pad, a + pad
    return np.stack((v, a, j), axis=1)


def _ticks(pred, poses, start):
    """poses if a Ticks pred is fresh at the first of, else one from start."""
    fresh = pred._first is not None and isinstance(poses, Ticks) and poses.first is pred._first
    return poses if fresh else Ticks(poses, start=start)


class EskfPredictor:
    """Streaming error-state predictor.

    Per tick (update): propagate the nominal state and covariance across
    the tick interval; if the measurement was received, correct, then
    re-estimate the pseudo-derivatives from the received-pose window.
    step is update, then the pose horizon_steps * dt ahead, which it
    publishes. During drops the window does not advance, so the filter
    coasts open loop on frozen derivatives.

    track runs a whole stream as the update loop would, and forecasts
    rolls many of the states `x` took out at once, so a stream can
    publish every tick's forecasts after it. A first pose, or a received
    one, that is not finite or whose quaternion is not unit raises
    ValueError, as does a stale tick or a received pose whose pair with
    the window's newest node is not unit; every check runs before
    anything is assigned, so a refused tick leaves the filter as it was.
    """

    def __init__(self, config, first_pose):
        if config.predictor is not EskfPredictor:
            raise ValueError("use KfBaseline for the linear baseline")
        p, q = _check_pose(first_pose)
        self.config = config
        self.x = NominalState.at_pose(first_pose)
        # chain sizes: position kron(chain, I3), attitude kron(att_chain, I3)
        self._sizes = n, m = 1 + config.ord_pos, 1 + config.ord_rot
        self.chain = _chain_eye(n)
        # the attitude chain is the position chain itself at equal orders
        self.att_chain = self.chain if n == m else _chain_eye(m)
        self.window = deque([_window_node(first_pose.t, p, q, None)], maxlen=config.min_window)
        self._first = first_pose        # until a tick moves the filter

    @property
    def P(self):
        """The whole error covariance, assembled from its two chains."""
        n, m = self._sizes
        P = np.zeros((3 * (n + m),) * 2)
        P[:3 * n, :3 * n] = _chain_matrix(self.chain, n, 3)
        P[3 * n:, 3 * n:] = _chain_matrix(self.att_chain, m, 3)
        return P

    def update(self, z, received=True):
        """Advance one tick to measurement z, publishing nothing."""
        cfg = self.config
        dt, zpq = _tick_interval(z, self.x.t, received)
        T = error_transition_matrix(dt)
        x = propagate_nominal(self.x, dt, cfg)
        (n, m), shared = self._sizes, self.att_chain is self.chain
        chain = propagate_covariance(self.chain, n, T)
        att_chain = chain if shared else propagate_covariance(self.att_chain, m, T)
        if received:
            chain, g, _ = _chain_update(chain)
            att_chain, k, _ = (chain, g, None) if shared else _chain_update(att_chain)
            p, q = correct(x.pos[0], x.q, *zpq, g, k)
            self.window.append(_window_node(z.t, *zpq, self.window[-1]))
            pos_d, rot_d = estimate_pseudo_derivatives(self.window, cfg)
            x = NominalState(x.t, (p, *pos_d), q, rot_d)
        self.x, self.chain, self.att_chain, self._first = x, chain, att_chain, None

    def track(self, poses, received):
        """update on each pose, received iff its flag is; returns each
        tick's x as States, bit for bit the update loop's, leaving the
        filter as it does. update takes the ticks until the window holds
        min_window - 1 nodes, _recur the rest up to one update would
        refuse or whose increment is infinite, and update that tick on."""
        cfg, x = self.config, self.x
        ticks = _ticks(self, poses, (x.t, tuple(self.window),
                                     dict(zip(self._sizes, (self.chain, self.att_chain)))))
        if ticks.floats is None:
            return States.of(_update_loop(self, zip(poses, received), []))
        draw = ticks.draw(received)
        flags, recv, L = draw.flags, draw.recv, len(ticks.start[1])
        u = max(0, cfg.min_window - 1 - L)
        s = len(flags) if u > len(recv) else int(recv[u - 1]) + 1 if u else 0
        states = States.of(_update_loop(self, zip(ticks[:s], flags[:s]), []))
        stop = min(len(ticks.clock[0]), draw.window[0])
        if s < stop:
            states += self._recur(ticks, draw, s, stop, u, L)
        self._first, k = None, len(states)
        return states + States.of(_update_loop(self, zip(ticks[k:], flags[k:]), []))

    def _recur(self, ticks, draw, s, stop, u, L):
        """track's ticks s to stop, received ones from recv[u]: their
        States, up to one correct refuses, leaving the filter at the last.
        In numpy first: the pseudo-derivatives, the rows after each tick
        (carried through coasts a depth at a time), and from the rows
        before it each tick's position terms and exp(phi). The loop then
        runs the (p, q) recurrence, every float in update's order."""
        cfg, x, mw = self.config, self.x, self.config.min_window
        m, C, recv = stop - s, ticks.clock[2][s:stop], draw.recv
        got = recv[u:np.searchsorted(recv, stop)] - s + 1
        F, i0 = len(got), L + u - mw + 1
        nt, nP, nW = draw.window[1]
        R = np.empty((m + 1, 7, 3))     # rows [p v a j w wd wdd] before tick s, after each
        R[0, 1:] = (*x.pos[1:], *x.wvec)
        flags = np.array(draw.flags[s:stop])
        lost = np.flatnonzero(~flags) + 1
        known = np.maximum.accumulate(np.where(flags, np.arange(1, m + 1), 0))[lost - 1]
        by = np.argsort(lost - known, kind="stable")        # by depth into the coast
        deep = np.split(lost[by], np.flatnonzero(np.diff((lost - known)[by])) + 1)
        with np.errstate(all="ignore"):
            windows = [(nt[i:i + F], tuple(nP[i:i + F].T), None, tuple(nW[i:i + F].T))
                       for i in range(i0, i0 + mw)]
            for r, row in enumerate(chain(*estimate_pseudo_derivatives(windows, cfg)), start=1):
                R[got, r, 0], R[got, r, 1], R[got, r, 2] = row
            # where two nodes' offsets from the newest round to one, update's
            # stencil raises ZeroDivisionError: the loop stops before that tick
            us = [w[0] - windows[-1][0] for w in windows]
            apart = np.logical_and.reduce([a != b for a, b in combinations(us, 2)])
            end = m if apart.all() else int(got[_leading(apart)]) - 1
            for h, order, pad in ((1, cfg.ord_pos, 0.0), (4, cfg.ord_rot, -0.0)):
                for i, prev in [(lost, known)] if order == 1 else [(i, i - 1) for i in deep]:
                    R[i, h:h + 3] = _carry(R[prev, h:h + 3], C[i - 1, :1], C[i - 1, 1:2], order, pad)
            V, A, J, W, WD, WDD = np.moveaxis(R[:-1, 1:], 1, 0)
            c1, c2, c3 = C[:, :1], C[:, 1:2], C[:, 2:]
            # at orders 1 and 2, _chain's 0.0 added to p goes into the first term,
            # after which adding a 0.0 term leaves p as it is
            terms = np.zeros((3, m, 3))
            terms[:cfg.ord_pos] = ((V * c1, A * c2, J * c3) if cfg.ord_pos == 3
                                   else (V * c1 + 0.0, A * c2)[:cfg.ord_pos])
            phi = so3._stacked_increments(W.T, WD.T, WDD.T, C[:, 0], cfg.ord_rot)
            m = min(end, _leading(~np.isinf(phi[0] * phi[0] + phi[1] * phi[1] + phi[2] * phi[2])))
            incs = [e.tolist() for e in so3._stacked_exp(*(c[:m] for c in phi))]
        k0, _, chains = draw.gains(self._sizes[0], ticks.clock)
        att_k0, _, att_chains = draw.gains(self._sizes[1], ticks.clock)
        fixes = zip(*(z[u:] for z in draw.z), k0[u:], att_k0[u:])
        (p0, p1, p2), (qw, qx, qy, qz), ps, qs = x.pos[0], x.q, [], []
        try:
            for (d0, d1, d2, e0, e1, e2, f0, f1, f2, ew, ex, ey, ez, r) in zip(
                    *terms[:, :m].transpose(0, 2, 1).reshape(9, m).tolist(), *incs, flags.tolist()):
                p0, p1, p2 = p0 + d0 + e0 + f0, p1 + d1 + e1 + f1, p2 + d2 + e2 + f2
                rw = qw * ew - qx * ex - qy * ey - qz * ez
                rx = qw * ex + qx * ew + qy * ez - qz * ey
                ry = qw * ey - qx * ez + qy * ew + qz * ex
                rz = qw * ez + qx * ey - qy * ex + qz * ew
                q = (-rw, -rx, -ry, -rz) if rw < 0.0 else (rw, rx, ry, rz)
                if r:
                    z0, z1, z2, zw, zx, zy, zz, g, kq = next(fixes)
                    (p0, p1, p2), q = correct((p0, p1, p2), q, (z0, z1, z2), (zw, zx, zy, zz), g, kq)
                qw, qx, qy, qz = q
                ps.append((p0, p1, p2))
                qs.append(q)
        except ValueError:      # correct refuses the tick; update refuses it again
            pass
        m = len(ps)
        if not m:
            return States.of([])
        R[1:m + 1, 0] = ps
        states = States(ticks.clock[0][s:s + m], R[1:m + 1, :4], np.array(qs), R[1:m + 1, 4:])
        last, j, shared = s + m - 1, int(np.searchsorted(recv, s + m)), self.att_chain is self.chain
        self.x, self.chain = states[-1], tuple(chains[last].tolist())
        self.att_chain = self.chain if shared else tuple(att_chains[last].tolist())
        _, P, Q, _ = ticks.floats
        self.window.extend((ticks[r].t, P[r].tolist(), Q[r].tolist(), tuple(nW[L + i].tolist()))
                           for i, r in enumerate(recv[:j].tolist()) if i >= max(u, j - mw))
        return states

    def step(self, z, received=True):
        """Advance one tick to measurement z; returns the published pose."""
        self.update(z, received)
        cfg = self.config
        return predict_horizon(self.x, cfg.dt, cfg.horizon_steps, cfg)

    def forecasts(self, states, steps):
        """Per entry n of steps, an (m, 7) array whose row i is the pose
        [p q] n steps of config.dt past states[i], a state x took (States
        or a list): bit for bit what step publishes from it at a horizon
        of n. One predict_horizon call rolls all m states out."""
        cfg = self.config
        t, pos, q, wvec = (states if isinstance(states, States) else States.of(states)).arrays
        rollout = []
        predict_horizon(NominalState(t, _leaves(pos), _leaves(q), _leaves(wvec)),
                        cfg.dt, max(steps), cfg, rollout)
        return _forecast_rows(rollout, steps)


def _unit(q):
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return (w / n, x / n, y / n, z / n)


def _cv_chain(p, v, q, qd, h, n, rollout, sqrt=math.sqrt):
    """n constant-velocity steps of h from (p, q) at rates (v, qd), the
    baseline's transition, renormalizing the quaternion after each step.

    The increments v h and qd h are the same on every step, so they are
    taken once. Every leaf is a float, or, on a stack of states with sqrt
    np.sqrt, an (m,) array, which runs elementwise. Appends each step's
    (p, q) to the `rollout` list as tuples of its leaves and returns the
    last."""
    (p0, p1, p2), (v0, v1, v2), (w, x, y, z), (dw, dx, dy, dz) = p, v, q, qd
    v0, v1, v2 = v0 * h, v1 * h, v2 * h
    dw, dx, dy, dz = dw * h, dx * h, dy * h, dz * h
    append = rollout.append
    for _ in range(n):
        p0, p1, p2 = p0 + v0, p1 + v1, p2 + v2
        w = w + dw
        x = x + dx
        y = y + dy
        z = z + dz
        u = sqrt(w * w + x * x + y * y + z * z)
        q = w, x, y, z = w / u, x / u, y / u, z / u
        append(((p0, p1, p2), q))
    return rollout[-1]


def _kf_correct(x, zp, zq, g0, g1):
    """The baseline's x corrected by a pose's floats at gains g0, g1."""
    (z0, z1, z2), (zw, zx, zy, zz) = zp, zq
    (p0, p1, p2), (v0, v1, v2), (qw, qx, qy, qz), (dw, dx, dy, dz) = x
    if zw * qw + zx * qx + zy * qy + zz * qz < 0.0:
        zw, zx, zy, zz = -zw, -zx, -zy, -zz
    e0, e1, e2 = z0 - p0, z1 - p1, z2 - p2
    ew, ex, ey, ez = zw - qw, zx - qx, zy - qy, zz - qz
    return ((p0 + g0 * e0, p1 + g0 * e1, p2 + g0 * e2), (v0 + g1 * e0, v1 + g1 * e1, v2 + g1 * e2),
            _unit((qw + g0 * ew, qx + g0 * ex, qy + g0 * ey, qz + g0 * ez)),
            (dw + g1 * ew, dx + g1 * ex, dy + g1 * ey, dz + g1 * ez))


class KfBaseline:
    """Linear Kalman baseline over x = (p, v, q, qdot), tuples of 3, 3, 4, 4 floats.

    Constant-velocity transition for both blocks; the measurement is the
    raw 7-vector [p q] with unit noise. Quaternion components are
    filtered as independent scalars and the quaternion is renormalized
    after every propagation and update, the textbook abuse the
    error-state filters are built to avoid. The covariance is one
    2-square scalar chain (see the module notes), so an update is two
    scalar gains. update, step, forecasts and the ticks rejected are as
    in EskfPredictor; track is the update loop, returning a list, with
    the gains read off the draw (_Draw.gains, the ESKF's size-2 chain).
    """

    def __init__(self, config, first_pose):
        if config.predictor is not KfBaseline:
            raise ValueError("use EskfPredictor for the error-state models")
        p, q = _check_pose(first_pose)
        self.config = config
        self.t = float(first_pose.t)
        self.x = tuple(p), so3._ZERO3, tuple(q), (0.0, 0.0, 0.0, 0.0)
        self.chain = _chain_eye(2)
        self._first = first_pose        # until a tick moves the filter

    @property
    def P(self):
        """The 14-square covariance, assembled from the chain."""
        P = np.zeros((14, 14))
        P[:6, :6], P[6:, 6:] = _chain_matrix(self.chain, 2, 3), _chain_matrix(self.chain, 2, 4)
        return P

    def update(self, z, received=True):
        dt, zpq = _tick_interval(z, self.t, received)
        p, v, q, qd = self.x
        p, q = _cv_chain(p, v, q, qd, dt, 1, [])
        chain, x = propagate_covariance(self.chain, 2, error_transition_matrix(dt)), (p, v, q, qd)
        if received:
            chain, g0, g1 = _chain_update(chain)
            x = _kf_correct(x, *zpq, g0, g1)
        self.x, self.chain, self.t, self._first = x, chain, z.t, None

    def track(self, poses, received):
        ticks = _ticks(self, poses, (self.t, (), {2: self.chain}))
        if ticks.floats is None:
            return _update_loop(self, zip(poses, received), [])
        draw, clock = ticks.draw(received), ticks.kf_clock
        k0, k1, chains = draw.gains(2, clock)
        fixes, x, states = zip(*draw.z, k0, k1), self.x, []
        try:
            for (h, _, _), r in zip(clock[1][:draw.stop_pose], draw.flags):
                p, q = _cv_chain(*x, h, 1, [])
                x = p, x[1], q, x[3]
                if r:
                    z0, z1, z2, zw, zx, zy, zz, g0, g1 = next(fixes)
                    x = _kf_correct(x, (z0, z1, z2), (zw, zx, zy, zz), g0, g1)
                states.append(x)
        except ArithmeticError:     # a quaternion of zero norm: update raises it again
            pass
        if states:
            k = len(states)
            self.x, self.chain, self.t = states[-1], tuple(chains[k - 1].tolist()), ticks[k - 1].t
        self._first = None
        return _update_loop(self, zip(ticks[len(states):], draw.flags[len(states):]), states)

    def step(self, z, received=True):
        self.update(z, received)
        n, h = self.config.horizon_steps, self.config.dt
        p, q = _cv_chain(*self.x, h, n, [])
        return Pose(self.t + n * h, np.array(p), np.array(q))

    def forecasts(self, states, steps):
        p, v, q, qd = (_stack([s[i] for s in states], (k,)) for i, k in enumerate((3, 3, 4, 4)))
        rollout = []
        _cv_chain(p, v, q, qd, self.config.dt, max(steps), rollout, np.sqrt)
        return _forecast_rows(rollout, steps)


# name -> (predictor class, ord_pos, ord_rot)
_MODELS = {"KF": (KfBaseline, 1, 1), "ESKF": (EskfPredictor, 1, 1),
           "p2o2": (EskfPredictor, 2, 2), "p2o3": (EskfPredictor, 2, 3),
           "p3o3": (EskfPredictor, 3, 3)}

MODEL_NAMES = tuple(_MODELS)


def make_predictor(config, first_pose):
    """Instantiate the model named by the config at the stream's first pose."""
    return config.predictor(config, first_pose)
