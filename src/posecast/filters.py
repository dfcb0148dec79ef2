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
x = (p, v, q, qdot). Only the Poses at the boundary, the first pose, each
measurement and the published forecast, hold arrays, and so does the
covariance that `pred.P` assembles on request. propagate_nominal and
predict_horizon share one core, _chain, which runs the position Taylor
chain itself and the orientation and rate rows through
so3._rotation_chain. A rollout is a list of
((px, py, pz), (qw, qx, qy, qz)) float tuples.

A predictor's tick is `update` (propagate, correct, re-estimate the
pseudo-derivatives); `step` is update plus the forecast it publishes. A
sweep's stream only updates per tick and keeps each state `x`; after its
loop, the predictor's `forecasts` rolls every kept state out at once on
a stack: a NominalState (or a baseline x) whose leaves are (m,) arrays.
_chain and _cv_chain are elementwise and serve both shapes: on a stack,
_chain runs so3._stacked_rotation_chain, which predict_horizon picks by
the leaves' type, and _cv_chain np.sqrt. Both take that kernel as an
argument whose default is the scalar one, so neither checks a type on
the tick path. Every element of a stacked
rollout is the float the per-tick rollout gives, and the error-state
forecast still goes through predict_horizon, once per stream.

The tick's kernels are specialised to the model's order: _chain and
so3._rotation_chain run one loop per order, _stencil_derivatives one
table per stencil size, and the baseline's propagation and rollout one
loop, _cv_chain. Each gives bit for bit the floats of the generic loop
that tests/numpy_reference.py keeps as its reference. A received pose is
read into floats once (_check_pose), for correct and _window_node.
A FilterConfig is frozen, and resolves its model's predictor class and
orders (_MODELS) once, when it is built; the kernels read them off it.
"""

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
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


def correct(x, chain, att_chain, zp, zq):
    """Measurement update from a received pose, position zp and quaternion
    zq as floats (_check_pose); returns (state, chain, att_chain).

    The position residual updates the position chain and the orientation
    residual y, taken in the tangent space on the right, the attitude
    chain. Only dp and dth are injected, dth = k0 y on the right through
    the exponential: EskfPredictor.step replaces the derivative rows with
    pseudo-derivatives on every received tick. Both chain updates cover
    their whole block; when att_chain is chain (a variant with ord_pos =
    ord_rot), one update serves both.
    """
    qw, qx, qy, qz = q = x.q
    y0, y1, y2 = so3._log(so3._mul((qw, -qx, -qy, -qz), zq))
    shared = att_chain is chain
    chain, g, _ = _chain_update(chain)
    if shared:
        att_chain, k = chain, g
    else:
        att_chain, k, _ = _chain_update(att_chain)

    (p0, p1, p2), *derivs = x.pos
    z0, z1, z2 = zp
    pos = ((p0 + g * (z0 - p0), p1 + g * (z1 - p1), p2 + g * (z2 - p2)), *derivs)
    dth = (k * y0, k * y1, k * y2)
    return NominalState(x.t, pos, so3._mul(q, so3._exp(dth)), x.wvec), chain, att_chain


def _dd(a, b, h):
    """The divided difference (a - b) / h of two 3-vectors of floats."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a0 - b0) / h, (a1 - b1) / h, (a2 - b2) / h


def _stencil_derivatives(us, fs):
    """First three derivatives at the newest node of the interpolant.

    Nodes come newest first: us are their offsets from the newest node
    (us[0] = 0), fs their values as 3-vectors of floats, at most four of
    them. The Newton divided differences c_k = f[u_0 .. u_k], on all three
    axes at once, weigh the basis polynomials s (s - u_1) ... (s - u_{k-1}),
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
    floats (_stencil_derivatives).

    Returns (pos_deriv, rot_deriv), three float tuples each, [v, a, j] and
    [w, wd, wdd] (rows beyond the variant's order zero), or None when
    fewer than two nodes are available. While ramping up, derivatives
    whose stencil does not fit yet stay zero.
    """
    n = len(window)
    if n < 2:
        return None
    ord_pos, ord_rot = config.ord_pos, config.ord_rot
    ts, ps, _, ws = zip(*reversed(window))          # newest first
    t0 = ts[0]
    us = [t - t0 for t in ts]
    pos_d = _stencil_derivatives(us[:ord_pos + 1], ps[:ord_pos + 1])
    # body-frame rates over the pairs inside the window, newest pair first
    k = min(ord_rot, n - 1)
    wd, wdd, _ = _stencil_derivatives(us[:k], ws[:k])
    return pos_d, (ws[0], wd, wdd)


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


def _stack(rows, shape):
    """Rows of float tuples nested as shape, (k,) or (k, l), as one such
    nesting whose leaves are (len(rows),) arrays: leaf [i][j] holds every
    row's [i][j]. The floats are read in one pass, which np.fromiter
    takes in under half the time np.array takes to walk the nesting."""
    floats = chain.from_iterable(rows)
    if len(shape) == 2:
        floats = chain.from_iterable(floats)
    a = np.fromiter(floats, float, len(rows) * math.prod(shape)).reshape(-1, *shape)
    a = np.moveaxis(a, 0, -1)
    return tuple(map(tuple, a)) if len(shape) == 2 else tuple(a)


def _forecast_rows(rollout, steps):
    """Per entry n of steps, the rollout's n-th stacked (position,
    orientation) as one (m, 7) array of rows [p q]."""
    return [np.column_stack((*rollout[n - 1][0], *rollout[n - 1][1])) for n in steps]


class EskfPredictor:
    """Streaming error-state predictor.

    Per tick (update): propagate the nominal state and covariance across
    the tick interval; if the measurement was received, correct, then
    re-estimate the pseudo-derivatives from the received-pose window.
    step is update, then the pose horizon_steps * dt ahead, which it
    publishes. During drops the window does not advance, so the filter
    coasts open loop on frozen derivatives.

    forecasts rolls many of the states `x` took out at once, so a stream
    can update tick by tick and publish every tick's forecasts after its
    loop. A first pose, or a received one, that is not finite or whose
    quaternion is not unit raises ValueError, as does a stale tick; a
    refused tick leaves the filter as it was.
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
        self.x = propagate_nominal(self.x, dt, cfg)
        n, m = self._sizes
        shared = self.att_chain is self.chain
        self.chain = propagate_covariance(self.chain, n, T)
        self.att_chain = self.chain if shared else propagate_covariance(self.att_chain, m, T)
        if received:
            zp, zq = zpq
            x, self.chain, self.att_chain = correct(self.x, self.chain, self.att_chain, zp, zq)
            self.window.append(_window_node(z.t, zp, zq, self.window[-1]))
            pos_d, rot_d = estimate_pseudo_derivatives(self.window, cfg)
            self.x = NominalState(x.t, (x.pos[0], *pos_d), x.q, rot_d)

    def step(self, z, received=True):
        """Advance one tick to measurement z; returns the published pose."""
        self.update(z, received)
        cfg = self.config
        return predict_horizon(self.x, cfg.dt, cfg.horizon_steps, cfg)

    def forecasts(self, states, steps):
        """Per entry n of steps, an (m, 7) array whose row i is the pose
        [p q] n steps of config.dt past states[i], a NominalState this
        predictor's x took: bit for bit what step publishes from it at a
        horizon of n. One predict_horizon call rolls all m states out."""
        cfg = self.config
        x = NominalState(np.array([s.t for s in states], dtype=float),
                         _stack([s.pos for s in states], (4, 3)),
                         _stack([s.q for s in states], (4,)),
                         _stack([s.wvec for s in states], (3, 3)))
        rollout = []
        predict_horizon(x, cfg.dt, max(steps), cfg, rollout)
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


class KfBaseline:
    """Linear Kalman baseline over x = (p, v, q, qdot), tuples of 3, 3, 4, 4 floats.

    Constant-velocity transition for both blocks; the measurement is the
    raw 7-vector [p q] with unit noise. Quaternion components are
    filtered as independent scalars and the quaternion is renormalized
    after every propagation and update, the textbook abuse the
    error-state filters are built to avoid. The covariance is one
    2-square scalar chain (see the module notes), so an update is two
    scalar gains. update, step, forecasts and the ticks rejected are as
    in EskfPredictor.
    """

    def __init__(self, config, first_pose):
        if config.predictor is not KfBaseline:
            raise ValueError("use EskfPredictor for the error-state models")
        p, q = _check_pose(first_pose)
        self.config = config
        self.t = float(first_pose.t)
        self.x = tuple(p), so3._ZERO3, tuple(q), (0.0, 0.0, 0.0, 0.0)
        self.chain = _chain_eye(2)

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
        self.chain = propagate_covariance(self.chain, 2, error_transition_matrix(dt))
        self.t = z.t
        if received:
            (z0, z1, z2), (zw, zx, zy, zz) = zpq
            (p0, p1, p2), (v0, v1, v2), (qw, qx, qy, qz), (dw, dx, dy, dz) = p, v, q, qd
            if zw * qw + zx * qx + zy * qy + zz * qz < 0.0:
                zw, zx, zy, zz = -zw, -zx, -zy, -zz
            self.chain, g0, g1 = _chain_update(self.chain)
            e0, e1, e2 = z0 - p0, z1 - p1, z2 - p2
            ew, ex, ey, ez = zw - qw, zx - qx, zy - qy, zz - qz
            p = p0 + g0 * e0, p1 + g0 * e1, p2 + g0 * e2
            v = v0 + g1 * e0, v1 + g1 * e1, v2 + g1 * e2
            q = _unit((qw + g0 * ew, qx + g0 * ex, qy + g0 * ey, qz + g0 * ez))
            qd = dw + g1 * ew, dx + g1 * ex, dy + g1 * ey, dz + g1 * ez
        self.x = p, v, q, qd

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
