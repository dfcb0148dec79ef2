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
orientations (experiment._stream_plan, keyed on the class and orders in
_MODELS). Per-variant state that enters either half other than these
orders, such as per-variant noise, must extend that key.

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
"""

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import so3
from .traces import Pose

class DegeneracyError(RuntimeError):
    """A filter whose innovation covariance is numerically unusable.

    No built-in filter raises it: every update's S = s00 + 1 is at least 1.
    It is kept only because the benchmark's tracer (perfbench/tracer.py)
    imports it; the sweep does not catch it."""


def canonical_model_name(name):
    for m in MODEL_NAMES:
        if name.lower() == m.lower():
            return m
    raise ValueError(f"unknown model '{name}', expected one of {MODEL_NAMES}")


@dataclass
class FilterConfig:
    model: str = "p3o3"
    dt: float = 0.01
    horizon_steps: int = 10

    def __post_init__(self):
        self.model = canonical_model_name(self.model)
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and positive, got {self.dt!r}")
        if self.horizon_steps < 1:
            raise ValueError("horizon_steps must be at least 1")

    @property
    def ord_pos(self):
        return _MODELS[self.model][1]

    @property
    def ord_rot(self):
        return _MODELS[self.model][2]

    @property
    def min_window(self):
        return max(self.ord_pos, self.ord_rot) + 1


class NominalState(NamedTuple):
    """Nominal kinematics: pos rows are [p; v; a; j], wvec rows [w; wd; wdd].

    Position rows are meters and derivatives thereof; angular rates are
    body-frame rad/s and derivatives. Rows above the variant's order stay
    identically zero. Every row, and q, is a tuple of Python floats; the
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


def _chain(x, dt, n, ord_rot, rollout):
    """n chained integration steps of dt from x, in Python floats.

    The orientation and the rate rows [w wd wdd] follow so3._rotation_chain
    at the variant's rotation order, and the position rows [p v a j] the
    Taylor chain dt^k/k!, one scalar per axis. The (position, orientation)
    after each step is appended to the `rollout` list as a pair of float
    tuples. Returns the end state.
    """
    c1, c2, c3 = dt, dt ** 2 / 2, dt ** 3 / 6       # dt^k / k!
    (p0, p1, p2), (v0, v1, v2), (a0, a1, a2), j = x.pos
    j0, j1, j2 = j
    qs, wvec = so3._rotation_chain(x.q, *x.wvec, dt, n, ord_rot)
    t = x.t
    append = rollout.append
    for q in qs:
        p0 = p0 + v0 * c1 + a0 * c2 + j0 * c3
        p1 = p1 + v1 * c1 + a1 * c2 + j1 * c3
        p2 = p2 + v2 * c1 + a2 * c2 + j2 * c3
        v0 = v0 + a0 * c1 + j0 * c2
        v1 = v1 + a1 * c1 + j1 * c2
        v2 = v2 + a2 * c1 + j2 * c2
        a0 = a0 + j0 * c1
        a1 = a1 + j1 * c1
        a2 = a2 + j2 * c1
        t += dt
        append(((p0, p1, p2), q))
    return NominalState(t, ((p0, p1, p2), (v0, v1, v2), (a0, a1, a2), j), qs[-1], wvec)


def propagate_nominal(x, dt, config):
    """Advance the nominal state by dt using the variant's kinematic order.

    Returns a new state of float tuples; x is left as it was."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    return _chain(x, dt, 1, config.ord_rot, [])


def predict_horizon(x, dt, n, config, rollout=None):
    """Pose n chained steps of dt ahead of the nominal state.

    When a list is given as `rollout`, the (position, orientation) float
    tuples after each of the n steps are appended to it; the published
    pose holds arrays of the last entry's floats.
    """
    n = int(n)
    if n < 1:
        raise ValueError("horizon must be at least 1 step")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    poses = [] if rollout is None else rollout
    t = _chain(x, dt, n, config.ord_rot, poses).t
    p, q = poses[-1]
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


def correct(x, chain, att_chain, z):
    """Measurement update from a received pose; returns (state, chain, att_chain).

    The position residual updates the position chain and the orientation
    residual y, taken in the tangent space on the right, the attitude
    chain. Only dp and dth are injected, dth = k0 y on the right through
    the exponential: EskfPredictor.step replaces the derivative rows with
    pseudo-derivatives on every received tick. Both chain updates cover
    their whole block; when att_chain is chain (a variant with ord_pos =
    ord_rot), one update serves both.
    """
    qw, qx, qy, qz = q = x.q
    y0, y1, y2 = so3._log(so3._mul((qw, -qx, -qy, -qz), so3._floats(z.q)))
    shared = att_chain is chain
    chain, g, _ = _chain_update(chain)
    if shared:
        att_chain, k = chain, g
    else:
        att_chain, k, _ = _chain_update(att_chain)

    (p0, p1, p2), *derivs = x.pos
    z0, z1, z2 = so3._floats(z.p)
    pos = ((p0 + g * (z0 - p0), p1 + g * (z1 - p1), p2 + g * (z2 - p2)), *derivs)
    dth = (k * y0, k * y1, k * y2)
    return NominalState(x.t, pos, so3._mul(q, so3._exp(dth)), x.wvec), chain, att_chain


def _stencil_derivatives(us, fs):
    """First three derivatives at the newest node of the interpolant.

    Nodes come newest first: us are their offsets from the newest node
    (us[0] = 0), fs their values as 3-vectors of floats, at most four of
    them. The Newton divided differences c_k = f[u_0 .. u_k], built in
    place on all three axes at once, weigh the basis polynomials
    s (s - u_1) ... (s - u_{k-1}), whose derivatives at s = 0 give

        f'   = c_1 - u_1 c_2 + u_1 u_2 c_3
        f''  = 2 (c_2 - (u_1 + u_2) c_3)
        f''' = 6 c_3

    with c_k = 0 past the stencil: the one-sided backward difference
    formulas, exact whenever fs samples a polynomial of degree
    len(us) - 1. Returns the rows [f', f'', f''']; those of an order
    above that degree are zero.
    """
    m = len(us)
    c = [*fs, so3._ZERO3, so3._ZERO3, so3._ZERO3]
    for k in range(1, m):
        for i in range(m - 1, k - 1, -1):
            h = us[i] - us[i - k]
            (a0, a1, a2), (b0, b1, b2) = c[i], c[i - 1]
            c[i] = ((a0 - b0) / h, (a1 - b1) / h, (a2 - b2) / h)
    u1 = us[1] if m > 1 else 0.0
    u2 = us[2] if m > 2 else 0.0
    s, r = u1 + u2, u1 * u2
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = c[1], c[2], c[3]
    return ((x1 - u1 * x2 + r * x3, y1 - u1 * y2 + r * y3, z1 - u1 * z2 + r * z3),
            (2.0 * (x2 - s * x3), 2.0 * (y2 - s * y3), 2.0 * (z2 - s * z3)),
            (6.0 * x3, 6.0 * y3, 6.0 * z3))


def _window_node(z, prev):
    """Received pose z as a derivative-window node (t, p, q, w) of floats.

    w is the body rate over the pair from node `prev`,
    quat_log(q_prev^-1 * q) / (t - t_prev), or None without a previous
    node: the one log map a received tick takes for its derivatives.
    """
    p, q = so3._floats(z.p), so3._floats(z.q)
    if prev is None:
        return z.t, p, q, None
    t0, _, (qw, qx, qy, qz), _ = prev
    h = z.t - t0
    w0, w1, w2 = so3._log(so3._mul((qw, -qx, -qy, -qz), q))
    return z.t, p, q, (w0 / h, w1 / h, w2 / h)


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
    if len(window) < 2:
        return None
    newest = list(window)[::-1]
    t0 = newest[0][0]
    us = [node[0] - t0 for node in newest]
    m = min(config.ord_pos + 1, len(newest))
    pos_d = _stencil_derivatives(us[:m], [node[1] for node in newest[:m]])
    # body-frame rates over the pairs inside the window, newest pair first
    ws = [node[3] for node in newest[:min(config.ord_rot, len(newest) - 1)]]
    return pos_d, (ws[0], *_stencil_derivatives(us[:len(ws)], ws)[:2])


def _check_pose(z):
    """ValueError unless pose z is finite with a quaternion unit to 1e-6,
    the tolerance of so3.quat_log."""
    zq = so3._floats(z.q)
    if not all(map(math.isfinite, [z.t, *so3._floats(z.p), *zq])):
        raise ValueError(f"measurement at t = {z.t:.9g} is not finite: "
                         f"p = {z.p}, q = {z.q}")
    n = math.sqrt(sum(c * c for c in zq))
    if abs(n - 1.0) > 1e-6:
        raise ValueError(f"measurement at t = {z.t:.9g}: quaternion norm "
                         f"{n:.9g} is not within 1e-6 of unit")


def _tick_interval(z, t, received):
    """Time from t to tick z; ValueError for a tick no filter may take.

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
    if received:
        _check_pose(z)
    return dt


class EskfPredictor:
    """Streaming error-state predictor.

    Per tick: propagate the nominal state and covariance across the tick
    interval; if the measurement was received, correct, then re-estimate
    the pseudo-derivatives from the received-pose window; finally publish
    the pose horizon_steps * dt ahead. During drops the window does not
    advance, so the filter coasts open loop on frozen derivatives.

    `rollout[i]` holds the (position, orientation) i + 1 steps ahead of
    the latest tick as float tuples, so every shorter horizon is read off
    the same rollout. A first pose, or a received one, that is not finite
    or whose quaternion is not unit raises ValueError, as does a stale
    tick; a refused tick leaves the filter as it was.
    """

    def __init__(self, config, first_pose):
        if _MODELS[config.model][0] is not EskfPredictor:
            raise ValueError("use KfBaseline for the linear baseline")
        _check_pose(first_pose)
        self.config = config
        self.x = NominalState.at_pose(first_pose)
        self.chain = _chain_eye(1 + config.ord_pos)       # position: kron(chain, I3)
        # attitude: kron(att_chain, I3), the position chain itself at equal orders
        self.att_chain = (self.chain if config.ord_pos == config.ord_rot
                          else _chain_eye(1 + config.ord_rot))
        self.window = deque([_window_node(first_pose, None)], maxlen=config.min_window)
        self.rollout = []

    @property
    def P(self):
        """The whole error covariance, assembled from its two chains."""
        n, m = 1 + self.config.ord_pos, 1 + self.config.ord_rot
        P = np.zeros((3 * (n + m),) * 2)
        P[:3 * n, :3 * n] = _chain_matrix(self.chain, n, 3)
        P[3 * n:, 3 * n:] = _chain_matrix(self.att_chain, m, 3)
        return P

    def step(self, z, received=True):
        """Advance one tick to measurement z; returns the published pose."""
        cfg = self.config
        dt = _tick_interval(z, self.x.t, received)
        T = error_transition_matrix(dt)
        self.x = propagate_nominal(self.x, dt, cfg)
        shared = self.att_chain is self.chain
        self.chain = propagate_covariance(self.chain, 1 + cfg.ord_pos, T)
        self.att_chain = (self.chain if shared
                          else propagate_covariance(self.att_chain, 1 + cfg.ord_rot, T))
        if received:
            x, self.chain, self.att_chain = correct(self.x, self.chain, self.att_chain, z)
            self.window.append(_window_node(z, self.window[-1]))
            pos_d, rot_d = estimate_pseudo_derivatives(self.window, cfg)
            self.x = NominalState(x.t, (x.pos[0], *pos_d), x.q, rot_d)
        self.rollout = []
        return predict_horizon(self.x, cfg.dt, cfg.horizon_steps, cfg, self.rollout)


def _unit(q):
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return (w / n, x / n, y / n, z / n)


def _cv_step(p, v, q, qd, h):
    """The baseline's constant-velocity step over h, quaternion renormalized."""
    p0, p1, p2 = p
    v0, v1, v2 = v
    w, x, y, z = q
    dw, dx, dy, dz = qd
    return ((p0 + v0 * h, p1 + v1 * h, p2 + v2 * h),
            _unit((w + dw * h, x + dx * h, y + dy * h, z + dz * h)))


class KfBaseline:
    """Linear Kalman baseline over x = (p, v, q, qdot), tuples of 3, 3, 4, 4 floats.

    Constant-velocity transition for both blocks; the measurement is the
    raw 7-vector [p q] with unit noise. Quaternion components are
    filtered as independent scalars and the quaternion is renormalized
    after every propagation and update, the textbook abuse the
    error-state filters are built to avoid. The covariance is one
    2-square scalar chain (see the module notes), so an update is two
    scalar gains. `rollout` and the ticks rejected are as in EskfPredictor.
    """

    def __init__(self, config, first_pose):
        _check_pose(first_pose)
        self.config = config
        self.t = float(first_pose.t)
        self.x = (tuple(so3._floats(first_pose.p)), so3._ZERO3,
                  tuple(so3._floats(first_pose.q)), (0.0, 0.0, 0.0, 0.0))
        self.chain = _chain_eye(2)
        self.rollout = []

    @property
    def P(self):
        """The 14-square covariance, assembled from the chain."""
        P = np.zeros((14, 14))
        P[:6, :6], P[6:, 6:] = _chain_matrix(self.chain, 2, 3), _chain_matrix(self.chain, 2, 4)
        return P

    def step(self, z, received=True):
        dt = _tick_interval(z, self.t, received)
        p, v, q, qd = self.x
        p, q = _cv_step(p, v, q, qd, dt)
        self.chain = propagate_covariance(self.chain, 2, error_transition_matrix(dt))
        self.t = z.t
        if received:
            zq = so3._floats(z.q)
            if sum(a * b for a, b in zip(zq, q)) < 0.0:
                zq = [-c for c in zq]
            self.chain, g0, g1 = _chain_update(self.chain)
            yp = [a - b for a, b in zip(so3._floats(z.p), p)]
            yq = [a - b for a, b in zip(zq, q)]
            p = tuple([a + g0 * e for a, e in zip(p, yp)])
            v = tuple([a + g1 * e for a, e in zip(v, yp)])
            q = _unit([a + g0 * e for a, e in zip(q, yq)])
            qd = tuple([a + g1 * e for a, e in zip(qd, yq)])
        self.x = p, v, q, qd
        h = self.config.dt
        self.rollout = rollout = []
        for _ in range(self.config.horizon_steps):
            p, q = _cv_step(p, v, q, qd, h)
            rollout.append((p, q))
        return Pose(self.t + self.config.horizon_steps * h, np.array(p), np.array(q))


# name -> (predictor class, ord_pos, ord_rot)
_MODELS = {"KF": (KfBaseline, 1, 1), "ESKF": (EskfPredictor, 1, 1),
           "p2o2": (EskfPredictor, 2, 2), "p2o3": (EskfPredictor, 2, 3),
           "p3o3": (EskfPredictor, 3, 3)}

MODEL_NAMES = tuple(_MODELS)


def make_predictor(config, first_pose):
    """Instantiate the model named by the config at the stream's first pose."""
    return _MODELS[config.model][0](config, first_pose)
