"""Pose prediction filters: high-order error-state variants and a linear baseline.

The error-state filters keep a nominal kinematic state integrated with
rotation-increment steps, and a minimal-coordinate error state

    dx = [dp dv (da) (dj) | dth dw (dalpha) (dwdd)]

whose orientation component dth lives in the tangent space, injected
multiplicatively on the right: q <- q * exp(dth). The error dimension is
D = 3 (1 + ord_pos) + 3 (1 + ord_rot); parenthesized blocks exist only
for the higher-order variants.

Variants by (translational, rotational) kinematic order:

    ESKF  (1, 1)   constant velocity / constant rate
    p2o2  (2, 2)   adds acceleration and angular acceleration
    p2o3  (2, 3)   third-order orientation only
    p3o3  (3, 3)   adds jerk and angular jerk

Derivatives are never measured; they are re-estimated each tick from the
received pose history (derivatives of the interpolating polynomial at the
newest sample, exact on polynomial motion of the variant's degree). Process, measurement, and initial
covariances are identity, the standardization used for all benchmark runs.

The "KF" baseline is a 14-dimensional linear filter over
[p v q qdot] that treats quaternion components as independent scalars and
renormalizes after every step.
"""

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial

import numpy as np

from . import so3
from .traces import Pose

MODEL_NAMES = ("KF", "ESKF", "p2o2", "p2o3", "p3o3")

_ORDERS = {"KF": (1, 1), "ESKF": (1, 1),
           "p2o2": (2, 2), "p2o3": (2, 3), "p3o3": (3, 3)}


class DegeneracyError(RuntimeError):
    """Raised when the innovation covariance is numerically unusable."""


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
    diff_window: int = 0        # 0 = minimal stencil per derivative
    exact_reset: bool = False

    def __post_init__(self):
        self.model = canonical_model_name(self.model)
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.horizon_steps < 1:
            raise ValueError("horizon_steps must be at least 1")
        if self.model != "KF":
            if self.diff_window and self.diff_window < self.min_window:
                raise ValueError(
                    f"diff_window must be 0 or >= {self.min_window} for {self.model}")

    @property
    def ord_pos(self):
        return _ORDERS[self.model][0]

    @property
    def ord_rot(self):
        return _ORDERS[self.model][1]

    @property
    def error_dim(self):
        return 3 * (1 + self.ord_pos) + 3 * (1 + self.ord_rot)

    @property
    def min_window(self):
        return max(self.ord_pos, self.ord_rot) + 1


@dataclass
class NominalState:
    """Nominal kinematics: pos rows are [p; v; a; j], wvec rows [w; wd; wdd].

    Position rows are meters and derivatives thereof; angular rates are
    body-frame rad/s and derivatives. Rows above the variant's order stay
    identically zero.
    """
    t: float
    pos: np.ndarray = field(default_factory=lambda: np.zeros((4, 3)))
    q: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))
    wvec: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))

    @classmethod
    def at_pose(cls, pose):
        x = cls(t=float(pose.t))
        x.pos[0] = pose.p
        x.q = np.asarray(pose.q, dtype=float).copy()
        return x

    def copy(self):
        return NominalState(self.t, self.pos.copy(), self.q.copy(), self.wvec.copy())

    # row views, named
    @property
    def p(self):
        return self.pos[0]

    @property
    def v(self):
        return self.pos[1]

    @property
    def a(self):
        return self.pos[2]

    @property
    def j(self):
        return self.pos[3]

    @property
    def w(self):
        return self.wvec[0]

    @property
    def wd(self):
        return self.wvec[1]

    @property
    def wdd(self):
        return self.wvec[2]


@lru_cache(maxsize=256)
def _taylor_chain(dim, dt):
    """Upper-triangular integrator matrix: T[i, j] = dt^(j-i) / (j-i)!."""
    T = np.eye(dim)
    for i in range(dim):
        for j in range(i + 1, dim):
            T[i, j] = dt ** (j - i) / factorial(j - i)
    T.setflags(write=False)
    return T


def _advance(x, dt, ord_rot):
    """One integration step of the nominal state, in place."""
    w0, wd0, wdd0 = x.wvec
    if ord_rot >= 3:
        x.q = so3.zed23_step(x.q, w0, wd0, 0.5 * wdd0, dt)
    elif ord_rot == 2:
        x.q = so3.zed12_step(x.q, w0, wd0, dt)
    else:
        x.q = so3.zed12_step(x.q, w0, np.zeros(3), dt)
    x.pos = _taylor_chain(4, dt) @ x.pos
    x.wvec = _taylor_chain(3, dt) @ x.wvec
    x.t += dt


def propagate_nominal(x, dt, config):
    """Advance the nominal state by dt using the variant's kinematic order."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    y = x.copy()
    _advance(y, dt, config.ord_rot)
    return y


def predict_horizon(x, dt, n, config, rollout=None):
    """Pose n chained steps of dt ahead of the nominal state.

    When a list is given as `rollout`, the (position, orientation) after
    each of the n steps is appended to it. Each step replaces y.pos and
    y.q with new arrays, so no appended entry is overwritten.
    """
    n = int(n)
    if n < 1:
        raise ValueError("horizon must be at least 1 step")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    poses = [] if rollout is None else rollout
    y = x.copy()
    for _ in range(n):
        _advance(y, dt, config.ord_rot)
        poses.append((y.pos[0], y.q))
    return Pose(y.t, *poses[-1])


@lru_cache(maxsize=256)
def _transition_base(bp, br, dt):
    """Constant part of F: Kronecker lift of the scalar Taylor chains."""
    D = 3 * (bp + br)
    F = np.eye(D)
    F[0:3 * bp, 0:3 * bp] = np.kron(_taylor_chain(bp, dt), np.eye(3))
    F[3 * bp:D, 3 * bp:D] = np.kron(_taylor_chain(br, dt), np.eye(3))
    F.setflags(write=False)
    return F


def error_transition_matrix(x, dt, config):
    """Error-state transition for one tick of dt.

    Block upper-triangular: each error derivative chain integrates with
    dt, dt^2/2, dt^3/6 couplings; the attitude-error diagonal block is the
    transposed rotation of the nominal increment, exp(w dt)^T. dt = 0
    yields the identity.
    """
    if dt < 0.0:
        raise ValueError("dt must be non-negative")
    bp = 1 + config.ord_pos
    br = 1 + config.ord_rot
    F = _transition_base(bp, br, dt).copy()
    th = 3 * bp
    F[th:th + 3, th:th + 3] = so3.rotvec_to_matrix(x.w * dt).T
    return F


def propagate_covariance(P, F, Q):
    """P <- F P F^T + Q, symmetrized."""
    P = np.asarray(P, dtype=float)
    if P.shape != F.shape or P.shape != Q.shape:
        raise ValueError(f"dimension mismatch: P{P.shape} F{F.shape} Q{Q.shape}")
    P2 = F @ P @ F.T + Q
    return 0.5 * (P2 + P2.T)


def _innovation(x, z):
    """Measurement residual [z.p - p; log(q^-1 * z.q)] in R^6."""
    y = np.empty(6)
    y[0:3] = z.p - x.pos[0]
    y[3:6] = so3.quat_log(so3.quat_multiply(so3.quat_conjugate(x.q), z.q))
    return y


def correct(x, P, z, R, config):
    """Measurement update from a received pose; returns (state, covariance).

    The orientation residual enters through the transposed inverse right
    Jacobian at the residual (identity below 1e-4 rad). The error estimate
    is injected additively, except dth which right-multiplies through the
    exponential. With exact_reset the attitude covariance is additionally
    transported by G = I - skew(dth)/2 after injection.

    Raises DegeneracyError when the innovation covariance's condition
    number exceeds 1e12.
    """
    D = config.error_dim
    bp = 1 + config.ord_pos
    th = 3 * bp
    y = _innovation(x, z)
    H = np.zeros((6, D))
    H[0:3, 0:3] = np.eye(3)
    yr = y[3:6]
    if np.linalg.norm(yr) < 1e-4:
        H[3:6, th:th + 3] = np.eye(3)
    else:
        H[3:6, th:th + 3] = so3.right_jacobian_inv(yr).T
    S = H @ P @ H.T + R
    S = 0.5 * (S + S.T)
    eig = np.linalg.eigvalsh(S)
    if eig[0] <= 0.0 or eig[-1] / eig[0] > 1e12:
        raise DegeneracyError(
            f"innovation covariance condition {eig[-1] / max(eig[0], 1e-300):.3g} "
            "exceeds 1e12")
    K = np.linalg.solve(S, H @ P).T          # P H^T S^-1 for symmetric S
    dx = K @ y

    x2 = x.copy()
    x2.pos[0:bp] += dx[0:th].reshape(bp, 3)
    dth = dx[th:th + 3]
    x2.q = so3.quat_multiply(x2.q, so3.quat_exp(dth))
    nrot = config.ord_rot
    if nrot >= 2:
        x2.wvec[0:nrot] += dx[th + 3:].reshape(nrot, 3)
    else:
        x2.wvec[0] += dx[th + 3:th + 6]

    P2 = (np.eye(D) - K @ H) @ P
    P2 = 0.5 * (P2 + P2.T)
    if config.exact_reset:
        G = np.eye(D)
        G[th:th + 3, th:th + 3] = np.eye(3) - 0.5 * so3.skew(dth)
        P2 = G @ P2 @ G.T
        P2 = 0.5 * (P2 + P2.T)
    return x2, P2


def _node_derivatives(ts, fs, t0, order, lstsq=False):
    """Derivatives at t0 of the polynomial through (or fitted to) the nodes.

    Rows [f, f', f'', ...] up to `order`. With len(ts) = degree + 1 this is
    the one-sided backward-difference formula of that accuracy order:
    exact whenever fs samples a polynomial of the same degree. With more
    nodes and lstsq=True it smooths by least squares instead.
    """
    x = np.asarray(ts, dtype=float) - t0
    fs = np.asarray(fs, dtype=float)
    ncoef = min(order + 1, len(x))
    A = np.vander(x, ncoef, increasing=True)
    if lstsq:
        coef, *_ = np.linalg.lstsq(A, fs, rcond=None)
    else:
        coef = np.linalg.solve(A, fs)
    out = np.zeros((order + 1,) + fs.shape[1:])
    for k in range(ncoef):
        out[k] = factorial(k) * coef[k]
    return out


def estimate_pseudo_derivatives(window, config):
    """Derivative estimates from a window of received poses.

    Translational derivatives are read off the backward polynomial through
    the last ord_pos+1 window nodes at the newest node: the classical
    one-sided difference formulas, exact on polynomial motion of the
    variant's degree. The angular rate is the pinned backward estimate
    w_k = quat_log(q_{k-1}^-1 * q_k)/dt; its own derivatives come from the
    same treatment of the rate sequence. With diff_window set above the
    minimal stencil, a least-squares fit of the variant's degree smooths
    the whole window instead.

    Returns (pos_deriv, rot_deriv) with rows [v; a; j] and [w; wd; wdd]
    (rows beyond the variant's order zeroed), or None when fewer than two
    poses are available. While ramping up, derivatives whose stencil does
    not fit yet stay zero.
    """
    poses = list(window)
    if len(poses) < 2:
        return None
    ts = np.array([p.t for p in poses])
    ps = np.array([p.p for p in poses])
    op, orot = config.ord_pos, config.ord_rot

    # body-frame rates over consecutive pairs, attributed to the pair's end
    wts = ts[1:]
    ws = np.empty((len(poses) - 1, 3))
    for i in range(1, len(poses)):
        rel = so3.quat_multiply(so3.quat_conjugate(poses[i - 1].q), poses[i].q)
        ws[i - 1] = so3.quat_log(rel) / (ts[i] - ts[i - 1])

    pos_d = np.zeros((3, 3))
    rot_d = np.zeros((3, 3))
    smoothing = bool(config.diff_window) and len(poses) > config.min_window
    np_pos = len(ts) if smoothing else min(op + 1, len(ts))
    d = _node_derivatives(ts[-np_pos:], ps[-np_pos:], ts[-1], op, lstsq=smoothing)
    pos_d[0:op] = d[1:op + 1]

    rot_d[0] = ws[-1]
    if orot >= 2 and len(ws) >= 2:
        np_rot = len(ws) if smoothing else min(orot, len(ws))
        dw = _node_derivatives(wts[-np_rot:], ws[-np_rot:], wts[-1],
                               orot - 1, lstsq=smoothing)
        if smoothing:
            rot_d[0] = dw[0]
        rot_d[1:orot] = dw[1:orot]
    return pos_d, rot_d


def init_filter(config, first_pose):
    """Initial nominal state and identity covariances for a pose stream."""
    x = NominalState.at_pose(first_pose)
    D = config.error_dim
    return x, np.eye(D), np.eye(D), np.eye(6)


class EskfPredictor:
    """Streaming error-state predictor.

    Per tick: propagate the nominal state and covariance across the tick
    interval; if the measurement was received, correct, then re-estimate
    the pseudo-derivatives from the received-pose window; finally publish
    the pose horizon_steps * dt ahead. During drops the window does not
    advance, so the filter coasts open loop on frozen derivatives.

    `rollout[i]` holds the (position, orientation) i + 1 steps ahead of
    the latest tick, so every shorter horizon is read off the same rollout.
    """

    def __init__(self, config, first_pose):
        if config.model == "KF":
            raise ValueError("use KfBaseline for the linear baseline")
        self.config = config
        self.x, self.P, self.Q, self.R = init_filter(config, first_pose)
        maxlen = config.diff_window or config.min_window
        self.window = deque([first_pose.copy()], maxlen=maxlen)
        self.rollout = []
        self.healthy = True

    def step(self, z, received=True):
        """Advance one tick to measurement z; returns the published pose."""
        if not self.healthy:
            raise DegeneracyError("filter is unhealthy; re-initialize")
        dt = z.t - self.x.t
        if dt <= 0.0:
            raise ValueError(
                f"tick timestamp {z.t:.9g} does not advance past {self.x.t:.9g}")
        F = error_transition_matrix(self.x, dt, self.config)
        self.x = propagate_nominal(self.x, dt, self.config)
        self.P = propagate_covariance(self.P, F, self.Q)
        if received:
            try:
                self.x, self.P = correct(self.x, self.P, z, self.R, self.config)
            except DegeneracyError:
                self.healthy = False
                raise
            self.window.append(z.copy())
            d = estimate_pseudo_derivatives(self.window, self.config)
            if d is not None:
                self.x.pos[1:4] = d[0]
                self.x.wvec[:] = d[1]
        self.rollout = []
        return predict_horizon(self.x, self.config.dt,
                               self.config.horizon_steps, self.config, self.rollout)


class KfBaseline:
    """Linear Kalman baseline over x = [p(3) v(3) q(4) qdot(4)].

    Constant-velocity transition for both blocks; the measurement is the
    raw 7-vector [p q]. Quaternion components are filtered as independent
    scalars and the quaternion is renormalized after every propagation and
    update, the textbook abuse the error-state filters are built to avoid.
    `rollout` holds (position, orientation) after every horizon step, as in
    EskfPredictor.
    """

    H = np.zeros((7, 14))
    H[0:3, 0:3] = np.eye(3)
    H[3:7, 6:10] = np.eye(4)

    def __init__(self, config, first_pose):
        self.config = config
        self.t = float(first_pose.t)
        self.x = np.zeros(14)
        self.x[0:3] = first_pose.p
        self.x[6:10] = first_pose.q
        self.P = np.eye(14)
        self.Q = np.eye(14)
        self.R = np.eye(7)
        self.rollout = []
        self.healthy = True

    @staticmethod
    def _transition(dt):
        F = np.eye(14)
        F[0:3, 3:6] = dt * np.eye(3)
        F[6:10, 10:14] = dt * np.eye(4)
        return F

    def step(self, z, received=True):
        if not self.healthy:
            raise DegeneracyError("filter is unhealthy; re-initialize")
        dt = z.t - self.t
        if dt <= 0.0:
            raise ValueError(
                f"tick timestamp {z.t:.9g} does not advance past {self.t:.9g}")
        F = self._transition(dt)
        self.x = F @ self.x
        self.x[6:10] /= np.linalg.norm(self.x[6:10])
        self.P = propagate_covariance(self.P, F, self.Q)
        self.t = z.t
        if received:
            zq = np.asarray(z.q, dtype=float)
            if np.dot(zq, self.x[6:10]) < 0.0:
                zq = -zq
            y = np.concatenate([z.p, zq]) - self.H @ self.x
            S = self.H @ self.P @ self.H.T + self.R
            S = 0.5 * (S + S.T)
            eig = np.linalg.eigvalsh(S)
            if eig[0] <= 0.0 or eig[-1] / eig[0] > 1e12:
                self.healthy = False
                raise DegeneracyError(
                    f"innovation covariance condition {eig[-1]:.3g}/{eig[0]:.3g} "
                    "exceeds 1e12")
            K = np.linalg.solve(S, self.H @ self.P).T
            self.x = self.x + K @ y
            self.x[6:10] /= np.linalg.norm(self.x[6:10])
            P2 = (np.eye(14) - K @ self.H) @ self.P
            self.P = 0.5 * (P2 + P2.T)
        p = self.x[0:3].copy()
        v = self.x[3:6]
        q = self.x[6:10].copy()
        qd = self.x[10:14]
        h = self.config.dt
        self.rollout = []
        for _ in range(self.config.horizon_steps):
            p = p + v * h
            q = q + qd * h
            q = q / np.linalg.norm(q)
            self.rollout.append((p, q))
        return Pose(self.t + self.config.horizon_steps * h, p, q)


def make_predictor(config, first_pose):
    """Instantiate the model named by the config at the stream's first pose."""
    if config.model == "KF":
        return KfBaseline(config, first_pose)
    return EskfPredictor(config, first_pose)
