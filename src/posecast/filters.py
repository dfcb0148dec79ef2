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
from the received pose history (derivatives of the interpolating
polynomial at the newest sample, exact on polynomial motion of the
variant's degree). A correction therefore injects only dp and dth.

Process, measurement and initial covariances are identity, and under
them the covariance has an exact block structure; the filters store
only the blocks. Position and attitude never correlate. The position
block is kron(P_s, I3) for a scalar chain P_s of size 1 + ord_pos that
depends on the tick intervals and the drop pattern only; its update is
a scalar one with S = s00 + 1 (_chain_propagate, _chain_update, in
Python floats). The attitude block alone sees the data, through
exp(w dt)^T and J_r^-T, and is the only covariance in numpy, with the
one condition-checked Kalman update, _kalman_update.

The "KF" baseline is a 14-dimensional linear filter over [p v q qdot]
that treats quaternion components as independent scalars and
renormalizes after every step. Its covariance is kron(P_s, I3) (+)
kron(P_s, I4) for the order-1 chain, so S = (s00 + 1) I7 never
degenerates.

Other per-tick work on 3- and 4-vectors runs in Python floats too, where
numpy's call overhead would cost more than the arithmetic; one core,
_chain, serves propagate_nominal and predict_horizon alike.
"""

import math
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import lapack

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

    def __post_init__(self):
        self.model = canonical_model_name(self.model)
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.horizon_steps < 1:
            raise ValueError("horizon_steps must be at least 1")

    @property
    def ord_pos(self):
        return _ORDERS[self.model][0]

    @property
    def ord_rot(self):
        return _ORDERS[self.model][1]

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


_ZERO3 = (0.0, 0.0, 0.0)


def _rollout_arrays(flat):
    """(position, orientation) array pairs from flat [p(3) q(4)] floats per step.

    Every array is a row view of one array built in a single call, which
    is cheaper than an array per vector.
    """
    A = np.fromiter(flat, float, len(flat)).reshape(-1, 7)
    return list(zip(A[:, 0:3], A[:, 3:7]))


def _chain(x, dt, n, ord_rot, rollout=None):
    """n chained integration steps of dt from x, in Python floats.

    Each step applies the variant's rotation increment at the rates of
    the step's start, then the Taylor chains dt^k/k! to the position rows
    [p v a j] and the rate rows [w wd wdd], one scalar per axis. Returns
    the end state as (t, position rows, q, rate rows) of float tuples.
    With a `rollout` list, the (position, orientation) after each step is
    appended to it as arrays (see _rollout_arrays).
    """
    c1, c2, c3 = dt, dt ** 2 / 2, dt ** 3 / 6       # dt^k / k!
    (p0, p1, p2), (v0, v1, v2), (a0, a1, a2), j = x.pos.tolist()
    (w0, w1, w2), (d0, d1, d2), e = x.wvec.tolist()
    j0, j1, j2 = j
    e0, e1, e2 = e
    half_e = (0.5 * e0, 0.5 * e1, 0.5 * e2)
    q = x.q.tolist()
    t = x.t
    poses = []
    for _ in range(n):
        w = (w0, w1, w2)
        if ord_rot >= 3:
            q = so3._zed23(q, w, (d0, d1, d2), half_e, dt)
        else:
            q = so3._zed12(q, w, (d0, d1, d2) if ord_rot == 2 else _ZERO3, dt)
        p0 = p0 + v0 * c1 + a0 * c2 + j0 * c3
        p1 = p1 + v1 * c1 + a1 * c2 + j1 * c3
        p2 = p2 + v2 * c1 + a2 * c2 + j2 * c3
        v0 = v0 + a0 * c1 + j0 * c2
        v1 = v1 + a1 * c1 + j1 * c2
        v2 = v2 + a2 * c1 + j2 * c2
        a0 = a0 + j0 * c1
        a1 = a1 + j1 * c1
        a2 = a2 + j2 * c1
        w0 = w0 + d0 * c1 + e0 * c2
        w1 = w1 + d1 * c1 + e1 * c2
        w2 = w2 + d2 * c1 + e2 * c2
        d0 = d0 + e0 * c1
        d1 = d1 + e1 * c1
        d2 = d2 + e2 * c1
        t += dt
        poses += (p0, p1, p2, *q)
    if rollout is not None:
        rollout.extend(_rollout_arrays(poses))
    return t, ((p0, p1, p2), (v0, v1, v2), (a0, a1, a2), j), q, \
        ((w0, w1, w2), (d0, d1, d2), e)


def propagate_nominal(x, dt, config):
    """Advance the nominal state by dt using the variant's kinematic order."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    t, pos, q, wvec = _chain(x, dt, 1, config.ord_rot)
    return NominalState(t, np.array(pos), np.array(q), np.array(wvec))


def predict_horizon(x, dt, n, config, rollout=None):
    """Pose n chained steps of dt ahead of the nominal state.

    When a list is given as `rollout`, the (position, orientation) after
    each of the n steps is appended to it; the published pose holds the
    last entry's arrays.
    """
    n = int(n)
    if n < 1:
        raise ValueError("horizon must be at least 1 step")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    poses = [] if rollout is None else rollout
    t = _chain(x, dt, n, config.ord_rot, poses)[0]
    return Pose(t, *poses[-1])


def _chain_propagate(s, n, dt):
    """T P_s T^T + I for a scalar covariance chain P_s of size n <= 4.

    T[i, j] = dt^(j-i) / (j-i)! is the chain's integrator. P_s is held as
    the upper triangle of a 4-square matrix, row by row, (s00 s01 .. s33);
    rows past n are zero and stay zero, so one unrolled U = T P_s, U T^T
    serves every size.
    """
    c1, c2, c3 = dt, dt ** 2 / 2, dt ** 3 / 6
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
    """kron(P_s, I_k) for a chain P_s of size n held as in _chain_propagate."""
    a, b, c, d, e, f, g, h, i, j = s
    S = np.array(((a, b, c, d), (b, e, f, g), (c, f, h, i), (d, g, i, j)))[:n, :n]
    return (S[:, None, :, None] * np.eye(k)[:, None]).reshape(n * k, n * k)


@lru_cache(maxsize=256)
def _transition_base(br, dt):
    """kron(T, I3) for the rate chain's integrator T[i, j] = dt^(j-i) / (j-i)!."""
    c = (1.0, dt, dt ** 2 / 2, dt ** 3 / 6)
    F = np.kron(sum(c[k] * np.eye(br, k=k) for k in range(br)), np.eye(3))
    F.setflags(write=False)
    return F


def error_transition_matrix(x, dt, config):
    """Transition of the attitude error block [dth dw (dalpha) (dwdd)] over dt.

    Block upper-triangular: the rate chain integrates into dth with dt,
    dt^2/2, dt^3/6 couplings, and dth's own diagonal block is exp(w dt)^T,
    the transposed rotation of the nominal increment. dt = 0 yields the
    identity. (The position error's transition is _chain_propagate's.)
    """
    if dt < 0.0:
        raise ValueError("dt must be non-negative")
    F = _transition_base(1 + config.ord_rot, dt).copy()
    F[0:3, 0:3] = so3.rotvec_to_matrix([c * dt for c in x.wvec[0].tolist()]).T
    return F


def propagate_covariance(P, F):
    """P <- F P F^T + I, symmetrized."""
    P2 = F @ P @ F.T + np.eye(len(P))
    return 0.5 * (P2 + P2.T)


def _kalman_update(P, y, J=None):
    """Update of the attitude block P by an attitude residual y.

    The measurement reads J dth, with J = J_r^-T at the residual (the
    identity when None), and unit noise. H is never built: HP is the
    first three rows of P with J applied, S = HP H^T + I, K = P H^T S^-1
    and P <- P - K HP, symmetrized.

    Returns (dth, P), dth being the first three entries of K y. Raises
    DegeneracyError when the condition number of S exceeds 1e12.
    """
    HP = P[0:3] if J is None else J @ P[0:3]
    S = HP[:, 0:3] if J is None else HP[:, 0:3] @ J.T
    S = 0.5 * (S + S.T) + np.eye(3)
    # LAPACK called directly, without numpy.linalg's per-call overhead:
    # the ascending eigenvalues of S, then its LU solve, where no pivot
    # is zero once S has passed the check
    eig, _, info = lapack.dsyevd(S, compute_v=0)
    if info != 0 or eig[0] <= 0.0 or eig[-1] / eig[0] > 1e12:
        raise DegeneracyError(
            f"innovation covariance condition {eig[-1] / max(eig[0], 1e-300):.3g} "
            "exceeds 1e12")
    K = lapack.dgesv(S, HP)[2].T          # P H^T S^-1 for symmetric S
    P2 = P - K @ HP
    return (K[0:3] @ y).tolist(), 0.5 * (P2 + P2.T)


def correct(x, chain, P_att, z):
    """Measurement update from a received pose; returns (state, chain, P_att).

    The position residual updates the scalar position chain; the
    orientation residual enters the attitude block through the transposed
    inverse right Jacobian at the residual (identity below 1e-4 rad).
    Only dp and dth are injected, dth on the right through the
    exponential: EskfPredictor.step replaces the derivative rows with
    pseudo-derivatives on every received tick. The covariance update
    covers the whole error state. Raises DegeneracyError as
    _kalman_update does.
    """
    qw, qx, qy, qz = x.q.tolist()
    yr = so3._log(so3._mul((qw, -qx, -qy, -qz), so3._floats(z.q)))
    J = None
    if math.sqrt(yr[0] * yr[0] + yr[1] * yr[1] + yr[2] * yr[2]) >= 1e-4:
        J = so3.right_jacobian_inv(yr).T
    dth, P_att = _kalman_update(P_att, yr, J)
    chain, g, _ = _chain_update(chain)

    x2 = x.copy()
    x2.pos[0] = [xp + g * (zp - xp) for zp, xp in zip(so3._floats(z.p), x.pos[0].tolist())]
    x2.q = np.array(so3._mul((qw, qx, qy, qz), so3._exp(dth)))
    return x2, chain, P_att


def _stencil_derivatives(us, fs):
    """First three derivatives at the newest node of the interpolant.

    Nodes come newest first: us are their offsets from the newest node
    (us[0] = 0), fs their values as 3-vectors of floats, at most four of
    them. The Newton divided differences c_k = f[u_0 .. u_k], built in
    place per axis, weigh the basis polynomials s (s - u_1) ... (s - u_{k-1}),
    whose derivatives at s = 0 give

        f'   = c_1 - u_1 c_2 + u_1 u_2 c_3
        f''  = 2 (c_2 - (u_1 + u_2) c_3)
        f''' = 6 c_3

    with c_k = 0 past the stencil: the one-sided backward difference
    formulas, exact whenever fs samples a polynomial of degree
    len(us) - 1. Returns the rows [f', f'', f''']; those of an order
    above that degree are zero.
    """
    m = len(us)
    steps = [(i, us[i] - us[i - k]) for k in range(1, m) for i in range(m - 1, k - 1, -1)]
    u1 = us[1] if m > 1 else 0.0
    u2 = us[2] if m > 2 else 0.0
    cols = []
    for col in zip(*fs):
        c = [*col, 0.0, 0.0, 0.0]
        for i, h in steps:
            c[i] = (c[i] - c[i - 1]) / h
        c1, c2, c3 = c[1], c[2], c[3]
        cols.append((c1 - u1 * c2 + u1 * u2 * c3, 2.0 * (c2 - (u1 + u2) * c3), 6.0 * c3))
    return list(zip(*cols))


def estimate_pseudo_derivatives(window, config):
    """Derivative estimates from a window of received poses, oldest first.

    Translational derivatives are read off the backward polynomial through
    the last ord_pos+1 window nodes at the newest node: the classical
    one-sided difference formulas, exact on polynomial motion of the
    variant's degree. The angular rate is the pinned backward estimate
    w_k = quat_log(q_{k-1}^-1 * q_k)/dt; its own derivatives come from the
    same treatment of the last ord_rot rates, each placed at its pair's
    newer end. Both run in Python floats (_stencil_derivatives).

    Returns (pos_deriv, rot_deriv), three float rows each, [v, a, j] and
    [w, wd, wdd] (rows beyond the variant's order zero), or None when
    fewer than two poses are available. While ramping up, derivatives
    whose stencil does not fit yet stay zero.
    """
    if len(window) < 2:
        return None
    newest = list(window)[::-1]
    ts = [z.t for z in newest]
    us = [t - ts[0] for t in ts]
    m = min(config.ord_pos + 1, len(newest))
    pos_d = _stencil_derivatives(us[:m], [z.p.tolist() for z in newest[:m]])

    # body-frame rates over consecutive pairs, newest pair first
    ws = []
    for i in range(min(config.ord_rot, len(newest) - 1)):
        qw, qx, qy, qz = newest[i + 1].q.tolist()
        h = ts[i] - ts[i + 1]
        ws.append([c / h for c in so3._log(so3._mul((qw, -qx, -qy, -qz),
                                                     newest[i].q.tolist()))])
    return pos_d, [ws[0], *_stencil_derivatives(us[:len(ws)], ws)[:2]]


def _tick_interval(z, t, received):
    """Time from t to tick z; ValueError for a tick no filter may take.

    A tick must carry a finite timestamp past t, and a received one a
    finite pose whose quaternion is unit to 1e-6, the tolerance of
    so3.quat_log. A lost packet's pose is never read, so it is not checked.
    """
    dt = z.t - t
    if not math.isfinite(dt):
        raise ValueError(f"tick timestamp {z.t!r} is not finite")
    if dt <= 0.0:
        raise ValueError(
            f"tick timestamp {z.t:.9g} does not advance past {t:.9g}")
    if received:
        zq = so3._floats(z.q)
        if not all(map(math.isfinite, [*so3._floats(z.p), *zq])):
            raise ValueError(f"measurement at t = {z.t:.9g} is not finite: "
                             f"p = {z.p}, q = {z.q}")
        n = math.sqrt(sum(c * c for c in zq))
        if abs(n - 1.0) > 1e-6:
            raise ValueError(f"measurement at t = {z.t:.9g}: quaternion norm "
                             f"{n:.9g} is not within 1e-6 of unit")
    return dt


class EskfPredictor:
    """Streaming error-state predictor.

    Per tick: propagate the nominal state and covariance across the tick
    interval; if the measurement was received, correct, then re-estimate
    the pseudo-derivatives from the received-pose window; finally publish
    the pose horizon_steps * dt ahead. During drops the window does not
    advance, so the filter coasts open loop on frozen derivatives.

    `rollout[i]` holds the (position, orientation) i + 1 steps ahead of
    the latest tick, so every shorter horizon is read off the same rollout.
    A stale tick, or a received pose that is not finite or whose
    quaternion is not unit, raises ValueError and leaves the filter as it
    was.
    """

    def __init__(self, config, first_pose):
        if config.model == "KF":
            raise ValueError("use KfBaseline for the linear baseline")
        self.config = config
        self.x = NominalState.at_pose(first_pose)
        self.chain = _chain_eye(1 + config.ord_pos)   # position block: kron(chain, I3)
        self.P_att = np.eye(3 * (1 + config.ord_rot))
        self.window = deque([first_pose.copy()], maxlen=config.min_window)
        self.rollout = []
        self.healthy = True

    @property
    def P(self):
        """The whole error covariance, assembled from its two blocks."""
        m = 3 * (1 + self.config.ord_pos)
        P = np.zeros((m + len(self.P_att),) * 2)
        P[:m, :m], P[m:, m:] = _chain_matrix(self.chain, m // 3, 3), self.P_att
        return P

    def step(self, z, received=True):
        """Advance one tick to measurement z; returns the published pose."""
        if not self.healthy:
            raise DegeneracyError("filter is unhealthy; re-initialize")
        dt = _tick_interval(z, self.x.t, received)
        F = error_transition_matrix(self.x, dt, self.config)
        self.x = propagate_nominal(self.x, dt, self.config)
        self.chain = _chain_propagate(self.chain, 1 + self.config.ord_pos, dt)
        self.P_att = propagate_covariance(self.P_att, F)
        if received:
            try:
                self.x, self.chain, self.P_att = correct(self.x, self.chain,
                                                         self.P_att, z)
            except DegeneracyError:
                self.healthy = False
                raise
            self.window.append(z.copy())
            self.x.pos[1:4], self.x.wvec[:] = estimate_pseudo_derivatives(
                self.window, self.config)
        self.rollout = []
        return predict_horizon(self.x, self.config.dt,
                               self.config.horizon_steps, self.config, self.rollout)


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
    """Linear Kalman baseline over x = [p(3) v(3) q(4) qdot(4)].

    Constant-velocity transition for both blocks; the measurement is the
    raw 7-vector [p q] with unit noise. Quaternion components are
    filtered as independent scalars and the quaternion is renormalized
    after every propagation and update, the textbook abuse the
    error-state filters are built to avoid. The covariance is one
    2-square scalar chain (see the module notes), so an update is two
    scalar gains. `rollout` and the ticks rejected are as in EskfPredictor.
    """

    healthy = True          # S = (s00 + 1) I7 is never degenerate

    def __init__(self, config, first_pose):
        self.config = config
        self.t = float(first_pose.t)
        self.x = np.zeros(14)
        self.x[0:3] = first_pose.p
        self.x[6:10] = first_pose.q
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
        x = self.x.tolist()
        v, qd = x[3:6], x[10:14]
        p, q = _cv_step(x[0:3], v, x[6:10], qd, dt)
        self.chain = _chain_propagate(self.chain, 2, dt)
        self.t = z.t
        if received:
            zq = so3._floats(z.q)
            if sum(a * b for a, b in zip(zq, q)) < 0.0:
                zq = [-c for c in zq]
            self.chain, g0, g1 = _chain_update(self.chain)
            yp = [a - b for a, b in zip(so3._floats(z.p), p)]
            yq = [a - b for a, b in zip(zq, q)]
            p = [a + g0 * e for a, e in zip(p, yp)]
            v = [a + g1 * e for a, e in zip(v, yp)]
            q = _unit([a + g0 * e for a, e in zip(q, yq)])
            qd = [a + g1 * e for a, e in zip(qd, yq)]
        self.x = np.array((*p, *v, *q, *qd))
        h = self.config.dt
        poses = []
        for _ in range(self.config.horizon_steps):
            p, q = _cv_step(p, v, q, qd, h)
            poses += (*p, *q)
        self.rollout = _rollout_arrays(poses)
        return Pose(self.t + self.config.horizon_steps * h, *self.rollout[-1])


def make_predictor(config, first_pose):
    """Instantiate the model named by the config at the stream's first pose."""
    if config.model == "KF":
        return KfBaseline(config, first_pose)
    return EskfPredictor(config, first_pose)
