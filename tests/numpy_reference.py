"""Numpy reference of one filter tick, kept as a test oracle.

This is the filters' arithmetic written the direct way, with numpy on
every vector: the nominal state advances by Taylor-chain matrix
products (T @ pos), the measurement matrix H is built explicitly, the
covariance update is (I - K H) P, and the rotation algebra uses numpy
trigonometry and matrix products. The library computes the same algebra
in Python floats and from rows of P, so the two routes agree to rounding
only; tests compare them with tolerances. The error-state reference
comes in two models: the filters' own, whose attitude block propagates
and is measured like the position block, and the rotation-coupled one
with exp(w dt)^T in the transition and J_r^-T in the measurement, which
tests hold at a measured distance from the filters. The rotation helpers here
(normalize, canonical sign, conjugate, skew, quaternion to matrix) are
also the ones other tests use: the package itself has no need of them.
window_nodes is an exact helper: it builds the filters'
derivative-window nodes with the package's own rotation kernels, so a
window grown tick by tick can be compared with it bit for bit. So are
the generic float kernels the filters' order-specialised ones replaced:
the full four-row Taylor chain (taylor_rollout), the in-place divided
difference table (divided_difference_derivatives) and the baseline's
single constant-velocity step (cv_step); each specialised kernel must
give their floats bit for bit. The scalar float error metrics
(geodesic_distance, position_error, orientation_error) are exact in the
same way: the stacked numpy metrics must give their floats bit for bit.
RefStreamFilter is the pose prefilter's former array code: its biquads
match the float prefilter bit for bit, while its np.linalg.norm (a BLAS
dot product) and np.dot sign check may round differently.
"""

from collections import deque
from math import factorial

import math

import numpy as np

from posecast import so3
from posecast.traces import Pose

ORDERS = {"KF": (1, 1), "ESKF": (1, 1),
          "p2o2": (2, 2), "p2o3": (2, 3), "p3o3": (3, 3)}


# ------------------------------------------------------------ rotations

def skew(v):
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def quat_multiply(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    out = np.empty(4)
    out[0] = p[0] * q[0] - p[1:] @ q[1:]
    out[1:] = p[0] * q[1:] + q[0] * p[1:] + np.cross(p[1:], q[1:])
    return out


def quat_conjugate(q):
    return np.asarray(q, dtype=float) * np.array([1.0, -1.0, -1.0, -1.0])


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q)


def quat_to_matrix(q):
    w, x, y, z = q
    return np.array([
        [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
        [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
        [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
    ])


def quat_exp(v):
    v = np.asarray(v, dtype=float)
    angle = np.linalg.norm(v)
    k = 0.5 - angle * angle / 48.0 if angle < 1e-8 else np.sin(0.5 * angle) / angle
    q = np.concatenate([[np.cos(0.5 * angle)], k * v])
    return -q if q[0] < 0.0 else q


def quat_log(q):
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    s = np.linalg.norm(q[1:])
    if s < 1e-9:
        return (2.0 / q[0]) * q[1:]
    return (2.0 * np.arctan2(s, q[0]) / s) * q[1:]


def canonical(q):
    return -q if q[0] < 0.0 else q


def zed12_step(q, w0, w1, h):
    phi = np.asarray(w0) * h + np.asarray(w1) * (0.5 * h * h)
    return canonical(quat_multiply(q, quat_exp(phi)))


def zed23_step(q, w0, w1, w2, h):
    w0, w1, w2 = (np.asarray(w, dtype=float) for w in (w0, w1, w2))
    phi = (w0 * h + w1 * (0.5 * h * h) + w2 * (h ** 3 / 3.0)
           + np.cross(w0, w1) * (h ** 3 / 12.0))
    return canonical(quat_multiply(q, quat_exp(phi)))


def rotvec_to_matrix(v):
    angle = np.linalg.norm(v)
    S = skew(v)
    if angle < 1e-8:
        return np.eye(3) + S + 0.5 * (S @ S)
    return (np.eye(3) + (np.sin(angle) / angle) * S
            + ((1.0 - np.cos(angle)) / (angle * angle)) * (S @ S))


def right_jacobian_inv(theta):
    angle = np.linalg.norm(theta)
    S = skew(theta)
    c = 1.0 / (angle * angle) - (1.0 + np.cos(angle)) / (2.0 * angle * np.sin(angle))
    return np.eye(3) + 0.5 * S + c * (S @ S)


# --------------------------------------------------------- Kalman pieces

def taylor_chain(dim, dt):
    T = np.eye(dim)
    for i in range(dim):
        for j in range(i + 1, dim):
            T[i, j] = dt ** (j - i) / factorial(j - i)
    return T


def kalman_update(P, y, R, H):
    S = H @ P @ H.T + R
    S = 0.5 * (S + S.T)
    eig = np.linalg.eigvalsh(S)
    if eig[0] <= 0.0 or eig[-1] / eig[0] > 1e12:
        raise ArithmeticError("degenerate innovation covariance")
    K = np.linalg.solve(S, H @ P).T
    P2 = (np.eye(len(P)) - K @ H) @ P
    return K @ y, 0.5 * (P2 + P2.T)


def window_nodes(poses):
    """The filters' derivative-window nodes (t, p, q, w) of received poses,
    oldest first, w being None on the first node. Each pair rate is
    recomputed with the package's ndarray rotation functions, which run
    the filters' float kernels, so the nodes match bit for bit."""
    nodes = []
    for i, z in enumerate(poses):
        w = None
        if i:
            a = poses[i - 1]
            rel = so3.quat_multiply(quat_conjugate(a.q), z.q)
            w = tuple((so3.quat_log(rel) / (z.t - a.t)).tolist())
        nodes.append((z.t, z.p.tolist(), z.q.tolist(), w))
    return nodes


def pseudo_derivatives(window, op, orot):
    poses = list(window)
    if len(poses) < 2:
        return None
    ts = np.array([p.t for p in poses])
    ps = np.array([p.p for p in poses])
    ws = np.array([quat_log(quat_multiply(quat_conjugate(a.q), b.q)) / (b.t - a.t)
                   for a, b in zip(poses, poses[1:])])

    def derivs(x, fs, order):
        n = min(order + 1, len(x))
        coef = np.linalg.solve(np.vander(x - x[-1], n, increasing=True), fs)
        return [factorial(k) * coef[k] for k in range(n)]

    pos_d = np.zeros((3, 3))
    rot_d = np.zeros((3, 3))
    d = derivs(ts[-(op + 1):], ps[-(op + 1):], op)
    for k in range(1, len(d)):
        pos_d[k - 1] = d[k]
    rot_d[0] = ws[-1]
    if orot >= 2 and len(ws) >= 2:
        dw = derivs(ts[1:][-orot:], ws[-orot:], orot - 1)
        for k in range(1, len(dw)):
            rot_d[k] = dw[k]
    return pos_d, rot_d


# ------------------------------------------ generic float kernels, exact

def taylor_rollout(pos, dt, n):
    """n steps of the full position Taylor chain over rows [p v a j], one
    scalar per axis; returns the positions after each step and the end rows."""
    c1, c2, c3 = dt, dt ** 2 / 2, dt ** 3 / 6
    (p0, p1, p2), (v0, v1, v2), (a0, a1, a2), j = pos
    j0, j1, j2 = j
    ps = []
    for _ in range(n):
        p0 = p0 + v0 * c1 + a0 * c2 + j0 * c3
        p1 = p1 + v1 * c1 + a1 * c2 + j1 * c3
        p2 = p2 + v2 * c1 + a2 * c2 + j2 * c3
        v0 = v0 + a0 * c1 + j0 * c2
        v1 = v1 + a1 * c1 + j1 * c2
        v2 = v2 + a2 * c1 + j2 * c2
        a0 = a0 + j0 * c1
        a1 = a1 + j1 * c1
        a2 = a2 + j2 * c1
        ps.append((p0, p1, p2))
    return ps, ((p0, p1, p2), (v0, v1, v2), (a0, a1, a2), j)


def divided_difference_derivatives(us, fs):
    """First three derivatives at us[0] of the interpolant through 1 to 4
    nodes (offsets us, 3-vector values fs), from the Newton divided
    differences built in place; rows past the stencil's degree are zero."""
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


def cv_step(p, v, q, qd, h):
    """The baseline's constant-velocity step over h, quaternion renormalized."""
    p0, p1, p2 = p
    v0, v1, v2 = v
    w, x, y, z = (a + b * h for a, b in zip(q, qd))
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return (p0 + v0 * h, p1 + v1 * h, p2 + v2 * h), (w / n, x / n, y / n, z / n)


def geodesic_distance(q_pred, q_true):
    """The scalar float geodesic the stacked so3.geodesic_distance
    replaced: |_log(q_pred * q_true^-1)|, folded into [0, pi] by Python's
    min."""
    w, x, y, z = so3._floats(q_true)
    lx, ly, lz = so3._log(so3._mul(so3._floats(q_pred), (w, -x, -y, -z)))
    d = math.sqrt(lx * lx + ly * ly + lz * lz)
    return min(d, 2.0 * math.pi - d)


def position_error(p_pred, p_true):
    """The scalar float position error, millimeters, that the stacked one replaced."""
    (a0, a1, a2), (b0, b1, b2) = so3._floats(p_pred), so3._floats(p_true)
    d0, d1, d2 = a0 - b0, a1 - b1, a2 - b2
    return 1000.0 * math.sqrt(d0 * d0 + d1 * d1 + d2 * d2)


def orientation_error(q_pred, q_true):
    """The scalar float orientation error, degrees, that the stacked one replaced."""
    return math.degrees(geodesic_distance(q_pred, q_true))


# ----------------------------------------------------------- predictors

class RefEskf:
    """Error-state predictor of order (op, orot), minimal stencils, identity noise.

    With coupled false (the filters' model) F is kron(T, I3) on both
    blocks and H reads dp and dth directly; with coupled true the dth
    block of F is exp(w dt)^T and H reads dth through J_r^-T at the
    residual (the identity below 1e-4 rad).
    """

    def __init__(self, model, first, dt, horizon_steps, coupled=False):
        self.coupled = coupled
        self.op, self.orot = ORDERS[model]
        self.bp, self.br = 1 + self.op, 1 + self.orot
        self.D = 3 * (self.bp + self.br)
        self.h, self.n = dt, horizon_steps
        self.t = first.t
        self.pos = np.zeros((4, 3))
        self.pos[0] = first.p
        self.q = np.array(first.q, dtype=float)
        self.wvec = np.zeros((3, 3))
        self.P = np.eye(self.D)
        self.window = deque([first], maxlen=max(self.op, self.orot) + 1)

    def _advance(self, pos, q, wvec, dt):
        w0, wd0, wdd0 = wvec
        if self.orot >= 3:
            q = zed23_step(q, w0, wd0, 0.5 * wdd0, dt)
        else:
            q = zed12_step(q, w0, wd0 if self.orot == 2 else np.zeros(3), dt)
        return taylor_chain(4, dt) @ pos, q, taylor_chain(3, dt) @ wvec

    def step(self, z, received):
        dt = z.t - self.t
        th = 3 * self.bp
        F = np.eye(self.D)
        F[:th, :th] = np.kron(taylor_chain(self.bp, dt), np.eye(3))
        F[th:, th:] = np.kron(taylor_chain(self.br, dt), np.eye(3))
        if self.coupled:
            F[th:th + 3, th:th + 3] = rotvec_to_matrix(self.wvec[0] * dt).T
        self.pos, self.q, self.wvec = self._advance(self.pos, self.q, self.wvec, dt)
        self.t = z.t
        P = F @ self.P @ F.T + np.eye(self.D)
        self.P = 0.5 * (P + P.T)
        if received:
            yr = quat_log(quat_multiply(quat_conjugate(self.q), z.q))
            y = np.concatenate([z.p - self.pos[0], yr])
            H = np.zeros((6, self.D))
            H[0:3, 0:3] = np.eye(3)
            H[3:6, th:th + 3] = (right_jacobian_inv(yr).T if self.coupled
                                 and np.linalg.norm(yr) >= 1e-4 else np.eye(3))
            dx, self.P = kalman_update(self.P, y, np.eye(6), H)
            # the derivative rows of dx need no injection: the
            # pseudo-derivatives below overwrite them
            self.q = quat_multiply(self.q, quat_exp(dx[th:th + 3]))
            self.pos[0] += dx[0:3]
            self.window.append(z)
            d = pseudo_derivatives(self.window, self.op, self.orot)
            self.pos[1:4] = d[0]
            self.wvec[:] = d[1]
        pos, q, wvec = self.pos, self.q, self.wvec
        rollout = []
        for _ in range(self.n):
            pos, q, wvec = self._advance(pos, q, wvec, self.h)
            rollout.append((pos[0], q))
        return rollout


class RefKf:
    """Linear [p v q qdot] baseline with explicit H and (I - K H) P."""

    H = np.zeros((7, 14))
    H[0:3, 0:3] = np.eye(3)
    H[3:7, 6:10] = np.eye(4)

    def __init__(self, first, dt, horizon_steps):
        self.h, self.n = dt, horizon_steps
        self.t = first.t
        self.x = np.zeros(14)
        self.x[0:3] = first.p
        self.x[6:10] = first.q
        self.P = np.eye(14)

    def step(self, z, received):
        dt = z.t - self.t
        F = np.eye(14)
        F[0:3, 3:6] = dt * np.eye(3)
        F[6:10, 10:14] = dt * np.eye(4)
        self.x = F @ self.x
        self.x[6:10] /= np.linalg.norm(self.x[6:10])
        P = F @ self.P @ F.T + np.eye(14)
        self.P = 0.5 * (P + P.T)
        self.t = z.t
        if received:
            zq = z.q if z.q @ self.x[6:10] >= 0.0 else -z.q
            y = np.concatenate([z.p, zq]) - self.H @ self.x
            dx, self.P = kalman_update(self.P, y, np.eye(7), self.H)
            self.x = self.x + dx
            self.x[6:10] /= np.linalg.norm(self.x[6:10])
        p, v, q, qd = self.x[0:3], self.x[3:6], self.x[6:10], self.x[10:14]
        rollout = []
        for _ in range(self.n):
            p = p + v * self.h
            q = q + qd * self.h
            q = q / np.linalg.norm(q)
            rollout.append((p, q))
        return rollout


def make_reference(model, first, dt, horizon_steps, coupled=False):
    if model == "KF":
        return RefKf(first, dt, horizon_steps)
    return RefEskf(model, first, dt, horizon_steps, coupled)


# ------------------------------------------------------------ prefilter

class RefStreamFilter:
    """The streaming pose prefilter on numpy 7-vectors, section by section."""

    def __init__(self, sos):
        self.sos = np.asarray(sos, dtype=float)
        self.z = np.zeros((len(self.sos), 2, 7))
        self._prev_q = None

    def filter_sample(self, pose):
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
