"""Quaternion and rotation-vector algebra for pose filtering.

Conventions, used by every module in this package:

- Quaternions are length-4 float ndarrays [w, x, y, z], scalar first,
  composed with the Hamilton product. Unit quaternions represent rotations;
  q and -q are the same rotation.
- Rotation vectors are axis * angle in radians. quat_exp maps a rotation
  vector to a unit quaternion, quat_log inverts it onto angles in [0, pi].
- Operations that return a quaternion canonicalize the sign so w >= 0.
- Incremental orientation updates multiply on the right: q <- q * quat_exp(phi).

Every operation on one rotation is computed once, in Python floats:
numpy's per-call overhead dwarfs the arithmetic on 3- and 4-vectors. The
underscore kernels take and return tuples of floats and are what the
filters' per-tick loop calls: _mul, _exp, _log, and _rotation_chain,
which integrates n rotation increments along the rate Taylor chain with
one exp and a canonical Hamilton product per step, both written out in
one loop per order. The public functions accept any sequence and wrap
the same kernels in ndarrays; zed12_step and zed23_step are
_rotation_chain's one-step case. Whole streams are handled at once by
_mul, which is elementwise and also takes stacks of quaternions as (m,)
component arrays, and by _stacked_log, _log's steps elementwise in
numpy: geodesic_distance scores with them, and the filters take each
stream's window rates with them. Both give the floats of the scalar
kernels.
"""

import math

import numpy as np


_ZERO3 = (0.0, 0.0, 0.0)

# how far off 1 a quaternion's norm may be: _log renormalizes within it and
# refuses beyond it, and so does every check of a pose the filters score
UNIT_NORM_TOL = 1e-6


def off_unit_message(norm):
    """The error text for a quaternion norm off 1 by more than
    UNIT_NORM_TOL, the tolerance written as 1e-6, not as Python's 1e-06."""
    tol = f"{UNIT_NORM_TOL:.0e}".replace("e-0", "e-")
    return f"quaternion norm {norm:.9g} is not within {tol} of unit"


def _floats(v):
    """Components of a vector as Python numbers (ndarrays via tolist)."""
    return v.tolist() if isinstance(v, np.ndarray) else v


def _mul(p, q):
    """Hamilton product p * q of two tuples of floats, or elementwise of
    two stacks of quaternions given as (m,) component arrays."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw)


def _exp(v):
    x, y, z = v
    angle = math.sqrt(x * x + y * y + z * z)
    half = 0.5 * angle
    if angle < 1e-8:
        # sin(angle/2)/angle = 1/2 - angle^2/48 + O(angle^4)
        k = 0.5 - angle * angle / 48.0
    else:
        k = math.sin(half) / angle
    w = math.cos(half)
    if w < 0.0:
        w, k = -w, -k
    return (w, k * x, k * y, k * z)


def _log(q):
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if abs(n - 1.0) > UNIT_NORM_TOL:
        raise ValueError(off_unit_message(n))
    w, x, y, z = w / n, x / n, y / n, z / n
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    s = math.sqrt(x * x + y * y + z * z)
    if s < 1e-9:
        # angle/sin(angle/2) -> 2/w as s -> 0
        k = 2.0 / w
    else:
        k = 2.0 * math.atan2(s, w) / s
    return (k * x, k * y, k * z)


def _rotation_chain(q, w, wd, wdd, h, n, order):
    """n rotation increments of h from q along the rate Taylor chain.

    Step k applies q <- canonical(q * exp(phi_k)) with the increment of
    the given order at the rates of the step's start,

        order 1   phi = w h                                (constant rate)
        order 2   phi = w h + wd h^2/2
        order 3   phi = w h + wd h^2/2 + wdd h^3/6 + (w x wd) h^3/12

    then advances the rates by their Taylor chain cut at the same order:
    w <- w + wd h at order 2, and w <- w + wd h + wdd h^2/2,
    wd <- wd + wdd h at order 3. Rate rows above the order are not read
    and come back as they came; at order 1 the increment is the same on
    every step, so exp runs once. The cubic term is (wdd/2) h^3/3, the
    polynomial-coefficient form of zed23_step, and the commutator term
    makes the step third-order accurate for non-commuting rotations.
    Returns the n orientations in step order and the end rates
    (w, wd, wdd), all tuples of floats.

    Each order runs its own loop, with _exp written out in _exp's
    operation order and the products of constant rows taken once, so
    every float is the one the stepwise definition gives.
    """
    qw, qx, qy, qz = q
    a0, a1, a2 = w
    qs = []
    append = qs.append
    if order == 1:
        ew, ex, ey, ez = _exp((a0 * h, a1 * h, a2 * h))
        for _ in range(n):
            rw = qw * ew - qx * ex - qy * ey - qz * ez
            rx = qw * ex + qx * ew + qy * ez - qz * ey
            ry = qw * ey - qx * ez + qy * ew + qz * ex
            rz = qw * ez + qx * ey - qy * ex + qz * ew
            q = (-rw, -rx, -ry, -rz) if rw < 0.0 else (rw, rx, ry, rz)
            append(q)
            qw, qx, qy, qz = q
        return qs, (w, wd, wdd)
    sqrt, sin, cos = math.sqrt, math.sin, math.cos
    b0, b1, b2 = wd
    if order == 2:
        k2 = 0.5 * h * h
        s0, s1, s2 = b0 * k2, b1 * k2, b2 * k2
        g0, g1, g2 = b0 * h, b1 * h, b2 * h
        for _ in range(n):
            x, y, z = a0 * h + s0, a1 * h + s1, a2 * h + s2
            a0, a1, a2 = a0 + g0, a1 + g1, a2 + g2
            angle = sqrt(x * x + y * y + z * z)
            half = 0.5 * angle
            k = 0.5 - angle * angle / 48.0 if angle < 1e-8 else sin(half) / angle
            ew = cos(half)
            if ew < 0.0:
                ew, k = -ew, -k
            ex, ey, ez = k * x, k * y, k * z
            rw = qw * ew - qx * ex - qy * ey - qz * ez
            rx = qw * ex + qx * ew + qy * ez - qz * ey
            ry = qw * ey - qx * ez + qy * ew + qz * ex
            rz = qw * ez + qx * ey - qy * ex + qz * ew
            q = (-rw, -rx, -ry, -rz) if rw < 0.0 else (rw, rx, ry, rz)
            append(q)
            qw, qx, qy, qz = q
        return qs, ((a0, a1, a2), (b0, b1, b2), wdd)
    h2 = h * h
    k2 = 0.5 * h2
    k3 = h2 * h / 3.0
    kc = h2 * h / 12.0
    c2 = h ** 2 / 2             # the rate chain rounds h^2/2 as filters._chain does
    e0, e1, e2 = wdd
    s0, s1, s2 = 0.5 * e0 * k3, 0.5 * e1 * k3, 0.5 * e2 * k3
    f0, f1, f2 = e0 * c2, e1 * c2, e2 * c2
    g0, g1, g2 = e0 * h, e1 * h, e2 * h
    for _ in range(n):
        x = a0 * h + b0 * k2 + s0 + (a1 * b2 - a2 * b1) * kc
        y = a1 * h + b1 * k2 + s1 + (a2 * b0 - a0 * b2) * kc
        z = a2 * h + b2 * k2 + s2 + (a0 * b1 - a1 * b0) * kc
        a0, a1, a2 = a0 + b0 * h + f0, a1 + b1 * h + f1, a2 + b2 * h + f2
        b0, b1, b2 = b0 + g0, b1 + g1, b2 + g2
        angle = sqrt(x * x + y * y + z * z)
        half = 0.5 * angle
        k = 0.5 - angle * angle / 48.0 if angle < 1e-8 else sin(half) / angle
        ew = cos(half)
        if ew < 0.0:
            ew, k = -ew, -k
        ex, ey, ez = k * x, k * y, k * z
        rw = qw * ew - qx * ex - qy * ey - qz * ez
        rx = qw * ex + qx * ew + qy * ez - qz * ey
        ry = qw * ey - qx * ez + qy * ew + qz * ex
        rz = qw * ez + qx * ey - qy * ex + qz * ew
        q = (-rw, -rx, -ry, -rz) if rw < 0.0 else (rw, rx, ry, rz)
        append(q)
        qw, qx, qy, qz = q
    return qs, ((a0, a1, a2), (b0, b1, b2), wdd)


def _stacked_exp(x, y, z):
    """_exp of a stack of rotation vectors, given and returned as component
    arrays: its branch and its sign flip run as np.where."""
    angle = np.sqrt(x * x + y * y + z * z)
    if np.isinf(angle).any():
        # math.sin refuses an infinite angle, so a scalar rollout stops there too
        raise ValueError("math domain error")
    half = 0.5 * angle
    k = np.where(angle < 1e-8, 0.5 - angle * angle / 48.0, np.sin(half) / angle)
    w = np.cos(half)
    flip = w < 0.0
    k = np.where(flip, -k, k)
    return np.where(flip, -w, w), k * x, k * y, k * z


def _stacked_rotation_chain(q, w, wd, wdd, h, n, order):
    """_rotation_chain on stacks: every leaf of q and of the rate rows is
    an (m,) array, and so is every component it returns.

    The loops are _rotation_chain's, in its operation order, with _exp's
    small-angle branch, its cos < 0 flip and the canonical rw < 0 flip
    written as np.where (_stacked_exp), so every element is the float the
    scalar kernel gives for its row: np.sin, np.cos and np.sqrt round as
    math's do. Like math.sin, it raises ValueError on an infinite angle.
    """
    qw, qx, qy, qz = q
    a0, a1, a2 = w
    qs = []
    where = np.where
    with np.errstate(all="ignore"):     # IEEE results where np.where drops a branch
        if order == 1:
            ew, ex, ey, ez = _stacked_exp(a0 * h, a1 * h, a2 * h)
        elif order == 2:
            b0, b1, b2 = wd
            k2 = 0.5 * h * h
            s0, s1, s2 = b0 * k2, b1 * k2, b2 * k2
            g0, g1, g2 = b0 * h, b1 * h, b2 * h
        else:
            b0, b1, b2 = wd
            h2 = h * h
            k2 = 0.5 * h2
            k3 = h2 * h / 3.0
            kc = h2 * h / 12.0
            c2 = h ** 2 / 2
            e0, e1, e2 = wdd
            s0, s1, s2 = 0.5 * e0 * k3, 0.5 * e1 * k3, 0.5 * e2 * k3
            f0, f1, f2 = e0 * c2, e1 * c2, e2 * c2
            g0, g1, g2 = e0 * h, e1 * h, e2 * h
        for _ in range(n):
            if order == 2:
                x, y, z = a0 * h + s0, a1 * h + s1, a2 * h + s2
                a0, a1, a2 = a0 + g0, a1 + g1, a2 + g2
                ew, ex, ey, ez = _stacked_exp(x, y, z)
            elif order == 3:
                x = a0 * h + b0 * k2 + s0 + (a1 * b2 - a2 * b1) * kc
                y = a1 * h + b1 * k2 + s1 + (a2 * b0 - a0 * b2) * kc
                z = a2 * h + b2 * k2 + s2 + (a0 * b1 - a1 * b0) * kc
                a0, a1, a2 = a0 + b0 * h + f0, a1 + b1 * h + f1, a2 + b2 * h + f2
                b0, b1, b2 = b0 + g0, b1 + g1, b2 + g2
                ew, ex, ey, ez = _stacked_exp(x, y, z)
            rw = qw * ew - qx * ex - qy * ey - qz * ez
            rx = qw * ex + qx * ew + qy * ez - qz * ey
            ry = qw * ey - qx * ez + qy * ew + qz * ex
            rz = qw * ez + qx * ey - qy * ex + qz * ew
            flip = rw < 0.0
            qw, qx, qy, qz = (where(flip, -rw, rw), where(flip, -rx, rx),
                              where(flip, -ry, ry), where(flip, -rz, rz))
            qs.append((qw, qx, qy, qz))
    if order == 1:
        return qs, (w, wd, wdd)
    return qs, ((a0, a1, a2), (b0, b1, b2), wdd)


def _stacked_log(w, x, y, z):
    """_log of a stack of quaternions given as component arrays: the
    rotation vectors' components, and each quaternion's norm.

    The steps run elementwise in _log's operation order, its w < 0 flip
    of all four components and its s < 1e-9 series branch as np.where, so
    every element is the float _log gives. Only the arctangent runs per
    element, through math.atan2: np.arctan2 rounds differently. Nothing
    is refused here: a caller checks the norms against UNIT_NORM_TOL, as
    _log does, and the rows it refuses come out as IEEE arithmetic gives
    them, without a warning.
    """
    with np.errstate(all="ignore"):
        n = np.sqrt(w * w + x * x + y * y + z * z)
        w, x, y, z = w / n, x / n, y / n, z / n
        flip = w < 0.0
        w, x, y, z = (np.where(flip, -w, w), np.where(flip, -x, x),
                      np.where(flip, -y, y), np.where(flip, -z, z))
        s = np.sqrt(x * x + y * y + z * z)
        angle = np.fromiter(map(math.atan2, s.tolist(), w.tolist()), float, len(s))
        k = np.where(s < 1e-9, 2.0 / w, 2.0 * angle / s)
        return (k * x, k * y, k * z), n


def _quadratic(v, a, b):
    """Rows of I + a [v]x + b [v]x^2, written out entry by entry."""
    x, y, z = v
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    return ((1.0 - b * (yy + zz), -a * z + b * xy, a * y + b * xz),
            (a * z + b * xy, 1.0 - b * (xx + zz), -a * x + b * yz),
            (-a * y + b * xz, a * x + b * yz, 1.0 - b * (xx + yy)))


def quat_multiply(p, q):
    """Hamilton product p * q."""
    return np.array(_mul(_floats(p), _floats(q)))


def quat_exp(v):
    """Exponential map: rotation vector -> unit quaternion.

    Returns [cos(|v|/2), sin(|v|/2) * v/|v|] with a series guard below
    1e-8 rad so the map is smooth through zero.
    """
    return np.array(_exp(_floats(v)))


def quat_log(q):
    """Log map: unit quaternion -> rotation vector with angle in [0, pi].

    Raises ValueError when the input norm deviates from 1 by more than
    UNIT_NORM_TOL; smaller deviations are renormalized away.
    """
    return np.array(_log(_floats(q)))


def geodesic_distance(q_pred, q_true):
    """Rotation angle, in radians, taking q_true to q_pred.

    Computed as |quat_log(q_pred * q_true^-1)| folded into [0, pi]: at
    the antipode that norm rounds up to a few ulp past pi. Sign flips of
    either argument do not change the result. Either argument is one
    quaternion or a stack of them, shaped (n, 4); two single quaternions
    give a float, anything stacked an (n,) array. Each angle is the float
    _mul and _log give for its pair (_stacked_log). ValueError, as from
    _log, when a relative product's norm is more than UNIT_NORM_TOL off
    unit.
    """
    pred, true = np.asarray(q_pred, dtype=float), np.asarray(q_true, dtype=float)
    w, x, y, z = np.atleast_2d(true).T
    # IEEE results without warnings, as Python floats give them
    with np.errstate(all="ignore"):
        (lx, ly, lz), n = _stacked_log(*_mul(np.atleast_2d(pred).T, (w, -x, -y, -z)))
        bad = np.abs(n - 1.0) > UNIT_NORM_TOL
        if bad.any():
            raise ValueError(off_unit_message(n[bad.argmax()]))
        d = np.sqrt(lx * lx + ly * ly + lz * lz)
        other = 2.0 * math.pi - d
    d = np.where(other < d, other, d)       # min(d, other), NaN included
    return d if max(pred.ndim, true.ndim) > 1 else float(d[0])


def zed12_step(q, w0, w1, h):
    """Second-order orientation step over [0, h].

    w0 is the angular rate at the start of the step, w1 its slope. The
    integrated increment w0*h + w1*h^2/2 is applied on the right.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"step size h must be finite and positive, got {h!r}")
    qs, _ = _rotation_chain(_floats(q), _floats(w0), _floats(w1), _ZERO3, h, 1, 2)
    return np.array(qs[0])


def zed23_step(q, w0, w1, w2, h):
    """Third-order orientation step over [0, h].

    w0, w1, w2 are polynomial coefficients of the angular rate,
    w(t) = w0 + w1 t + w2 t^2 (so a caller tracking angular jerk passes
    w2 = jerk/2). The increment adds the cubic term and the commutator
    correction (w0 x w1) h^3/12 that makes the step third-order accurate
    for non-commuting rotations.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"step size h must be finite and positive, got {h!r}")
    c0, c1, c2 = _floats(w2)
    qs, _ = _rotation_chain(_floats(q), _floats(w0), _floats(w1),
                            (2.0 * c0, 2.0 * c1, 2.0 * c2), h, 1, 3)
    return np.array(qs[0])


def right_jacobian_inv(theta):
    """Inverse right Jacobian of SO(3) at rotation vector theta.

    Closed form I + [theta]x/2 + c(|theta|) [theta]x^2 with
    c(a) = 1/a^2 - (1 + cos a)/(2 a sin a); below 1e-4 rad the series
    I + [theta]x/2 + [theta]x^2/12 is used. Angles at or beyond pi are
    rejected, the Jacobian is singular there.
    """
    theta = _floats(theta)
    x, y, z = theta
    angle = math.sqrt(x * x + y * y + z * z)
    if angle >= math.pi:
        raise ValueError(f"rotation angle {angle:.9g} rad is outside [0, pi)")
    if angle < 1e-4:
        return np.array(_quadratic(theta, 0.5, 1.0 / 12.0))
    c = (1.0 / (angle * angle)
         - (1.0 + math.cos(angle)) / (2.0 * angle * math.sin(angle)))
    return np.array(_quadratic(theta, 0.5, c))
