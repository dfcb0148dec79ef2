import warnings

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from posecast import so3
from posecast.experiment import prepare_trace
from posecast.filters import _check_pose
from posecast.traces import Pose, Trace, generate_synthetic_trace

from conftest import rk4_quat_reference, right_jacobian_closed_form, matrix_angle
import numpy_reference as ref


def random_rotvecs(rng, n, max_angle=np.pi - 1e-3):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * rng.uniform(0.0, max_angle, size=(n, 1))


def test_exp_known_value():
    q = so3.quat_exp(np.array([0.3, 0.0, 0.0]))
    assert np.allclose(q, [np.cos(0.15), np.sin(0.15), 0.0, 0.0], atol=1e-15)


def test_exp_zero_is_identity():
    assert np.array_equal(so3.quat_exp(np.zeros(3)), [1.0, 0.0, 0.0, 0.0])


def test_exp_log_roundtrip_random():
    rng = np.random.default_rng(1)
    for v in random_rotvecs(rng, 1000):
        v2 = so3.quat_log(so3.quat_exp(v))
        assert np.linalg.norm(v2 - v) <= 1e-10


def test_exp_log_roundtrip_small_angles():
    rng = np.random.default_rng(2)
    for scale in (1e-12, 1e-9, 1e-7, 1e-5):
        for v in rng.normal(size=(50, 3)) * scale:
            v2 = so3.quat_log(so3.quat_exp(v))
            assert np.linalg.norm(v2 - v) <= 1e-12 + 1e-6 * scale


def test_exp_canonicalizes_beyond_pi():
    # angle > pi wraps to the equivalent rotation with w >= 0
    q = so3.quat_exp(np.array([0.0, 0.0, 3.5]))
    assert q[0] >= 0.0
    assert abs(np.linalg.norm(so3.quat_log(q)) - (2.0 * np.pi - 3.5)) < 1e-12


def test_log_rejects_non_unit():
    with pytest.raises(ValueError):
        so3.quat_log(np.array([1.1, 0.0, 0.0, 0.0]))


def test_log_accepts_small_norm_slack():
    q = np.array([1.0 + 5e-7, 0.0, 0.0, 0.0])
    assert np.linalg.norm(so3.quat_log(q)) < 1e-12


def test_log_range_and_sign_insensitivity():
    rng = np.random.default_rng(3)
    for v in random_rotvecs(rng, 200):
        q = so3.quat_exp(v)
        for s in (q, -q):
            angle = np.linalg.norm(so3.quat_log(s))
            assert 0.0 <= angle <= np.pi


def test_matrix_against_scipy():
    rng = np.random.default_rng(4)
    for v in random_rotvecs(rng, 100):
        q = so3.quat_exp(v)
        R_mine = ref.quat_to_matrix(q)
        R_ref = Rotation.from_quat([q[1], q[2], q[3], q[0]]).as_matrix()
        assert np.abs(R_mine - R_ref).max() < 1e-12


def test_geodesic_basic():
    qi = np.array([1.0, 0.0, 0.0, 0.0])
    qz = so3.quat_exp(np.array([0.0, 0.0, 0.5]))
    assert abs(so3.geodesic_distance(qz, qi) - 0.5) < 1e-12
    assert so3.geodesic_distance(qi, qi) == 0.0


def test_geodesic_symmetry_and_sign():
    rng = np.random.default_rng(5)
    for _ in range(200):
        qa = so3.quat_exp(random_rotvecs(rng, 1)[0])
        qb = so3.quat_exp(random_rotvecs(rng, 1)[0])
        d_ab = so3.geodesic_distance(qa, qb)
        assert abs(d_ab - so3.geodesic_distance(qb, qa)) <= 1e-10
        assert abs(d_ab - so3.geodesic_distance(-qa, qb)) <= 1e-10
        assert abs(d_ab - so3.geodesic_distance(qa, -qb)) <= 1e-10


def test_geodesic_left_invariance():
    rng = np.random.default_rng(6)
    for _ in range(100):
        qa = so3.quat_exp(random_rotvecs(rng, 1)[0])
        qb = so3.quat_exp(random_rotvecs(rng, 1)[0])
        g = so3.quat_exp(random_rotvecs(rng, 1)[0])
        d = so3.geodesic_distance(qa, qb)
        dg = so3.geodesic_distance(so3.quat_multiply(g, qa), so3.quat_multiply(g, qb))
        assert abs(d - dg) <= 1e-10


def test_geodesic_matches_matrix_trace_angle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        qa = so3.quat_exp(random_rotvecs(rng, 1, max_angle=3.0)[0])
        qb = so3.quat_exp(random_rotvecs(rng, 1, max_angle=3.0)[0])
        d = so3.geodesic_distance(qa, qb)
        R = ref.quat_to_matrix(qa) @ ref.quat_to_matrix(qb).T
        assert abs(d - matrix_angle(R)) < 1e-7


def test_geodesic_is_at_most_pi_near_and_at_the_antipode():
    # at the antipode the log's norm rounds a few ulp past pi in about half
    # of all pairs; the distance still lies in [0, pi]
    rng = np.random.default_rng(9)
    for gap in (None, 0.0, 1e-15, 1e-12, 1e-8):
        for _ in range(500):
            qb = so3.quat_exp(random_rotvecs(rng, 1)[0])
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            turn = (np.array([0.0, *axis]) if gap is None
                    else so3.quat_exp((np.pi - gap) * axis))
            d = so3.geodesic_distance(so3.quat_multiply(qb, turn), qb)
            assert np.pi - (gap or 0.0) - 1e-7 <= d <= np.pi


def test_exp_matches_half_angle_formula():
    rng = np.random.default_rng(8)
    for v in random_rotvecs(rng, 100):
        a = np.linalg.norm(v)
        expect = np.concatenate([[np.cos(a / 2)], np.sin(a / 2) * v / a])
        assert np.abs(so3.quat_exp(v) - expect).max() <= 1e-12


def test_zed12_pure_z_rotation():
    q = so3.zed12_step(np.array([1.0, 0.0, 0.0, 0.0]),
                       np.array([0.0, 0.0, 1.0]), np.zeros(3), 0.1)
    assert np.abs(so3.quat_log(q) - [0.0, 0.0, 0.1]).max() < 1e-15


def test_zed23_reduces_to_zed12_without_cubic_terms():
    # with w2 = 0 and w0 parallel to w1 the commutator vanishes exactly
    q0 = so3.quat_exp(np.array([0.2, -0.1, 0.4]))
    w0 = np.array([0.3, 0.6, -0.2])
    w1 = 2.5 * w0
    qa = so3.zed12_step(q0, w0, w1, 0.01)
    qb = so3.zed23_step(q0, w0, w1, np.zeros(3), 0.01)
    assert np.abs(qa - qb).max() < 1e-15


def test_step_rejects_nonpositive_h():
    q = np.array([1.0, 0.0, 0.0, 0.0])
    w = np.array([1.0, 0.0, 0.0])
    for h in (0.0, -0.01):
        with pytest.raises(ValueError):
            so3.zed12_step(q, w, w, h)
        with pytest.raises(ValueError):
            so3.zed23_step(q, w, w, w, h)


@pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf])
def test_step_rejects_non_finite_h(h):
    q = np.array([1.0, 0.0, 0.0, 0.0])
    w = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite and positive"):
        so3.zed12_step(q, w, w, h)
    with pytest.raises(ValueError, match="finite and positive"):
        so3.zed23_step(q, w, w, w, h)


def _prepare_with(q):
    tr = generate_synthetic_trace("hard", 4.0, seed=1)
    qs = tr.q.copy()
    qs[150] = q
    prepare_trace(Trace(tr.t, tr.p, qs), (20,))


@pytest.mark.parametrize("check", [
    so3.quat_log,
    lambda q: so3.geodesic_distance(q, [1.0, 0.0, 0.0, 0.0]),
    lambda q: _check_pose(Pose(0.0, np.zeros(3), q)),
    _prepare_with,
], ids=["quat_log", "geodesic_distance", "filters._check_pose", "experiment.prepare_trace"])
def test_every_unit_norm_check_has_the_one_tolerance(check):
    tol = so3.UNIT_NORM_TOL
    check(np.array([1.0 + 0.9 * tol, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="quaternion norm 1.0000011 is not within 1e-6 of unit"):
        check(np.array([1.0 + 1.1 * tol, 0.0, 0.0, 0.0]))


def test_steps_preserve_unit_norm():
    rng = np.random.default_rng(9)
    q = so3.quat_exp(random_rotvecs(rng, 1)[0])
    for _ in range(1000):
        q = so3.zed23_step(q, rng.normal(size=3), rng.normal(size=3),
                           rng.normal(size=3), 0.01)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12


def _omega(t):
    return np.array([0.5 + 2.0 * t, 1.0 - t, 0.3 * t * t])


def _omega_dot(t):
    return np.array([2.0, -1.0, 0.6 * t])


_W2 = np.array([0.0, 0.0, 0.3])


def _integrate(step, h):
    q = np.array([1.0, 0.0, 0.0, 0.0])
    for i in range(int(round(1.0 / h))):
        q = step(q, i * h, h)
    return q


def test_zed12_second_order_convergence():
    errs = []
    for h in (0.02, 0.01):
        q_ref = rk4_quat_reference([1.0, 0, 0, 0], _omega, 0.0, 1.0, h / 100.0)
        q = _integrate(lambda q, t, h: so3.zed12_step(q, _omega(t), _omega_dot(t), h), h)
        errs.append(so3.geodesic_distance(q, q_ref))
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.0


def test_zed23_third_order_convergence():
    errs = []
    for h in (0.02, 0.01):
        q_ref = rk4_quat_reference([1.0, 0, 0, 0], _omega, 0.0, 1.0, h / 100.0)
        q = _integrate(
            lambda q, t, h: so3.zed23_step(q, _omega(t), _omega_dot(t), _W2, h), h)
        errs.append(so3.geodesic_distance(q, q_ref))
    ratio = errs[0] / errs[1]
    assert 6.0 <= ratio <= 10.0


def test_right_jacobian_inverse_against_closed_form():
    rng = np.random.default_rng(10)
    for v in random_rotvecs(rng, 200, max_angle=np.pi - 0.05):
        P = right_jacobian_closed_form(v) @ so3.right_jacobian_inv(v)
        assert np.abs(P - np.eye(3)).max() <= 1e-10


def test_right_jacobian_inv_consistent_across_series_boundary():
    # both branches must agree with the closed-form oracle near 1e-4 rad
    rng = np.random.default_rng(11)
    for v in random_rotvecs(rng, 50, max_angle=1.0):
        u = v / np.linalg.norm(v)
        for angle in (0.99e-4, 1.01e-4):
            th = u * angle
            P = right_jacobian_closed_form(th) @ so3.right_jacobian_inv(th)
            assert np.abs(P - np.eye(3)).max() <= 1e-12


def test_right_jacobian_inv_identity_at_zero():
    assert np.array_equal(so3.right_jacobian_inv(np.zeros(3)), np.eye(3))


def test_right_jacobian_inv_rejects_pi():
    with pytest.raises(ValueError):
        so3.right_jacobian_inv(np.array([np.pi, 0.0, 0.0]))
    with pytest.raises(ValueError):
        so3.right_jacobian_inv(np.array([0.0, 4.0, 0.0]))


def test_skew_antisymmetry_and_cross():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        S = ref.skew(a)
        assert np.array_equal(S, -S.T)
        assert np.allclose(S @ b, np.cross(a, b), atol=1e-15)


def test_canonical_flip():
    q = np.array([-0.5, 0.5, 0.5, 0.5])
    assert ref.canonical(q)[0] > 0.0
    assert np.array_equal(ref.canonical(-q), -q)


def test_stacked_exp_warns_nothing_at_zero_and_tiny_vectors():
    # np.where drops 0 / 0 at a zero vector; the division must not warn,
    # and every element is the scalar _exp's, on either side of 1e-8 rad
    v = np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [1e-9, -3e-9, 2e-9],
                  [4e-9, 5e-9, -6e-9], [2e-8, 0.0, -1e-8], [0.3, -0.2, 0.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = so3._stacked_exp(*v.T)
    assert np.array(got).T.tobytes() == np.array([so3._exp(row) for row in v.tolist()]).tobytes()
