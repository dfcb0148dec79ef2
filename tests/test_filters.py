"""Filter-layer tests: nominal propagation, covariance chains, correction,
pseudo-derivatives, the streaming predictors, and the linear baseline."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import block_diag

from posecast import so3
from posecast.filters import (
    EskfPredictor,
    FilterConfig,
    KfBaseline,
    NominalState,
    Ticks,
    _chain_eye,
    _chain_matrix,
    _chain_update,
    _check_pose,
    correct,
    error_transition_matrix,
    estimate_pseudo_derivatives,
    make_predictor,
    predict_horizon,
    propagate_covariance,
    propagate_nominal,
)
from posecast.experiment import stream_picks
from posecast.traces import Pose, generate_synthetic_trace

import numpy_reference as ref

QID = np.array([1.0, 0.0, 0.0, 0.0])


def random_unit_quat(rng):
    return ref.quat_normalize(rng.normal(size=4))


def scaled_chain(k, n):
    """The identity chain of size n times k."""
    return tuple(k * c for c in _chain_eye(n))


def float_rows(a):
    """The rows of an array-like as a tuple of tuples of Python floats."""
    return tuple(map(tuple, np.asarray(a, dtype=float).tolist()))


def nominal(t, pos=np.zeros((4, 3)), q=QID, wvec=np.zeros((3, 3))):
    """A NominalState holding the given array rows as tuples of floats."""
    return NominalState(t, float_rows(pos), float_rows([q])[0], float_rows(wvec))


def cubic_position(c, t):
    """p(t) = c0 + c1 t + c2 t^2 + c3 t^3 for coefficient rows c (4, 3)."""
    return c[0] + c[1] * t + c[2] * t * t + c[3] * t ** 3


# ---------------------------------------------------------------- config

class TestFilterConfig:
    def test_variant_orders_and_error_dims(self):
        # the covariance dimension: the baseline's 14-dim linear state,
        # the error states' 3 (1 + ord_pos) + 3 (1 + ord_rot)
        expect = {"KF": (1, 1, 14), "ESKF": (1, 1, 12), "p2o2": (2, 2, 18),
                  "p2o3": (2, 3, 21), "p3o3": (3, 3, 24)}
        first = Pose(0.0, np.zeros(3), QID.copy())
        for name, (op, orot, dim) in expect.items():
            cfg = FilterConfig(model=name)
            P = make_predictor(cfg, first).P
            assert (cfg.ord_pos, cfg.ord_rot, P.shape) == (op, orot, (dim, dim))

    def test_model_names_canonicalize_case_insensitively(self):
        assert FilterConfig(model="P3O3").model == "p3o3"
        assert FilterConfig(model="kf").model == "KF"
        assert FilterConfig(model="Eskf").model == "ESKF"

    def test_rejects_unknown_model(self):
        # a name that is not a string is unknown too
        for model in ("ukf", None, 3, ("KF",)):
            with pytest.raises(ValueError, match="unknown model"):
                FilterConfig(model=model)

    def test_rejects_bad_numerics(self):
        with pytest.raises(ValueError):
            FilterConfig(dt=0.0)
        with pytest.raises(ValueError):
            FilterConfig(dt=-0.01)
        for dt in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                FilterConfig(dt=dt)
        with pytest.raises(ValueError):
            FilterConfig(horizon_steps=0)

    @pytest.mark.parametrize("model", ["KF", "ESKF", "p2o2", "p2o3", "p3o3"])
    def test_rejects_a_dt_too_long_for_the_transition(self, model):
        # past 2^341 s a step's dt^3 overflows: FilterConfig("p3o3", dt=1e200)
        # was accepted, and its first step raised OverflowError from _chain
        for dt in (1e200, np.nextafter(2.0 ** 341, np.inf)):
            with pytest.raises(ValueError, match=r"at most 2\^341 s"):
                FilterConfig(model, dt=dt, horizon_steps=2)
        trace = generate_synthetic_trace("medium", 0.3, seed=4)
        pred = make_predictor(FilterConfig(model, dt=2.0 ** 341, horizon_steps=2), trace.pose(0))
        for k in range(1, 5):
            try:
                pred.step(trace.pose(k))
            except ValueError as e:     # an increment math.sin refuses, as update refuses it
                assert str(e) == "math domain error"

    @pytest.mark.parametrize("dt", ["0.01", b"1", None, True])
    def test_rejects_dt_that_is_not_a_real_number(self, dt):
        # Python counts a bool as a number: dt=True used to give dt 1.0
        with pytest.raises(ValueError, match="^dt must be a real number"):
            FilterConfig(dt=dt)

    @pytest.mark.parametrize("dt", [1, np.float64(0.5), np.float32(0.5), Fraction(1, 2)])
    def test_dt_is_stored_as_float(self, dt):
        cfg = FilterConfig(dt=dt)
        assert type(cfg.dt) is float and cfg.dt == float(dt)

    @pytest.mark.parametrize("steps", [3, 3.0, np.int64(3), np.int32(3), np.float64(3.0)])
    def test_whole_horizon_steps_are_stored_as_int(self, steps):
        cfg = FilterConfig(horizon_steps=steps)
        assert type(cfg.horizon_steps) is int and cfg.horizon_steps == 3

    @pytest.mark.parametrize("steps", [2.5, np.float64(3.5), np.nan, np.inf, "3", None, True])
    def test_rejects_horizon_steps_that_are_not_whole(self, steps):
        # 2.5 used to be accepted: the error-state models rolled out 2
        # steps and the baseline raised TypeError on its first tick
        with pytest.raises(ValueError, match="horizon_steps must be a whole number"):
            FilterConfig(horizon_steps=steps)

    def test_frozen_so_every_value_passes_the_checks(self):
        # a value assigned after construction would skip the checks above
        cfg = FilterConfig(model="p3o3")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.horizon_steps = 2.5
        with pytest.raises(ValueError, match="horizon_steps must be a whole number"):
            dataclasses.replace(cfg, horizon_steps=2.5)
        assert dataclasses.replace(cfg, model="kf").model == "KF"
        # the predictor class and orders are resolved from the model when
        # the config is built, also by replace, and can only be read
        variant = dataclasses.replace(cfg, model="p2o3")
        assert (variant.ord_pos, variant.ord_rot, variant.min_window) == (2, 3, 4)
        assert variant.predictor is EskfPredictor
        assert FilterConfig(model="KF").predictor is KfBaseline
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.ord_pos = 2
        with pytest.raises(TypeError):
            FilterConfig(model="p3o3", ord_pos=2)


# ------------------------------------------------------- nominal kinematics

class TestNominalPropagation:
    def test_translation_follows_taylor_chain(self):
        pos = np.array([[1.0, 2.0, 3.0], [0.1, -0.2, 0.3],
                        [0.01, 0.02, -0.03], [0.001, -0.002, 0.003]])
        x = nominal(0.0, pos=pos)
        dt = 0.1
        y = propagate_nominal(x, dt, FilterConfig(model="p3o3"))
        p = pos[0] + pos[1] * dt + pos[2] * dt * dt / 2 + pos[3] * dt ** 3 / 6
        v = pos[1] + pos[2] * dt + pos[3] * dt * dt / 2
        a = pos[2] + pos[3] * dt
        np.testing.assert_allclose(y.pos[0], p, rtol=0, atol=1e-15)
        np.testing.assert_allclose(y.pos[1], v, rtol=0, atol=1e-15)
        np.testing.assert_allclose(y.pos[2], a, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(y.pos[3], x.pos[3])
        assert y.t == pytest.approx(dt)

    def test_orientation_matches_rotation_increment_steps(self):
        rng = np.random.default_rng(2)
        wvec = np.array([[0.4, -0.8, 1.1], [2.0, 0.5, -1.0], [5.0, -3.0, 1.5]])
        x = nominal(0.0, q=random_unit_quat(rng), wvec=wvec)
        dt = 0.01
        y3 = propagate_nominal(x, dt, FilterConfig(model="p3o3"))
        np.testing.assert_array_equal(
            y3.q, so3.zed23_step(x.q, x.wvec[0], x.wvec[1], 0.5 * wvec[2], dt))
        y2 = propagate_nominal(x, dt, FilterConfig(model="p2o2"))
        np.testing.assert_array_equal(
            y2.q, so3.zed12_step(x.q, x.wvec[0], x.wvec[1], dt))
        y1 = propagate_nominal(x, dt, FilterConfig(model="ESKF"))
        np.testing.assert_array_equal(
            y1.q, so3.zed12_step(x.q, x.wvec[0], np.zeros(3), dt))

    def test_propagate_rejects_bad_dt_and_leaves_input_alone(self):
        x = nominal(0.0, pos=[[0.0] * 3, [1.0, 0.0, 0.0], [0.0] * 3, [0.0] * 3])
        snapshot = NominalState(*x)
        cfg = FilterConfig()
        with pytest.raises(ValueError):
            propagate_nominal(x, 0.0, cfg)
        with pytest.raises(ValueError):
            propagate_nominal(x, -0.01, cfg)
        propagate_nominal(x, 0.01, cfg)
        np.testing.assert_array_equal(x.pos, snapshot.pos)
        assert x.t == snapshot.t

    @pytest.mark.parametrize("model", ["ESKF", "p2o2", "p2o3", "p3o3"])
    def test_horizon_is_chained_single_steps(self, model):
        rng = np.random.default_rng(5)
        cfg = FilterConfig(model=model)
        x = nominal(1.0, pos=rng.normal(size=(4, 3)) * 0.3, q=random_unit_quat(rng),
                    wvec=rng.normal(size=(3, 3)))
        pub = predict_horizon(x, 0.01, 5, cfg)
        y = x
        for _ in range(5):
            y = propagate_nominal(y, 0.01, cfg)
        np.testing.assert_array_equal(pub.p, y.pos[0])
        np.testing.assert_array_equal(pub.q, y.q)
        assert pub.t == pytest.approx(1.05)
        with pytest.raises(ValueError):
            predict_horizon(x, 0.01, 0, cfg)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, np.float64(np.nan)])
    def test_non_finite_dt_is_refused_not_propagated(self, dt):
        x = nominal(0.0, pos=[[0.0] * 3, [1.0, 0.0, 0.0], [0.0] * 3, [0.0] * 3])
        cfg = FilterConfig(model="p3o3")
        with pytest.raises(ValueError, match="finite and positive"):
            propagate_nominal(x, dt, cfg)
        with pytest.raises(ValueError, match="finite and positive"):
            predict_horizon(x, dt, 3, cfg)

    @pytest.mark.parametrize("dt", [1e200, np.nextafter(2.0 ** 341, np.inf), 2.0 ** 1023])
    def test_a_dt_too_long_for_the_transition_is_refused_not_overflowed(self, dt):
        # the bound update puts on a tick interval: dt^3 / 6 overflows past it
        x = nominal(0.0, pos=[[0.0] * 3, [1.0, 0.0, 0.0], [0.0] * 3, [0.0] * 3])
        cfg = FilterConfig(model="p3o3")
        with pytest.raises(ValueError, match=r"at most 2\^341 s"):
            propagate_nominal(x, dt, cfg)
        with pytest.raises(ValueError, match=r"at most 2\^341 s"):
            predict_horizon(x, dt, 3, cfg)
        assert predict_horizon(x, 2.0 ** 341, 3, cfg).t == 3 * 2.0 ** 341

    @pytest.mark.parametrize("n", [2.5, "3", 3 + 0j, None])
    def test_horizon_refuses_a_step_count_that_is_not_whole(self, n):
        x = nominal(0.0, pos=[[0.0] * 3, [1.0, 0.0, 0.0], [0.0] * 3, [0.0] * 3])
        rollout = []
        with pytest.raises(ValueError, match="whole number"):
            predict_horizon(x, 0.01, n, FilterConfig(), rollout)
        assert rollout == []

    @pytest.mark.parametrize("n", [3.0, np.int64(3), np.float64(3.0)])
    def test_horizon_takes_any_whole_step_count(self, n):
        x = nominal(0.0, pos=[[0.0] * 3, [1.0, 0.0, 0.0], [0.0] * 3, [0.0] * 3])
        cfg = FilterConfig(model="p3o3")
        a, b = [], []
        pub = predict_horizon(x, 0.01, n, cfg, a)
        ref_pub = predict_horizon(x, 0.01, 3, cfg, b)
        assert a == b and len(a) == 3
        assert pub.t == ref_pub.t
        np.testing.assert_array_equal(pub.p, ref_pub.p)


# -------------------------------------------------------- error transition

class TestErrorTransition:
    def test_identity_at_zero_dt(self):
        # T = I at dt = 0, so every chain propagates to T S T^T + I = S + I
        assert error_transition_matrix(0.0) == (0.0, 0.0, 0.0)
        for n in (2, 3, 4):
            np.testing.assert_array_equal(
                _chain_matrix(propagate_covariance(_chain_eye(n), n,
                                                   error_transition_matrix(0.0)), n),
                2 * np.eye(n))

    def test_block_structure(self):
        # T's entries are the Taylor couplings dt^k / k! of its
        # superdiagonals, and a chain of size n keeps the rows past n zero
        dt = 0.02
        T = error_transition_matrix(dt)
        np.testing.assert_allclose(T, ref.taylor_chain(4, dt)[0, 1:], rtol=1e-15)
        rng = np.random.default_rng(13)
        for n in (2, 3, 4):
            A = rng.normal(size=(n, n))
            s = tuple(np.pad(A @ A.T, (0, 4 - n))[np.triu_indices(4)].tolist())
            out = _chain_matrix(propagate_covariance(s, n, T), 4)
            assert not out[n:].any() and not out[:, n:].any()

    def test_covariance_propagation_formula(self):
        # unit process noise, Q = I, for each chain size: the jerk chain
        # and the shorter ones the acceleration and velocity models keep
        rng = np.random.default_rng(9)
        for dt in (0.01, 0.3):
            T = error_transition_matrix(dt)
            for n in (2, 3, 4):
                A = rng.normal(size=(n, n))
                S = A @ A.T
                s = tuple(np.pad(S, (0, 4 - n))[np.triu_indices(4)].tolist())
                F = ref.taylor_chain(n, dt)
                np.testing.assert_allclose(_chain_matrix(propagate_covariance(s, n, T), n),
                                           F @ S @ F.T + np.eye(n), rtol=1e-14, atol=1e-15)


# ------------------------------------------------------------- correction

def _correct(x, chain, att_chain, z):
    """correct at the first gains of both chains, updated as update
    updates them; returns the corrected state and the two chains."""
    chain, g, _ = _chain_update(chain)
    att_chain, k, _ = _chain_update(att_chain)
    p, q = correct(x.pos[0], x.q, *_check_pose(z), g, k)
    return x._replace(pos=(p, *x.pos[1:]), q=q), chain, att_chain


class TestCorrection:
    def test_identity_prior_halves_measured_variance(self):
        # chains of p3o3: 4 entries for position and for attitude
        x = NominalState.at_pose(Pose(0.0, np.zeros(3), QID.copy()))
        z = Pose(0.0, np.array([1e-3, -2e-3, 3e-3]), so3.quat_exp([2e-3, 0.0, -1e-3]))
        x2, chain, att_chain = _correct(x, _chain_eye(4), _chain_eye(4), z)
        np.testing.assert_allclose(x2.pos[0], 0.5 * z.p, atol=1e-15)
        np.testing.assert_allclose(so3.quat_log(x2.q), [1e-3, 0.0, -5e-4], atol=1e-15)
        for s in (chain, att_chain):
            S = _chain_matrix(s, 4)
            np.testing.assert_allclose(S[0, 0], 0.5, atol=1e-12)
            # unmeasured rows keep their prior variance
            np.testing.assert_allclose(np.diag(S)[1:4], 1.0, atol=1e-12)

    def test_infinite_measurement_noise_is_a_no_op(self):
        rng = np.random.default_rng(4)
        # chains of p2o2: 3 entries for position and for attitude
        p, q = rng.normal(size=3), random_unit_quat(rng)
        x = NominalState.at_pose(Pose(0.0, p, q))
        z = Pose(0.0, p + 0.01, ref.quat_normalize(q + 0.01))
        # the noise is fixed at I, so a prior of 1e-15 I puts it 1e15
        # times above the prior, the gain of R = 1e15 I over P = I
        x2, chain, att_chain = _correct(x, scaled_chain(1e-15, 3), scaled_chain(1e-15, 3), z)
        assert np.abs(x2.pos[0] - p).max() < 1e-12
        assert so3.geodesic_distance(x2.q, x.q) < 1e-12
        for s in (chain, att_chain):
            np.testing.assert_allclose(1e15 * _chain_matrix(s, 3), np.eye(3), atol=1e-12)

    def test_diffuse_prior_lands_on_the_measurement(self):
        # a gain of 1 - 1e-10 injects the whole residual, on the right
        rng = np.random.default_rng(7)
        # chains of p3o3: 4 entries for position and for attitude
        x = NominalState.at_pose(
            Pose(0.0, np.array([0.1, 0.2, 0.3]), random_unit_quat(rng)))
        z = Pose(0.0, np.array([0.4, -0.1, 0.2]), random_unit_quat(rng))
        x2, _, _ = _correct(x, scaled_chain(1e10, 4), scaled_chain(1e10, 4), z)
        assert np.linalg.norm(x2.pos[0] - z.p) < 1e-8
        assert so3.geodesic_distance(x2.q, z.q) < 1e-8

    def test_rotational_innovation_is_left_invariant(self):
        rng = np.random.default_rng(11)
        # chains of ESKF: 2 entries for position and for attitude
        q = random_unit_quat(rng)
        zq = random_unit_quat(rng)
        L = random_unit_quat(rng)
        x_a = NominalState.at_pose(Pose(0.0, np.zeros(3), q))
        x_b = NominalState.at_pose(Pose(0.0, np.zeros(3), so3.quat_multiply(L, q)))
        z_a = Pose(0.0, np.zeros(3), zq)
        z_b = Pose(0.0, np.zeros(3), so3.quat_multiply(L, zq))
        xa2, _, _ = _correct(x_a, _chain_eye(2), _chain_eye(2), z_a)
        xb2, _, _ = _correct(x_b, _chain_eye(2), _chain_eye(2), z_b)
        # identical residuals imply identical injected corrections
        rel_a = so3.quat_multiply(ref.quat_conjugate(x_a.q), xa2.q)
        rel_b = so3.quat_multiply(ref.quat_conjugate(x_b.q), xb2.q)
        assert so3.geodesic_distance(rel_a, rel_b) < 1e-10
        np.testing.assert_allclose(xa2.wvec, xb2.wvec, atol=1e-10)


# ------------------------------------------------------ pseudo-derivatives

class TestPseudoDerivatives:
    cfg3 = FilterConfig(model="p3o3")

    def test_needs_at_least_two_poses(self):
        w = [Pose(0.0, np.zeros(3), QID.copy())]
        assert estimate_pseudo_derivatives(ref.window_nodes(w), self.cfg3) is None

    def test_stationary_stream_gives_zeros(self):
        p = np.array([0.3, -0.1, 0.2])
        q = so3.quat_exp(np.array([0.1, 0.2, -0.3]))
        w = [Pose(0.01 * k, p.copy(), q.copy()) for k in range(5)]
        pos_d, rot_d = estimate_pseudo_derivatives(ref.window_nodes(w), self.cfg3)
        assert np.abs(pos_d).max() < 1e-12
        assert np.abs(rot_d).max() < 1e-12

    def test_linear_motion_recovers_velocity(self):
        v = np.array([0.5, -0.2, 0.1])
        w = [Pose(0.01 * k, v * 0.01 * k, QID.copy()) for k in range(4)]
        pos_d, _ = estimate_pseudo_derivatives(ref.window_nodes(w), self.cfg3)
        np.testing.assert_allclose(pos_d[0], v, atol=1e-12)
        assert np.abs(pos_d[1:]).max() < 1e-9

    def test_cubic_motion_exact_on_nonuniform_timestamps(self):
        c = np.array([[0.1, -0.2, 0.05], [0.5, 0.3, -0.4],
                      [-1.2, 0.8, 0.6], [2.0, -1.0, 0.9]])
        dts = np.array([0.009, 0.011, 0.0105, 0.0095, 0.01, 0.012])
        ts = np.concatenate([[2.0], 2.0 + np.cumsum(dts)])
        w = [Pose(t, cubic_position(c, t), QID.copy()) for t in ts]
        pos_d, _ = estimate_pseudo_derivatives(ref.window_nodes(w), self.cfg3)
        t0 = ts[-1]
        np.testing.assert_allclose(
            pos_d[0], c[1] + 2 * c[2] * t0 + 3 * c[3] * t0 * t0, atol=1e-10)
        np.testing.assert_allclose(pos_d[1], 2 * c[2] + 6 * c[3] * t0, atol=1e-8)
        np.testing.assert_allclose(pos_d[2], 6 * c[3], atol=1e-6)

    def test_constant_rate_rotation(self):
        axis = np.array([0.6, 0.0, 0.8])
        rate = 0.8
        w = [Pose(0.01 * k, np.zeros(3), so3.quat_exp(axis * rate * 0.01 * k))
             for k in range(5)]
        _, rot_d = estimate_pseudo_derivatives(ref.window_nodes(w), self.cfg3)
        np.testing.assert_allclose(rot_d[0], axis * rate, atol=1e-10)
        assert np.abs(rot_d[1:]).max() < 1e-9

    def test_linear_rate_midpoint_semantics(self):
        # pairwise log-differences estimate the rate at the pair midpoint,
        # so the newest rate reads dt/2 behind the endpoint; its slope is exact
        axis = np.array([0.0, 0.0, 1.0])
        w0, w1, dt = 0.6, 1.5, 0.01
        ts = 1.0 + dt * np.arange(6)
        poses = [Pose(t, np.zeros(3),
                      so3.quat_exp(axis * (w0 * t + 0.5 * w1 * t * t)))
                 for t in ts]
        _, rot_d = estimate_pseudo_derivatives(ref.window_nodes(poses), self.cfg3)
        np.testing.assert_allclose(
            rot_d[0], axis * (w0 + w1 * (ts[-1] - dt / 2)), atol=1e-10)
        np.testing.assert_allclose(rot_d[1], axis * w1, atol=1e-10)
        assert np.abs(rot_d[2]).max() < 1e-8

    def test_rows_above_variant_order_stay_zero(self):
        c = np.array([[0.0, 0.0, 0.0], [0.5, 0.3, -0.4],
                      [-1.2, 0.8, 0.6], [2.0, -1.0, 0.9]])
        ts = 0.01 * np.arange(6)
        axis = np.array([0.0, 1.0, 0.0])
        poses = [Pose(t, cubic_position(c, t),
                      so3.quat_exp(axis * (0.4 * t + 0.9 * t * t)))
                 for t in ts]
        pos_d, rot_d = estimate_pseudo_derivatives(
            ref.window_nodes(poses), FilterConfig(model="p2o2"))
        assert np.abs(pos_d[2]).max() == 0.0     # no jerk row for ord 2
        assert np.abs(rot_d[2]).max() == 0.0
        assert np.abs(pos_d[1]).max() > 0.1      # acceleration is live
        pos_d, rot_d = estimate_pseudo_derivatives(
            ref.window_nodes(poses), FilterConfig(model="ESKF"))
        assert np.abs(pos_d[1:]).max() == 0.0
        assert np.abs(rot_d[1:]).max() == 0.0

    def test_ramp_up_uses_what_fits(self):
        v = np.array([1.0, 0.0, 0.0])
        w = [Pose(0.00, np.zeros(3), QID.copy()),
             Pose(0.01, v * 0.01, QID.copy())]
        pos_d, _ = estimate_pseudo_derivatives(ref.window_nodes(w), self.cfg3)
        np.testing.assert_allclose(pos_d[0], v, atol=1e-12)
        assert np.abs(pos_d[1:]).max() == 0.0    # stencil too short, stays zero


# ------------------------------------------------------- polynomial limits

class TestPolynomialBehavior:
    def test_higher_variant_nests_to_lower_without_commutator(self):
        # with jerk rows zeroed and parallel rate derivatives the
        # third-order rotation increment collapses to the second-order one
        w0 = np.array([0.3, -0.5, 0.8])
        x = nominal(0.0, pos=[[0.1, 0.2, 0.3], [0.5, -0.2, 0.1], [1.0, 0.4, -0.6],
                              [0.0] * 3],
                    wvec=[w0, 1.7 * w0, [0.0] * 3])
        p3 = predict_horizon(x, 0.01, 10, FilterConfig(model="p3o3"))
        p2 = predict_horizon(x, 0.01, 10, FilterConfig(model="p2o2"))
        assert np.abs(p3.p - p2.p).max() < 1e-9
        assert so3.geodesic_distance(p3.q, p2.q) < 1e-9

    def test_orientation_order_does_not_touch_position(self):
        rng = np.random.default_rng(21)
        x = nominal(0.0, pos=rng.normal(size=(4, 3)), wvec=rng.normal(size=(3, 3)))
        pa = predict_horizon(x, 0.01, 10, FilterConfig(model="p2o3"))
        pb = predict_horizon(x, 0.01, 10, FilterConfig(model="p2o2"))
        np.testing.assert_array_equal(pa.p, pb.p)

    def test_cubic_trajectory_is_predicted_exactly(self):
        # true-derivative initialization, 100 ms horizon: the position
        # chain is an exact integrator for polynomials of its own degree
        c = np.array([[0.05, -0.02, 0.01], [0.3, 0.2, -0.1],
                      [0.8, -0.5, 0.4], [1.5, 1.0, -0.7]])
        cfg = FilterConfig(model="p3o3", dt=0.01, horizon_steps=10)
        t0 = 0.5
        x = nominal(t0, pos=[cubic_position(c, t0),
                             c[1] + 2 * c[2] * t0 + 3 * c[3] * t0 * t0,
                             2 * c[2] + 6 * c[3] * t0,
                             6 * c[3]])
        pub = predict_horizon(x, cfg.dt, cfg.horizon_steps, cfg)
        truth = cubic_position(c, t0 + 0.1)
        assert np.linalg.norm(pub.p - truth) < 1e-9


# ---------------------------------------------------- streaming predictor

class TestEskfPredictor:
    def make_stream(self, n, seed=3):
        rng = np.random.default_rng(seed)
        poses = []
        for k in range(n):
            t = 0.01 * k
            p = np.array([0.05 * np.sin(2 * t), 0.04 * np.cos(3 * t), 0.02 * t])
            q = so3.quat_exp(np.array([0.1 * np.sin(t), 0.0, 0.2 * t]))
            poses.append(Pose(t, p, q))
        return poses

    def test_rejects_stale_timestamps_without_corrupting_state(self):
        zs = self.make_stream(3)
        pred = EskfPredictor(FilterConfig(model="p2o2"), zs[0])
        pred.step(zs[1])
        x_snap, P_snap = pred.x, pred.P.copy()
        with pytest.raises(ValueError, match="does not advance"):
            pred.step(zs[1])
        with pytest.raises(ValueError, match="does not advance"):
            pred.step(Pose(zs[1].t - 0.01, zs[1].p, zs[1].q))
        np.testing.assert_array_equal(pred.x.pos, x_snap.pos)
        np.testing.assert_array_equal(pred.P, P_snap)
        pred.step(zs[2])                          # stream continues cleanly

    def test_dropped_tick_equals_open_loop_propagation(self):
        zs = self.make_stream(3)
        cfg = FilterConfig(model="p3o3")
        pred = EskfPredictor(cfg, zs[0])
        pred.step(zs[1], received=True)
        x_snap, P_snap, att_snap = pred.x, pred.P.copy(), pred.att_chain
        win_len = len(pred.window)
        pub = pred.step(zs[2], received=False)
        x_ol = propagate_nominal(x_snap, 0.01, cfg)
        pub_ol = predict_horizon(x_ol, cfg.dt, cfg.horizon_steps, cfg)
        np.testing.assert_array_equal(pub.p, pub_ol.p)
        np.testing.assert_array_equal(pub.q, pub_ol.q)
        # the whole covariance propagates open loop: F P F^T + I, both
        # blocks by the Taylor chain on every axis
        T = np.kron(ref.taylor_chain(4, 0.01), np.eye(3))
        P_ol = block_diag(T @ P_snap[:12, :12] @ T.T + np.eye(12),
                          T @ P_snap[12:, 12:] @ T.T + np.eye(12))
        np.testing.assert_allclose(pred.P, P_ol, rtol=1e-14, atol=1e-15)
        assert pred.att_chain == propagate_covariance(att_snap, 4, error_transition_matrix(0.01))
        assert len(pred.window) == win_len        # window frozen during drops

    def test_long_run_keeps_covariance_and_quaternions_sane(self):
        trace = generate_synthetic_trace("medium", duration_s=6.5, seed=11)
        cfg = FilterConfig(model="p3o3")
        pred = EskfPredictor(cfg, Pose(trace.t[0], trace.p[0], trace.q[0]))
        drop_rng = np.random.default_rng(5)
        for k in range(1, 601):
            z = Pose(trace.t[k], trace.p[k], trace.q[k])
            pub = pred.step(z, received=bool(drop_rng.random() > 0.3))
            assert abs(np.linalg.norm(pub.q) - 1.0) < 1e-9
            assert np.isfinite(pub.p).all()
        assert np.abs(pred.P - pred.P.T).max() < 1e-10
        assert np.linalg.eigvalsh(pred.P)[0] > 0.0

    def test_init_filter_shapes(self):
        # identity initial covariance of the model's dimension; unit
        # process noise: one coasted tick of a vanishing dt at rest adds I
        # to the prior
        first = Pose(0.0, np.zeros(3), QID.copy())
        for name, dim in (("KF", 14), ("ESKF", 12), ("p2o2", 18), ("p2o3", 21),
                          ("p3o3", 24)):
            pred = make_predictor(FilterConfig(model=name), first)
            np.testing.assert_array_equal(pred.P, np.eye(dim))
            assert (pred.t if name == "KF" else pred.x.t) == 0.0
            pred.step(Pose(1e-300, np.zeros(3), QID.copy()), received=False)
            np.testing.assert_allclose(pred.P, 2 * np.eye(dim), rtol=0, atol=1e-250)

    def test_make_predictor_dispatch(self):
        first = Pose(0.0, np.zeros(3), QID.copy())
        assert isinstance(make_predictor(FilterConfig(model="KF"), first), KfBaseline)
        assert isinstance(make_predictor(FilterConfig(model="p2o2"), first),
                          EskfPredictor)
        with pytest.raises(ValueError):
            EskfPredictor(FilterConfig(model="KF"), first)
        with pytest.raises(ValueError):
            KfBaseline(FilterConfig(model="p3o3"), first)


# --------------------------------------------------------- linear baseline

class TestKfBaseline:
    cfg = FilterConfig(model="KF", dt=0.01, horizon_steps=10)

    def test_stationary_measurements_converge(self):
        p0 = np.array([0.3, -0.1, 0.2])
        kf = KfBaseline(self.cfg, Pose(0.0, np.zeros(3), QID.copy()))
        for k in range(1, 1500):
            pub = kf.step(Pose(0.01 * k, p0.copy(), QID.copy()))
        assert np.linalg.norm(pub.p - p0) < 1e-6

    def test_constant_velocity_tracks_below_a_millimeter(self):
        v = np.array([0.5, -0.2, 0.1])
        kf = KfBaseline(self.cfg, Pose(0.0, np.zeros(3), QID.copy()))
        for k in range(1, 1200):
            t = 0.01 * k
            pub = kf.step(Pose(t, v * t, QID.copy()))
        assert 1e3 * np.linalg.norm(pub.p - v * (t + 0.1)) < 1.0

    def test_true_state_lag_matches_the_constant_velocity_closed_form(self):
        # with the true position and velocity in the state, the published
        # pose trails a 1 m/s^2 trajectory by exactly the curvature term
        # 0.5 * a * T^2 the first-order model cannot represent
        a = np.array([1.0, 0.0, 0.0])
        t0 = 2.0
        kf = KfBaseline(self.cfg, Pose(t0, 0.5 * a * t0 * t0, QID.copy()))
        kf.x = (kf.x[0], tuple((a * t0).tolist()), *kf.x[2:])
        for k in range(1, 4):
            t = t0 + 0.01 * k
            pub = kf.step(Pose(t, np.zeros(3), QID.copy()), received=False)
            lag_mm = 1e3 * np.linalg.norm(pub.p - 0.5 * a * (t + 0.1) ** 2)
            expect_mm = 1e3 * 0.5 * (0.1 + 0.01 * k) ** 2
            assert lag_mm == pytest.approx(expect_mm, abs=1e-9)
        # one tick past true initialization sits inside 5 mm +- 50%
        assert 2.5 < 1e3 * 0.5 * 0.11 ** 2 < 7.5

    def test_closed_loop_velocity_lag_is_large_by_design(self):
        # identity process noise keeps the innovation-driven velocity loop
        # slow; this gap is what the derivative-refreshing variants close
        a = np.array([1.0, 0.0, 0.0])
        kf = KfBaseline(self.cfg, Pose(0.0, np.zeros(3), QID.copy()))
        for k in range(1, 3000):
            t = 0.01 * k
            pub = kf.step(Pose(t, 0.5 * a * t * t, QID.copy()))
        lag_mm = 1e3 * np.linalg.norm(pub.p - 0.5 * a * (t + 0.1) ** 2)
        assert 50.0 < lag_mm < 200.0

    def test_quaternion_output_stays_unit_under_sign_flips(self):
        rng = np.random.default_rng(17)
        axis = np.array([0.0, 0.0, 1.0])
        kf = KfBaseline(self.cfg, Pose(0.0, np.zeros(3), QID.copy()))
        for k in range(1, 400):
            t = 0.01 * k
            q = so3.quat_exp(axis * 1.5 * t)
            if rng.random() < 0.5:
                q = -q                           # antipodal measurement sign
            pub = kf.step(Pose(t, np.zeros(3), q))
            assert abs(np.linalg.norm(pub.q) - 1.0) < 1e-12
        # estimate stays on the continuous branch near the aligned truth
        assert so3.geodesic_distance(pub.q, so3.quat_exp(axis * 1.5 * t)) < 0.2

    def test_rejects_stale_timestamps(self):
        kf = KfBaseline(self.cfg, Pose(0.0, np.zeros(3), QID.copy()))
        kf.step(Pose(0.01, np.zeros(3), QID.copy()))
        with pytest.raises(ValueError, match="does not advance"):
            kf.step(Pose(0.01, np.zeros(3), QID.copy()))


# ---------------------------------------------------------------- rollout

@pytest.mark.parametrize("model", ["KF", "ESKF", "p2o2", "p2o3", "p3o3"])
def test_rollout_prefix_matches_shorter_horizon(model):
    # filter state never depends on the horizon, so the stacked forecast of
    # a long-horizon predictor's states at step n is, bit for bit, what a
    # horizon-n one publishes on each tick
    trace = generate_synthetic_trace("hard", 3.0, seed=8)
    mask = np.random.default_rng(3).random(len(trace)) > 0.4
    long_n = 10
    preds = {n: make_predictor(FilterConfig(model=model, dt=0.01, horizon_steps=n),
                               trace.pose(0))
             for n in (1, 2, 5, long_n)}
    states, pubs = [], []
    for k in range(1, len(trace)):
        pubs.append({n: pred.step(trace.pose(k), received=bool(mask[k]))
                     for n, pred in preds.items()})
        states.append(preds[long_n].x)
    rollout = preds[long_n].forecasts(states, range(1, long_n + 1))
    assert len(rollout) == long_n
    for j, tick in enumerate(pubs):
        for n, pub in tick.items():
            p, q = np.split(rollout[n - 1][j], [3])
            assert np.array_equal(p, pub.p)
            assert np.array_equal(q, pub.q)


def test_predict_horizon_rollout_list():
    x = nominal(0.0, pos=[[0.0] * 3, [0.3, -0.1, 0.2], [0.0] * 3, [0.0] * 3],
                wvec=[[0.5, 1.0, -0.4], [0.0] * 3, [0.0] * 3])
    cfg = FilterConfig(model="p2o2")
    rollout = []
    pub = predict_horizon(x, 0.01, 4, cfg, rollout)
    assert len(rollout) == 4
    assert np.array_equal(rollout[-1][0], pub.p)
    assert np.array_equal(rollout[-1][1], pub.q)
    for n, (p, q) in enumerate(rollout, start=1):
        direct = predict_horizon(x, 0.01, n, cfg)
        assert np.array_equal(p, direct.p)
        assert np.array_equal(q, direct.q)


# ------------------------------------------------------ non-finite input

def _filter_state(pred):
    if isinstance(pred, KfBaseline):
        return [pred.t, pred.x, pred.chain]
    x = pred.x                 # immutable: a later step rebinds, never edits it
    return [x.t, x.pos, x.q, x.wvec, pred.chain, pred.att_chain,
            [(t, p, q, w) for t, p, q, w in pred.window]]


def _assert_same(a, b):
    assert len(a) == len(b)
    for u, v in zip(a, b):
        if isinstance(u, list):
            _assert_same(u, v)
        elif isinstance(u, tuple):
            _assert_same(list(u), list(v))
        else:
            assert np.array_equal(u, v)


def _assert_rejected_before_any_state_changes(model, spoil, match):
    """Tick 20 of a stream, spoiled, raises and leaves no trace in the filter."""
    trace = generate_synthetic_trace("medium", 1.0, seed=4)
    cfg = FilterConfig(model=model, dt=0.01, horizon_steps=5)
    pred = make_predictor(cfg, trace.pose(0))
    twin = make_predictor(cfg, trace.pose(0))
    for k in range(1, 20):
        pred.step(trace.pose(k))
        twin.step(trace.pose(k))
    before = _filter_state(pred)
    bad = trace.pose(20)
    spoil(bad)
    with pytest.raises(ValueError, match=match):
        pred.step(bad)
    _assert_same(_filter_state(pred), before)
    # the stream continues as if the bad packet had never arrived
    for k in range(20, 30):
        pub = pred.step(trace.pose(k))
        ref = twin.step(trace.pose(k))
        assert np.array_equal(pub.p, ref.p) and np.array_equal(pub.q, ref.q)
    _assert_same(_filter_state(pred), _filter_state(twin))


@pytest.mark.parametrize("model", ["KF", "p3o3"])
@pytest.mark.parametrize("field, value", [("p", np.nan), ("q", np.nan),
                                          ("p", np.inf), ("t", np.nan)])
def test_non_finite_measurement_is_rejected_before_any_state_changes(model, field, value):
    def spoil(z):
        if field == "t":
            z.t = value
        else:
            getattr(z, field)[1] = value
    _assert_rejected_before_any_state_changes(model, spoil, "not finite")


@pytest.mark.parametrize("model", ["KF", "p3o3"])
def test_non_unit_quaternion_is_rejected_before_any_state_changes(model):
    # the ESKF's log map would refuse it only after propagating, and the
    # baseline would renormalize it silently
    def spoil(z):
        z.q *= 1.01
    _assert_rejected_before_any_state_changes(model, spoil, "not within 1e-6 of unit")


@pytest.mark.parametrize("model", ["KF", "p3o3"])
@pytest.mark.parametrize("field, value", [("p", np.nan), ("q", np.inf),
                                          ("t", np.nan), ("t", -np.inf)])
def test_non_finite_first_pose_is_refused(model, field, value):
    # a NaN in pose 0 would otherwise reach every later published pose
    first = generate_synthetic_trace("medium", 0.2, seed=4).pose(0)
    if field == "t":
        first.t = value
    else:
        getattr(first, field)[1] = value
    with pytest.raises(ValueError, match="is not finite"):
        make_predictor(FilterConfig(model=model), first)


@pytest.mark.parametrize("model", ["KF", "p3o3"])
def test_non_unit_first_quaternion_is_refused(model):
    first = generate_synthetic_trace("medium", 0.2, seed=4).pose(0)
    first.q *= 1.01
    with pytest.raises(ValueError, match="not within 1e-6 of unit"):
        make_predictor(FilterConfig(model=model), first)


@pytest.mark.parametrize("model", ["KF", "p3o3"])
def test_quaternion_within_the_unit_tolerance_is_accepted(model):
    trace = generate_synthetic_trace("medium", 1.0, seed=4)
    pred = make_predictor(FilterConfig(model=model, dt=0.01, horizon_steps=5),
                          trace.pose(0))
    z = trace.pose(1)
    z.q *= 1.0 + 5e-7
    assert np.isfinite(pred.step(z).q).all()


@pytest.mark.parametrize("model", ["KF", "p3o3"])
def test_lost_packet_pose_is_never_read(model):
    # a dropped tick only advances time, so its pose may be a NaN placeholder
    trace = generate_synthetic_trace("medium", 1.0, seed=4)
    cfg = FilterConfig(model=model, dt=0.01, horizon_steps=5)
    pred = make_predictor(cfg, trace.pose(0))
    twin = make_predictor(cfg, trace.pose(0))
    placeholder = Pose(trace.t[1], np.full(3, np.nan), np.full(4, np.nan))
    pub = pred.step(placeholder, received=False)
    ref = twin.step(trace.pose(1), received=False)
    assert np.array_equal(pub.p, ref.p) and np.array_equal(pub.q, ref.q)


# ------------------------------------------- a whole stream at once (_track)

def _spoiled_stream(spoil=None, k=25):
    """The first pose and ticks 1..59 of a medium stream, every tick
    received but 30 and 31, with spoil applied to tick k."""
    trace = generate_synthetic_trace("medium", 0.6, seed=4)
    poses = [trace.pose(k) for k in range(len(trace))]
    if spoil:
        spoil(poses, k)
    return poses, [k not in (30, 31) for k in range(1, len(poses))]


def _outcome(pred, run):
    """run(pred)'s error text, or None, and the filter it leaves."""
    try:
        run(pred)
        error = None
    except ValueError as e:
        error = str(e)
    return error, _filter_state(pred)


def _tracked(cfg, poses, mask):
    """A fresh predictor's stream over the poses after the first, a group
    of one of its class's _track: its states, or the ValueError raised."""
    pred = make_predictor(cfg, poses[0])
    states, (error,) = type(pred)._track([pred], Ticks(poses[1:], poses[0]), [mask])
    if error:
        raise error
    return states


def _track_error(cfg, poses, mask):
    try:
        _tracked(cfg, poses, mask)
    except ValueError as e:
        return str(e)


def _update_loop(poses, mask):
    def run(pred):
        for z, received in zip(poses, mask):
            pred.update(z, received)
    return run


def _off_unit_pair(poses, k):
    # ticks k and k + 1 are each within the tolerance; their product is not
    for z in poses[k:k + 2]:
        z.q *= 1.0 + 9e-7


def _off_unit_pose_in_a_unit_pair(poses, k):
    # tick k is off unit, its product with tick k - 1 is not: only the
    # pose check refuses it
    poses[k - 1].q *= 1.0 - 9e-7
    poses[k].q *= 1.0 + 1.5e-6


_REFUSALS = {
    "stale timestamp": (lambda poses, k: setattr(poses[k], "t", poses[k - 1].t),
                        "does not advance"),
    "NaN timestamp": (lambda poses, k: setattr(poses[k], "t", np.nan),
                      "timestamp nan is not finite"),
    "far timestamp": (lambda poses, k: setattr(poses[k], "t", 1e150),
                      "too far for the transition"),
    "non-finite pose": (lambda poses, k: poses[k].p.__setitem__(1, np.inf), "is not finite"),
    "off-unit pose": (lambda poses, k: poses[k].q.__imul__(1.01), "not within 1e-6 of unit"),
    "off-unit pair": (_off_unit_pair, "quaternion norm 1.0000018 is not within 1e-6 of unit"),
    "off-unit pose in a unit pair": (_off_unit_pose_in_a_unit_pair,
                                     "t = 0.25: quaternion norm 1.0000015 is not within"),
}


@pytest.mark.parametrize("model", ["ESKF", "p2o2", "p2o3", "p3o3"])
def test_a_tick_the_window_refuses_leaves_the_filter_as_it_was(model):
    # ticks 20 and 21 are each within 1e-6 of unit and their pair is not:
    # update refuses tick 21 at the window, after the interval, the pose
    # and the correction's log have passed, and changes nothing
    trace = generate_synthetic_trace("medium", 2.0, seed=1)
    poses = [trace.pose(k) for k in range(len(trace))]
    _off_unit_pair(poses, 20)
    pred = make_predictor(FilterConfig(model=model, dt=0.01, horizon_steps=5), poses[0])
    for z in poses[1:21]:
        pred.update(z)
    before = repr(_filter_state(pred))
    with pytest.raises(ValueError, match="quaternion norm 1.0000018 is not within 1e-6"):
        pred.update(poses[21])
    assert repr(_filter_state(pred)) == before
    assert pred.x.t == 0.2


@pytest.mark.parametrize("model, gap, tick, message", [
    *((m, 1e-20, 2, "leaves two window nodes at one offset") for m in ("p2o2", "p2o3", "p3o3")),
    *((m, 5e-324, 1, "body rate is not finite") for m in ("ESKF", "p2o2", "p2o3", "p3o3"))])
def test_near_coincident_received_timestamps_are_refused_before_anything_is_assigned(
        model, gap, tick, message):
    # pose 1 lies a hair past pose 0: 5e-324 s makes their pair's rate
    # infinite, and 1e-20 s puts both at one offset from tick 2, which the
    # stencils of order 2 and up divide by
    trace = generate_synthetic_trace("hard", 0.6, seed=4)
    poses = [trace.pose(k) for k in range(len(trace))]
    poses[1] = Pose(poses[0].t + gap, poses[1].p, poses[1].q)
    pred = make_predictor(FilterConfig(model=model, dt=0.01, horizon_steps=5), poses[0])
    for z in poses[1:tick]:
        pred.update(z)
    before = repr(_filter_state(pred))
    with pytest.raises(ValueError, match=message):
        pred.update(poses[tick])
    assert repr(_filter_state(pred)) == before


@pytest.mark.parametrize("model", ["KF", "ESKF", "p2o2", "p2o3", "p3o3"])
@pytest.mark.parametrize("tick", ["update", "step"])
def test_a_tick_too_far_for_the_transition_is_refused_before_anything_is_assigned(model, tick):
    # 1e150 s on, the interval's cube overflows
    trace = generate_synthetic_trace("medium", 0.3, seed=4)
    pred = make_predictor(FilterConfig(model=model, dt=0.01, horizon_steps=5), trace.pose(0))
    for k in range(1, 10):
        getattr(pred, tick)(trace.pose(k))
    before = repr(_filter_state(pred))
    far = trace.pose(10)
    far.t = 1e150
    with pytest.raises(ValueError, match="lies 1e[+]150 s past 0.09, too far for the transition"):
        getattr(pred, tick)(far)
    assert repr(_filter_state(pred)) == before


@pytest.mark.parametrize("model", ["KF", "ESKF", "p2o2", "p2o3", "p3o3"])
@pytest.mark.parametrize("refusal", sorted(_REFUSALS))
def test_track_refuses_what_update_refuses_at_the_same_tick(model, refusal):
    # the error text is the update loop's
    spoil, message = _REFUSALS[refusal]
    poses, mask = _spoiled_stream(spoil)
    cfg = FilterConfig(model=model, dt=0.01, horizon_steps=5)
    expect, _ = _outcome(make_predictor(cfg, poses[0]), _update_loop(poses[1:], mask))
    if refusal == "off-unit pair" and model == "KF":
        assert expect is None           # the baseline takes no pair's log
    else:
        assert message in expect
    assert _track_error(cfg, poses, mask) == expect


@pytest.mark.parametrize("model", ["KF", "ESKF", "p2o3", "p3o3"])
@pytest.mark.parametrize("refusal", sorted(_REFUSALS))
def test_track_reads_no_lost_pose_and_none_past_its_end(model, refusal):
    # spoiled on a lost tick, or on a tick past the stream's end, the
    # stream runs as the clean one does
    spoil, _ = _REFUSALS[refusal]
    clean, mask = _spoiled_stream()
    cfg = FilterConfig(model=model, dt=0.01, horizon_steps=5)
    expect = _tracked(cfg, clean, mask)
    # a lost tick's timestamp is still read, and tick 29 is received
    if refusal in ("non-finite pose", "off-unit pose", "off-unit pair"):
        lost, _ = _spoiled_stream(spoil, k=30)
        assert repr(_tracked(cfg, lost, mask)) == repr(expect)
    # a sweep's stream that ends before tick 24, the first one spoiled
    late, _ = _spoiled_stream(spoil)
    picks = stream_picks(model, 0.01, [5], late, mask, 24)
    assert [p.tobytes() for p in picks] == [p.tobytes() for p in
                                            stream_picks(model, 0.01, [5], clean, mask, 24)]


@pytest.mark.parametrize("model", ["KF", "ESKF", "p2o2", "p2o3", "p3o3"])
def test_track_stops_where_update_divides_by_zero_or_meets_an_infinite_rate(model):
    # tick 1 lies 5e-324 s past the first pose, where its pair's rate is
    # infinite, or 1e-20 s, where tick 2's window rounds the two nodes'
    # offsets from the newest to one, which update's stencils divide by;
    # track fails as that loop does, with the same error, also on a
    # stream that ends at the refused tick, whose rows no increment reads
    trace = generate_synthetic_trace("hard", 0.6, seed=4)
    mask = [True] * (len(trace) - 1)
    cfg = FilterConfig(model=model, dt=0.01, horizon_steps=5)
    for gap, end in ((5e-324, 2), (1e-20, 3)):
        poses = [trace.pose(k) for k in range(len(trace))]
        poses[1] = Pose(poses[0].t + gap, poses[1].p, poses[1].q)
        expect, _ = _outcome(make_predictor(cfg, poses[0]), _update_loop(poses[1:], mask))
        assert _track_error(cfg, poses, mask) == expect
        assert _track_error(cfg, poses[:end], mask) == expect


@pytest.mark.parametrize("model", ["KF", "ESKF", "p2o2", "p2o3", "p3o3"])
def test_a_draw_the_stacked_pass_refuses_moves_no_other_draw(model):
    # the last tick lies 1e102 s on: at order 2 and up, a draw that
    # received poses carries rates whose increment over it is infinite,
    # which update refuses, while an all-lost draw rests at the first pose
    # and takes it. One _track runs the group, the refused draws around
    # the all-lost ones: each draw is its own update loop, states or error
    trace = generate_synthetic_trace("medium", 0.6, seed=4)
    poses = [trace.pose(k) for k in range(len(trace))]
    poses[-1].t = 1e102
    n = len(poses) - 1
    masks = [[True] * (n - 1) + [False], [False] * n, [k % 2 == 0 for k in range(n)],
             [False] * n, [k < 3 for k in range(n)]]
    cfg = FilterConfig(model=model, dt=0.01, horizon_steps=5)
    preds = [make_predictor(cfg, poses[0]) for _ in masks]
    states, failed = type(preds[0])._track(preds, Ticks(poses[1:], poses[0]), masks)
    ran = []
    for mask, error in zip(masks, failed):
        pred, expect = make_predictor(cfg, poses[0]), []
        try:
            for z, received in zip(poses[1:], mask):
                pred.update(z, received)
                expect.append(pred.x)
            ran.extend(expect)
        except ValueError as e:
            expect = str(e)
        assert (str(error) if error else None) == (expect if type(expect) is str else None)
    assert repr(list(states)) == repr(ran)
    assert [e is None for e in failed] == [model in ("KF", "ESKF"), True] * 2 + [
        model in ("KF", "ESKF")]


@pytest.mark.parametrize("model", ["ESKF", "p2o3", "p3o3"])
def test_track_fails_as_the_update_loop_where_correct_refuses(model):
    # every pose and pair is within the tolerance, but tick 25 against the
    # state's quaternion, which keeps the first pose's norm, is not: the
    # correction's log map refuses it inside the loop that takes the
    # stacked ticks, and the update loop raises that error. The last tick,
    # lost 1e102 s on, has an increment too large for the stacked exp,
    # which must not refuse it first
    poses, mask = _spoiled_stream()
    poses[0].q *= 1.0 + 9e-7
    for z in poses[1:25]:
        z.q *= 1.0 - 5e-7
    poses[25].q *= 1.0 + 9e-7
    poses[-1].t, mask[-1] = 1e102, False
    cfg = FilterConfig(model=model, dt=0.01, horizon_steps=5)
    expect, _ = _outcome(make_predictor(cfg, poses[0]), _update_loop(poses[1:], mask))
    assert expect == "quaternion norm 1.0000018 is not within 1e-6 of unit"
    assert _track_error(cfg, poses, mask) == expect
