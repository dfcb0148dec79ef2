"""Acceptance gate: one test per headline capability claim.

Each test is a single pass/fail line covering one claim: geometry
correctness, integrator convergence order, polynomial-model exactness,
entropy-oracle agreement, cross-model error ordering, packet-loss
degradation, horizon monotonicity, long-run filter health, benchmark
determinism, and prefilter conformance.
"""

import itertools

import numpy as np
import pytest
from scipy.signal import sosfreqz

from conftest import (
    lz_entropy_bruteforce,
    right_jacobian_closed_form,
    rk4_quat_reference,
)
from posecast import so3
from posecast.classifier import MotionClass, lz_entropy
from posecast.cli import main as cli_main
from posecast.experiment import ExperimentConfig, run_experiment, simulate_drop
from posecast.filters import (
    EskfPredictor,
    FilterConfig,
    KfBaseline,
    NominalState,
    predict_horizon,
)
from posecast.preprocess import design_butterworth_lowpass
from posecast.traces import Pose, generate_synthetic_trace


@pytest.fixture(scope="module")
def hard_traces_60s():
    return [generate_synthetic_trace("hard", 60.0, seed=s) for s in (0, 1)]


@pytest.fixture(scope="module")
def hard_traces_30s():
    return [generate_synthetic_trace("hard", 30.0, seed=s) for s in (2, 3)]


@pytest.fixture(scope="module")
def class_traces_30s():
    return [generate_synthetic_trace(p, 30.0, seed=0)
            for p in ("easy", "medium", "hard")]


def _random_rotvecs(rng, n, max_angle):
    out = []
    for _ in range(n):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        out.append(axis * rng.uniform(1e-8, max_angle))
    return out


def _random_unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def test_1_geometry_roundtrip_jacobian_and_metric():
    rng = np.random.default_rng(1001)
    for v in _random_rotvecs(rng, 10000, max_angle=np.pi - 1e-6):
        back = so3.quat_log(so3.quat_exp(v))
        assert np.abs(back - v).max() <= 1e-10
    for v in _random_rotvecs(rng, 2000, max_angle=np.pi - 0.05):
        P = right_jacobian_closed_form(v) @ so3.right_jacobian_inv(v)
        assert np.abs(P - np.eye(3)).max() <= 1e-10
    for _ in range(2000):
        a, b, r = (_random_unit_quat(rng) for _ in range(3))
        d_ab = so3.geodesic_distance(a, b)
        assert abs(d_ab - so3.geodesic_distance(b, a)) <= 1e-10
        ra = so3.quat_multiply(r, a)
        rb = so3.quat_multiply(r, b)
        assert abs(so3.geodesic_distance(ra, rb) - d_ab) <= 1e-10


def test_2_integrator_convergence_orders():
    omega = lambda t: np.array([0.5 + 2.0 * t, 1.0 - t, 0.3 * t * t])
    omega_dot = lambda t: np.array([2.0, -1.0, 0.6 * t])
    w2 = np.array([0.0, 0.0, 0.3])

    def chain(step, h):
        q = np.array([1.0, 0.0, 0.0, 0.0])
        for i in range(int(round(1.0 / h))):
            q = step(q, i * h, h)
        return q

    errs12, errs23 = [], []
    for h in (0.02, 0.01):
        q_ref = rk4_quat_reference([1.0, 0, 0, 0], omega, 0.0, 1.0, h / 100.0)
        q12 = chain(lambda q, t, h: so3.zed12_step(q, omega(t), omega_dot(t), h), h)
        q23 = chain(lambda q, t, h: so3.zed23_step(q, omega(t), omega_dot(t), w2, h), h)
        errs12.append(so3.geodesic_distance(q12, q_ref))
        errs23.append(so3.geodesic_distance(q23, q_ref))
    ratio12 = errs12[0] / errs12[1]
    ratio23 = errs23[0] / errs23[1]
    assert 3.0 <= ratio12 <= 5.0
    assert 6.0 <= ratio23 <= 10.0


def test_3_polynomial_exactness_and_constant_acceleration_lag():
    # cubic trajectory, true [p v a j] at t=0: the full-order model must
    # reproduce it through a 100 ms horizon to rounding error
    rng = np.random.default_rng(30)
    p0, v0, a0, j0 = (rng.uniform(-1, 1, size=3) for _ in range(4))
    x = NominalState(t=0.0, pos=tuple(tuple(r.tolist()) for r in (p0, v0, a0, j0)))
    cfg = FilterConfig(model="p3o3", dt=0.01, horizon_steps=10)
    pub = predict_horizon(x, cfg.dt, 10, cfg)
    T = 0.1
    truth = p0 + v0 * T + a0 * (T * T / 2.0) + j0 * (T ** 3 / 6.0)
    assert np.abs(pub.p - truth).max() <= 1e-9

    # constant 1 m/s^2 acceleration: a constant-velocity model initialized
    # with the true velocity lags by half a t^2 over the lead time
    accel = 1.0
    v_true = np.array([0.3, 0.0, 0.0])
    kf = KfBaseline(FilterConfig(model="KF", dt=0.01, horizon_steps=10),
                    Pose(0.0, np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0])))
    kf.x = (kf.x[0], tuple(v_true.tolist()), *kf.x[2:])
    z = Pose(0.01, np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))
    pub = kf.step(z, received=False)
    lead = pub.t
    truth = v_true * lead + 0.5 * accel * lead * lead * np.array([1.0, 0.0, 0.0])
    err_m = np.linalg.norm(pub.p - truth)
    closed_form = 0.5 * accel * lead * lead
    assert abs(err_m - closed_form) <= 1e-9
    assert 0.0025 <= err_m <= 0.0075


def test_4_entropy_estimator_matches_exhaustive_oracle():
    for length in range(2, 13):
        for bits in itertools.product((0, 1), repeat=length):
            assert lz_entropy(np.array(bits)) == lz_entropy_bruteforce(list(bits))
    assert lz_entropy(np.arange(8)) == 3.0


def test_5_hard_trace_model_ordering_and_error_reduction(hard_traces_60s):
    cfg = ExperimentConfig(models=("KF", "ESKF", "p2o2", "p3o3"),
                           horizons_ms=(100,), drop_rates=(0.0,),
                           repeats=1, keep_samples=False)
    rep = run_experiment(cfg, hard_traces_60s)
    pos, ori = {}, {}
    for m in cfg.models:
        row = rep.aggregate(m, MotionClass.HARD, 100, 0.0)
        assert row is not None
        pos[m], ori[m] = row.pos_mean_mm, row.ori_mean_deg
    assert pos["p3o3"] <= pos["p2o2"] <= pos["ESKF"] <= pos["KF"]
    assert pos["p3o3"] <= 0.70 * pos["KF"]
    assert ori["p3o3"] <= 0.80 * ori["KF"]


def test_6_packet_loss_relative_degradation(hard_traces_30s):
    models = ("KF", "p3o3")
    base_cfg = ExperimentConfig(models=models, horizons_ms=(100,),
                                drop_rates=(0.0,), repeats=1,
                                keep_samples=False)
    drop_cfg = ExperimentConfig(models=models, horizons_ms=(100,),
                                drop_rates=(0.5,), repeats=10,
                                keep_samples=False)
    rep0 = run_experiment(base_cfg, hard_traces_30s)
    rep5 = run_experiment(drop_cfg, hard_traces_30s)
    base = {}
    for m in models:
        row = rep0.aggregate(m, MotionClass.HARD, 100, 0.0)
        base[m] = (row.pos_mean_mm, row.ori_mean_deg)

    wins = 0
    for r in range(10):
        inc = {}
        for m in models:
            row = [x for x in rep5.per_repeat
                   if x.model == m and x.repeat == r
                   and x.motion_class == MotionClass.HARD]
            assert len(row) == 1
            inc[m] = (row[0].pos_mean_mm / base[m][0],
                      row[0].ori_mean_deg / base[m][1])
        wins += (inc["p3o3"][0] < inc["KF"][0]
                 and inc["p3o3"][1] < inc["KF"][1])
    assert wins >= 9, (
        f"smaller relative degradation in only {wins}/10 repeats; "
        f"the identity-noise KF barely reacts to lost corrections, so its "
        f"relative increase stays near 1 while any correction-driven model "
        f"pays for the staleness")


def test_7_horizon_error_monotonicity(class_traces_30s):
    cfg = ExperimentConfig(horizons_ms=(20, 100), drop_rates=(0.0,),
                           repeats=1, keep_samples=False)
    rep = run_experiment(cfg, class_traces_30s)
    classes_seen = set()
    for m in cfg.models:
        for cls in MotionClass:
            r20 = rep.aggregate(m, cls, 20, 0.0)
            r100 = rep.aggregate(m, cls, 100, 0.0)
            if r20 is None or r100 is None:
                continue
            classes_seen.add(cls)
            assert r100.pos_mean_mm >= 0.95 * r20.pos_mean_mm, (m, cls)
    assert classes_seen == set(MotionClass)


def test_8_long_run_covariance_and_quaternion_health():
    trace = generate_synthetic_trace("medium", 1000.0, seed=5)
    cfg = FilterConfig(model="p3o3", dt=0.01, horizon_steps=1)
    pred = EskfPredictor(cfg, trace.pose(0))
    rng = np.random.default_rng(42)
    jitter = 1e-9 * np.eye(pred.P.shape[0])
    for k in range(1, len(trace)):
        pred.step(trace.pose(k), received=simulate_drop(rng, 0.3))
        P = pred.P
        assert np.abs(P - P.T).max() <= 1e-12
        np.linalg.cholesky(P + jitter)
        assert abs(np.linalg.norm(pred.x.q) - 1.0) <= 1e-9


def test_9_bench_reruns_byte_identical(tmp_path):
    trace_path = tmp_path / "hard.csv"
    assert cli_main(["synth", "--profile", "hard", "--duration", "15",
                     "--seed", "0", "--out", str(trace_path)]) == 0
    args = ["bench", "--input", str(trace_path), "--models", "KF,p3o3",
            "--horizons", "20,60", "--drop-rates", "0,0.3",
            "--repeats", "2", "--seed", "0"]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "summary.csv").read_bytes()
            == (tmp_path / "b" / "summary.csv").read_bytes())


def test_10_lowpass_attenuation_profile():
    sos = design_butterworth_lowpass(2, 5.0, 100.0)
    _, h = sosfreqz(sos, worN=[5.0, 25.0], fs=100.0)
    db = 20.0 * np.log10(np.abs(h))
    assert abs(db[0] - (-3.0103)) <= 0.1
    assert db[1] <= -26.0
