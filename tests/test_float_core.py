"""The Python-float filter core against its numpy reference, and at a
measured distance from the rotation-coupled reference; property tests of
the float rotation kernels (the rotation chain bit for bit against its
stepwise definition), the pseudo-derivative stencil and its incremental
window, the covariance chains, the block structure of the reference
covariance and the filters' long-run health."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from posecast import so3
from posecast.filters import (
    MODEL_NAMES,
    FilterConfig,
    NominalState,
    error_transition_matrix,
    estimate_pseudo_derivatives,
    make_predictor,
)
from posecast.traces import Pose, Trace, generate_synthetic_trace

import numpy_reference as ref


def _reference_distance(model, coupled):
    """Largest (quaternion component, position, relative covariance)
    difference between a filter and its numpy reference over 3 s of hard
    motion with 40% of the packets lost. Every tick's whole rollout and
    covariance are compared, so drift would show too."""
    trace = generate_synthetic_trace("hard", 3.0, seed=8)
    mask = np.random.default_rng(3).random(len(trace)) > 0.4
    dt, n = 0.01, 10
    pred = make_predictor(FilterConfig(model=model, dt=dt, horizon_steps=n),
                          trace.pose(0))
    oracle = ref.make_reference(model, trace.pose(0), dt, n, coupled=coupled)
    dq = dp = dP = 0.0
    for k in range(1, len(trace)):
        received = bool(mask[k])
        pub = pred.step(trace.pose(k), received=received)
        expect = oracle.step(trace.pose(k), received)
        assert len(pred.rollout) == len(expect) == n
        for (p, q), (p_ref, q_ref) in zip(pred.rollout, expect):
            dp = max(dp, np.abs(p - p_ref).max())
            dq = max(dq, np.abs(q - q_ref).max())
        assert isinstance(pub.p, np.ndarray) and isinstance(pub.q, np.ndarray)
        assert np.array_equal(pub.p, pred.rollout[-1][0])
        assert np.array_equal(pub.q, pred.rollout[-1][1])
        dP = max(dP, np.abs(pred.P - oracle.P).max() / np.abs(oracle.P).max())
    return dq, dp, dP


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_step_matches_numpy_reference(model):
    dq, dp, dP = _reference_distance(model, coupled=False)
    assert dq <= 1e-12 and dp <= 1e-12 and dP <= 1e-9


@pytest.mark.parametrize("model", MODEL_NAMES[1:])
def test_step_stays_near_the_rotation_coupled_reference(model):
    # leaving exp(w dt)^T out of the attitude transition and J_r^-T out of
    # its measurement moved the rollout quaternions of this fixture by at
    # most 1.02e-5 (ESKF), 1.14e-5 (p2o2) and 5.37e-5 (p2o3, p3o3), the
    # positions by at most 5e-15 and the covariance by 1.3e-2 of its scale
    dq, dp, dP = _reference_distance(model, coupled=True)
    assert dq <= 1e-4 and dp <= 1e-12 and dP <= 0.02


# --------------------------------------------------------------- strategies

_coord = st.floats(-1.0, 1.0, allow_nan=False)
_vec = st.tuples(_coord, _coord, _coord)
_rate = st.tuples(*[st.floats(-20.0, 20.0, allow_nan=False)] * 3)


@st.composite
def rotvecs(draw, max_angle=math.pi - 1e-6):
    """Rotation vectors of angle in [0, max_angle], with tiny angles included."""
    v = draw(_vec)
    n = math.sqrt(sum(c * c for c in v))
    if n < 1e-6:
        return (0.0, 0.0, 0.0)
    angle = draw(st.one_of(st.floats(0.0, max_angle),
                           st.floats(0.0, 1e-6), st.just(max_angle)))
    return tuple(c / n * angle for c in v)


@st.composite
def unit_quats(draw):
    return tuple(so3.quat_exp(draw(rotvecs())).tolist())


# --------------------------------------------------------------- properties

@settings(max_examples=300, deadline=None)
@given(rotvecs())
def test_exp_log_roundtrip_up_to_pi(v):
    back = so3.quat_log(so3.quat_exp(v))
    assert np.abs(back - np.array(v)).max() <= 1e-9


@settings(max_examples=300, deadline=None)
@given(unit_quats(), _rate, _rate, _rate, st.floats(1e-4, 0.05))
def test_zed_steps_stay_unit_and_canonical(q, w0, w1, w2, h):
    for out in (so3.zed12_step(q, w0, w1, h), so3.zed23_step(q, w0, w1, w2, h)):
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
        assert out[0] >= 0.0


@settings(max_examples=300, deadline=None)
@given(unit_quats(), unit_quats())
def test_geodesic_symmetric_and_sign_blind(qa, qb):
    d = so3.geodesic_distance(qa, qb)
    neg_a = tuple(-c for c in qa)
    neg_b = tuple(-c for c in qb)
    assert 0.0 <= d <= math.pi
    for other in (so3.geodesic_distance(qb, qa), so3.geodesic_distance(neg_a, qb),
                  so3.geodesic_distance(qa, neg_b), so3.geodesic_distance(neg_a, neg_b)):
        assert abs(other - d) <= 1e-9


# ------------------------------------------------------ pseudo-derivatives

_ESKF_MODELS = ("ESKF", "p2o2", "p2o3", "p3o3")


@st.composite
def node_times(draw, n):
    """n received-pose times, oldest first: gaps of 1-4 ticks of 10 ms, jittered."""
    t = draw(st.floats(0.0, 10.0))
    ts = [t]
    for _ in range(n - 1):
        gap = 0.01 * draw(st.integers(1, 4)) + draw(st.floats(-0.002, 0.002))
        ts.append(ts[-1] + gap)
    return ts


@st.composite
def windows(draw):
    """(model, window) with generic poses: 2 to min_window nodes."""
    model = draw(st.sampled_from(_ESKF_MODELS))
    n = draw(st.integers(2, FilterConfig(model=model).min_window))
    ts = draw(node_times(n))
    q = np.array(draw(unit_quats()))
    poses = []
    for i, t in enumerate(ts):
        if i:
            q = so3.quat_multiply(q, so3.quat_exp(np.array(draw(_rate)) * (t - ts[i - 1])))
        p = np.array(draw(st.tuples(*[st.floats(-2.0, 2.0)] * 3)))
        poses.append(Pose(t, p, q))
    return model, poses


def _rows_close(rows, expect, rel):
    # each derivative order against its own magnitude
    for row, ref_row in zip(np.asarray(rows, dtype=float), expect):
        scale = max(np.abs(ref_row).max(), 1.0)
        assert np.abs(row - ref_row).max() <= rel * scale


@settings(max_examples=400, deadline=None)
@given(windows())
def test_newton_stencil_matches_vandermonde_solve(case):
    model, window = case
    cfg = FilterConfig(model=model)
    pos_d, rot_d = estimate_pseudo_derivatives(ref.window_nodes(window), cfg)
    pos_ref, rot_ref = ref.pseudo_derivatives(window, cfg.ord_pos, cfg.ord_rot)
    _rows_close(pos_d, pos_ref, 1e-9)
    _rows_close(rot_d, rot_ref, 1e-9)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_ESKF_MODELS), st.data())
def test_newton_stencil_is_exact_on_polynomials(model, data):
    # positions on a polynomial of degree ord_pos, and poses whose
    # pairwise rates sample a polynomial rate of degree ord_rot - 1 at the
    # pair ends: every derivative the variant keeps is recovered
    cfg = FilterConfig(model=model)
    ts = data.draw(node_times(cfg.min_window))
    coef = st.tuples(*[st.floats(-3.0, 3.0)] * 3)
    cp = np.array([data.draw(coef) for _ in range(cfg.ord_pos + 1)])
    cw = np.array([data.draw(coef) for _ in range(cfg.ord_rot)])
    t0 = ts[-1]

    def poly(c, t, k=0):
        """k-th derivative of sum_j c_j (t - t0)^j."""
        return sum(math.perm(j, k) * c[j] * (t - t0) ** (j - k) for j in range(k, len(c)))

    q = np.array(data.draw(unit_quats()))
    window = [Pose(ts[0], poly(cp, ts[0]), q)]
    for a, b in zip(ts, ts[1:]):
        q = so3.quat_multiply(q, so3.quat_exp(poly(cw, b) * (b - a)))
        window.append(Pose(b, poly(cp, b), q))
    pos_d, rot_d = estimate_pseudo_derivatives(ref.window_nodes(window), cfg)
    expect_pos = [poly(cp, t0, k) if k <= cfg.ord_pos else np.zeros(3) for k in (1, 2, 3)]
    expect_rot = [poly(cw, t0, k) if k < cfg.ord_rot else np.zeros(3) for k in (0, 1, 2)]
    _rows_close(pos_d, expect_pos, 1e-7)
    _rows_close(rot_d, expect_rot, 1e-7)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_ESKF_MODELS), st.data())
def test_incremental_window_equals_recomputation(model, data):
    # the window a filter grows node by node, one log map per received
    # tick, is bit for bit the last min_window nodes recomputed from all
    # received poses, and each received tick installs its derivatives
    trace = _hard_trace()
    mask = data.draw(st.lists(st.booleans(), min_size=len(trace) - 1,
                              max_size=len(trace) - 1))
    cfg = FilterConfig(model=model, dt=0.01, horizon_steps=3)
    pred = make_predictor(cfg, trace.pose(0))
    nodes = ref.window_nodes([trace.pose(0)] + [trace.pose(k) for k, received
                                                in enumerate(mask, start=1) if received])
    seen = 1
    for k, received in enumerate(mask, start=1):
        pred.step(trace.pose(k), received=received)
        seen += received
        expect = nodes[:seen][-cfg.min_window:]
        assert list(pred.window) == expect
        if received and seen > 1:
            pos_d, rot_d = estimate_pseudo_derivatives(expect, cfg)
            assert np.array_equal(pred.x.pos[1:4], pos_d)
            assert np.array_equal(pred.x.wvec, rot_d)


# ------------------------------------------------ rotation-chain kernel

def _stepwise_rotation_chain(q, w, wd, wdd, h, n, order):
    """The kernel's definition one step at a time: q <- canonical(q * exp(phi_k)),
    then the rates along their Taylor chain cut at the order."""
    qs = []
    for _ in range(n):
        if order == 1:
            phi = [a * h for a in w]
        elif order == 2:
            phi = [a * h + b * (0.5 * h * h) for a, b in zip(w, wd)]
        else:
            cross = (w[1] * wd[2] - w[2] * wd[1], w[2] * wd[0] - w[0] * wd[2],
                     w[0] * wd[1] - w[1] * wd[0])
            phi = [a * h + b * (0.5 * (h * h)) + (0.5 * e) * (h * h * h / 3.0)
                   + c * (h * h * h / 12.0) for a, b, e, c in zip(w, wd, wdd, cross)]
        r = so3._mul(q, so3._exp(phi))
        q = tuple(-c for c in r) if r[0] < 0.0 else r
        qs.append(q)
        if order == 2:
            w = [a + b * h for a, b in zip(w, wd)]
        elif order == 3:
            w = [a + b * h + e * (h ** 2 / 2) for a, b, e in zip(w, wd, wdd)]
            wd = [b + e * h for b, e in zip(wd, wdd)]
    return qs, (w, wd, wdd)


# rates of every size, zero, and small enough that |phi| < 1e-8 takes
# exp's series branch
_chain_rate = st.one_of(_rate, st.just((0.0, 0.0, 0.0)),
                        st.tuples(*[st.floats(-1e-7, 1e-7)] * 3))


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(_ESKF_MODELS), unit_quats(), _chain_rate, _chain_rate,
       _chain_rate, st.floats(1e-4, 0.05), st.integers(1, 12))
def test_rotation_chain_is_the_stepwise_composition(model, q, w, wd, wdd, h, n):
    order = FilterConfig(model=model).ord_rot
    qs, rates = so3._rotation_chain(q, w, wd, wdd, h, n, order)
    expect, expect_rates = _stepwise_rotation_chain(q, w, wd, wdd, h, n, order)
    assert len(qs) == n
    assert np.array(qs).tobytes() == np.array(expect).tobytes()
    assert np.array(rates).tobytes() == np.array(expect_rates).tobytes()


# ------------------------------------------------------- long-run health

@functools.lru_cache(maxsize=1)
def _hard_trace():
    return generate_synthetic_trace("hard", 1.5, seed=8)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MODEL_NAMES), st.data())
def test_random_drops_keep_covariance_psd_and_quaternions_unit(model, data):
    trace = _hard_trace()
    mask = data.draw(st.lists(st.booleans(), min_size=len(trace) - 1,
                              max_size=len(trace) - 1))
    pred = make_predictor(FilterConfig(model=model, dt=0.01, horizon_steps=10),
                          trace.pose(0))
    for k, received in enumerate(mask, start=1):
        pred.step(trace.pose(k), received=received)
        P = pred.P
        assert np.array_equal(P, P.T)
        assert np.linalg.eigvalsh(P)[0] >= -1e-12 * np.abs(P).max()
        q = pred.x[2] if model == "KF" else pred.x.q
        for u in (q, *(r[1] for r in pred.rollout)):
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12


def _float_rows(rows, widths):
    """rows is a tuple of tuples of Python floats of the given lengths."""
    return (type(rows) is tuple and [len(r) for r in rows] == widths
            and all(type(r) is tuple and all(type(c) is float for c in r) for r in rows))


def _is_float_state(x):
    """x is a NominalState, or a baseline's (p, v, q, qdot), of float tuples."""
    if type(x) is NominalState:
        return (type(x.t) is float and _float_rows(x.pos, [3] * 4)
                and _float_rows((x.q,), [4]) and _float_rows(x.wvec, [3] * 3))
    return _float_rows(x, [3, 3, 4, 4])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MODEL_NAMES), st.data())
def test_state_stays_float_tuples(model, data):
    # both predictors keep their state as tuples of Python floats through
    # any mix of received and lost ticks; only the published pose holds arrays
    trace = _hard_trace()
    mask = data.draw(st.lists(st.booleans(), min_size=1, max_size=len(trace) - 1))
    pred = make_predictor(FilterConfig(model=model, dt=0.01, horizon_steps=3),
                          trace.pose(0))
    assert _is_float_state(pred.x)
    for k, received in enumerate(mask, start=1):
        pred.step(trace.pose(k), received=received)
        assert _is_float_state(pred.x)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4),
       st.one_of(st.just(0.0), st.floats(0.0, 0.1), st.floats(1e-9, 1e-3)))
def test_error_transition_is_the_kron_taylor_chain(n, dt):
    # the integrator a chain of size n reads off error_transition_matrix,
    # expanded to the three axes, is kron(T, I3) for the Taylor chain
    # T[i, j] = dt^(j-i) / (j-i)!, bit for bit
    c = (1.0, *error_transition_matrix(dt))
    T = np.array([[c[j - i] if j >= i else 0.0 for j in range(n)] for i in range(n)])
    expect = np.kron(ref.taylor_chain(n, dt), np.eye(3))
    assert np.kron(T, np.eye(3)).tobytes() == expect.tobytes()


def _jittered_eskf_streams(data, horizon_steps):
    """Every error-state variant over one hard trace, on a drawn mask and
    a drawn jitter of the clock; yields the predictors after each tick."""
    trace = _hard_trace()
    n = len(trace)
    mask = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    jitter = data.draw(st.lists(st.floats(-0.004, 0.004), min_size=n, max_size=n))
    jittered = Trace(trace.t + np.array(jitter), trace.p, trace.q)
    preds = {m: make_predictor(FilterConfig(model=m, dt=0.01, horizon_steps=horizon_steps),
                               jittered.pose(0)) for m in _ESKF_MODELS}
    for k, received in enumerate(mask, start=1):
        for pred in preds.values():
            pred.step(jittered.pose(k), received=received)
        yield preds


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_attitude_chain_is_the_position_chain_of_its_order(data):
    # both chains depend on the tick intervals and the drop pattern only,
    # so on any mask and jittered clock the attitude chain of a variant
    # with ord_pos = ord_rot is its own position chain, and p2o3's is
    # p3o3's position chain, bit for bit
    for preds in _jittered_eskf_streams(data, 2):
        for m in ("ESKF", "p2o2", "p3o3"):
            assert np.array(preds[m].att_chain).tobytes() == np.array(preds[m].chain).tobytes()
        assert (np.array(preds["p2o3"].att_chain).tobytes()
                == np.array(preds["p3o3"].chain).tobytes())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rollout_halves_depend_on_their_own_order_only(data):
    # the sweep stitches a variant's errors from the positions of one of
    # equal ord_pos and the orientations of one of equal ord_rot, which
    # holds only if those halves of the rollouts agree bit for bit on
    # every tick, whatever the losses and the clock
    assert _ESKF_MODELS == tuple(m for m in MODEL_NAMES if m != "KF")
    cfgs = [FilterConfig(model=m) for m in _ESKF_MODELS]
    same_pos = [(a.model, b.model) for a, b in itertools.combinations(cfgs, 2)
                if a.ord_pos == b.ord_pos]
    same_rot = [(a.model, b.model) for a, b in itertools.combinations(cfgs, 2)
                if a.ord_rot == b.ord_rot]
    assert ("p2o2", "p2o3") in same_pos and ("p2o3", "p3o3") in same_rot
    for preds in _jittered_eskf_streams(data, 5):
        for half, pairs in ((0, same_pos), (1, same_rot)):
            for a, b in pairs:
                assert (np.array([r[half] for r in preds[a].rollout]).tobytes()
                        == np.array([r[half] for r in preds[b].rollout]).tobytes()), (a, b)


# ------------------------------------ block structure of the covariance

@functools.lru_cache(maxsize=1)
def _easy_and_hard_traces():
    return (generate_synthetic_trace("easy", 0.6, seed=21),
            generate_synthetic_trace("hard", 0.6, seed=22))


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_reference_covariance_is_a_scalar_chain_and_an_attitude_block(data):
    # the rotation-coupled reference, run on two traces under one drop
    # mask, keeps the structure the filters store exactly for position:
    # no position-attitude cross-covariance, a position block
    # kron(P_s, I3) that depends on the mask only, and for the baseline
    # kron(P_s, I3) (+) kron(P_s, I4) with the order-1 chain of the ESKF
    traces = _easy_and_hard_traces()
    mask = data.draw(st.lists(st.booleans(), min_size=len(traces[0]) - 1,
                              max_size=len(traces[0]) - 1))
    oracles = {(m, i): ref.make_reference(m, tr.pose(0), 0.01, 1, coupled=True)
               for m in MODEL_NAMES for i, tr in enumerate(traces)}
    for k, received in enumerate(mask, start=1):
        for (m, i), oracle in oracles.items():
            oracle.step(traces[i].pose(k), received)
        P_s = oracles["ESKF", 0].P[0:6:3, 0:6:3]
        for i in (0, 1):
            assert np.array_equal(oracles["KF", i].P, block_diag(
                np.kron(P_s, np.eye(3)), np.kron(P_s, np.eye(4))))
        for m in MODEL_NAMES[1:]:
            th = 3 * (1 + ref.ORDERS[m][0])
            blocks = []
            for i in (0, 1):
                P = oracles[m, i].P
                assert not P[:th, th:].any() and not P[th:, :th].any()
                assert np.array_equal(P[:th, :th], np.kron(P[0:th:3, 0:th:3], np.eye(3)))
                blocks.append(P[:th, :th])
            assert np.array_equal(*blocks)


# ------------------------------------------- inverse right Jacobian near pi

@st.composite
def unit_axes(draw):
    v = np.array(draw(_vec))
    n = np.linalg.norm(v)
    return v / n if n > 1e-3 else np.array([0.0, 0.0, 1.0])


@settings(max_examples=300, deadline=None)
@given(unit_axes(), st.one_of(st.floats(1e-3, math.pi - 1e-6),
                              st.floats(math.pi - 1e-3, math.pi - 1e-6),
                              st.just(math.pi - 1e-6)))
def test_right_jacobian_inv_finite_below_pi(axis, angle):
    theta = axis * angle
    J = so3.right_jacobian_inv(theta)
    assert np.isfinite(J).all()
    np.testing.assert_allclose(J, ref.right_jacobian_inv(theta), rtol=0, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(unit_axes(), st.floats(math.pi * (1.0 + 1e-12), 4.0 * math.pi))
def test_right_jacobian_inv_raises_at_or_beyond_pi(axis, angle):
    for theta in (axis * angle, np.roll([math.pi, 0.0, 0.0], int(angle) % 3)):
        with pytest.raises(ValueError, match="outside"):
            so3.right_jacobian_inv(theta)
