"""The Python-float filter core against its numpy reference, and at a
measured distance from the rotation-coupled reference; property tests of
the float rotation kernels (the rotation chain bit for bit against its
stepwise definition), of the order-specialised position chain, stencil
and baseline chain bit for bit against the generic kernels they
replaced, of the stacked error metrics bit for bit against the scalar
float ones, of a tracked stream bit for bit against the update loop, of
the pseudo-derivative stencil and its incremental window,
the covariance chains, the block structure of the reference covariance
and the filters' long-run health."""

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
    _chain,
    _cv_chain,
    _stack,
    _stencil_derivatives,
    error_transition_matrix,
    estimate_pseudo_derivatives,
    make_predictor,
    predict_horizon,
)
from posecast.metrics import orientation_error, position_error
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
    states, pubs, expects = [], [], []
    for k in range(1, len(trace)):
        received = bool(mask[k])
        pubs.append(pred.step(trace.pose(k), received=received))
        states.append(pred.x)
        expects.append(oracle.step(trace.pose(k), received))
        dP = max(dP, np.abs(pred.P - oracle.P).max() / np.abs(oracle.P).max())
    # every tick's whole rollout, from the stacked forecast the sweep reads
    rollout = pred.forecasts(states, range(1, n + 1))
    for j, (pub, expect) in enumerate(zip(pubs, expects)):
        assert len(rollout) == len(expect) == n
        for rows, (p_ref, q_ref) in zip(rollout, expect):
            dp = max(dp, np.abs(rows[j, :3] - p_ref).max())
            dq = max(dq, np.abs(rows[j, 3:] - q_ref).max())
        assert isinstance(pub.p, np.ndarray) and isinstance(pub.q, np.ndarray)
        assert np.array_equal(pub.p, rollout[-1][j, :3])
        assert np.array_equal(pub.q, rollout[-1][j, 3:])
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


# ----------------------------------------------------------- error metrics

_axes = _vec.filter(lambda v: math.hypot(*v) > 0.1).map(
    lambda v: tuple(c / math.hypot(*v) for c in v))


@st.composite
def relative_rotations(draw):
    """A unit quaternion r for a pair (q r, q): one of the geodesic's edge
    cases, named by the tag drawn first."""
    case = draw(st.sampled_from(("any", "equal", "negated", "antipode", "w < 0", "tiny")))
    if case == "any":
        return draw(unit_quats())
    if case == "equal":
        return (1.0, 0.0, 0.0, 0.0)
    if case == "negated":
        return (-1.0, 0.0, 0.0, 0.0)
    if case == "antipode":
        # at the antipode the log's norm can round past pi and is folded back
        axis = draw(_axes)
        gap = draw(st.sampled_from((None, 0.0, 1e-15, 1e-12, 1e-8)))
        if gap is None:
            return (0.0, *axis)
        return tuple(so3.quat_exp([(math.pi - gap) * c for c in axis]).tolist())
    if case == "w < 0":
        return tuple((-so3.quat_exp(draw(rotvecs()))).tolist())
    # angles about 1e-10 rad: below 2e-9 the log takes its s < 1e-9 branch
    axis = draw(_axes)
    angle = draw(st.floats(1e-12, 1e-8))
    return tuple(so3.quat_exp([angle * c for c in axis]).tolist())


@st.composite
def quat_pairs(draw):
    """(q_pred, q_true), q_pred = q_true r or exactly q_true or -q_true,
    each component scaled up to 1e-7 off unit norm."""
    q_true = draw(unit_quats())
    r = draw(relative_rotations())
    if r == (1.0, 0.0, 0.0, 0.0) or r == (-1.0, 0.0, 0.0, 0.0):
        q_pred = tuple(r[0] * c for c in q_true)
    else:
        q_pred = so3._mul(q_true, r)
    slack = st.floats(-1e-7, 1e-7)
    return (tuple(c * (1.0 + draw(slack)) for c in q_pred),
            tuple(c * (1.0 + draw(slack)) for c in q_true))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@settings(max_examples=100, deadline=None)
@given(st.lists(quat_pairs(), min_size=1, max_size=20),
       st.lists(st.tuples(_vec, _vec), min_size=1, max_size=20))
def test_stacked_metrics_match_the_scalar_reference_bit_for_bit(pairs, positions):
    q_pred, q_true = (np.array(c) for c in zip(*pairs))
    for stacked, scalar in ((so3.geodesic_distance, ref.geodesic_distance),
                            (orientation_error, ref.orientation_error)):
        expect = [scalar(a, b) for a, b in pairs]
        assert np.array_equal(_bits(stacked(q_pred, q_true)), _bits(expect))
        one = stacked(*pairs[0])
        assert type(one) is float and _bits(one) == _bits(expect[0])
    p_pred, p_true = (np.array(c) for c in zip(*positions))
    expect = [ref.position_error(a, b) for a, b in positions]
    assert np.array_equal(_bits(position_error(p_pred, p_true)), _bits(expect))
    one = position_error(*positions[0])
    assert type(one) is float and _bits(one) == _bits(expect[0])


def test_stacked_metrics_match_the_scalar_reference_on_a_seeded_stack():
    # relative angles spread from 1e-10 rad to pi, then exact half-turns,
    # where the log's norm rounds past pi in about half of the pairs, then
    # equal pairs; every other q_pred is negated, so the relative product
    # has w < 0. At angles of order 1 np.arctan2 rounds differently from
    # math.atan2 in a few percent of the pairs, so no branch, fold or
    # arctangent can differ from the scalar code by chance here
    rng = np.random.default_rng(26)
    axes = rng.normal(size=(4000, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    angles = np.pi * 10.0 ** rng.uniform(-10.0, 0.0, 3000)
    rel = ([so3._exp((axis * a).tolist()) for axis, a in zip(axes, angles)]
           + [(0.0, *axis) for axis in axes[3000:].tolist()] + [(1.0, 0.0, 0.0, 0.0)] * 100)
    q_true = [so3._exp(v) for v in rng.normal(size=(len(rel), 3)).tolist()]
    q_pred = [tuple(c * (-1.0) ** k for c in so3._mul(q, r))
              for k, (q, r) in enumerate(zip(q_true, rel))]
    q_pred, q_true = np.array(q_pred), np.array(q_true)
    expect = [ref.orientation_error(a, b) for a, b in zip(q_pred, q_true)]
    assert np.array_equal(_bits(orientation_error(q_pred, q_true)), _bits(expect))
    p_pred, p_true = rng.normal(size=(2, 4000, 3))
    expect = [ref.position_error(a, b) for a, b in zip(p_pred, p_true)]
    assert np.array_equal(_bits(position_error(p_pred, p_true)), _bits(expect))


def test_stacked_geodesic_refuses_the_first_pair_off_unit():
    q = np.tile([1.0, 0.0, 0.0, 0.0], (5, 1))
    q[3] *= 3.0
    q[4] *= 2.0
    with pytest.raises(ValueError, match="^quaternion norm 3 is not within 1e-6 of unit$"):
        so3.geodesic_distance(q, np.tile([1.0, 0.0, 0.0, 0.0], (5, 1)))


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


# ------------------------------------------- order-specialised kernels

# any float, signed zeros included: the full chain adds the zero rows'
# +0.0 terms, which turn -0.0 into +0.0, so a kernel that skips them must
# do the same
_row = st.tuples(*[st.one_of(st.floats(-10.0, 10.0), st.sampled_from((0.0, -0.0)))] * 3)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 3), st.lists(_row, min_size=4, max_size=4), unit_quats(),
       st.floats(1e-4, 0.05), st.integers(1, 12))
def test_position_chain_is_the_full_taylor_chain(ord_pos, rows, q, dt, n):
    # rows above the order are +0.0, as in every filter state
    pos = (*rows[:ord_pos + 1], *[so3._ZERO3] * (3 - ord_pos))
    rollout = []
    y = _chain(NominalState(1.5, pos, q), dt, n, ord_pos, 1, rollout)
    ps, end = ref.taylor_rollout(pos, dt, n)
    assert np.array([p for p, _ in rollout]).tobytes() == np.array(ps).tobytes()
    assert np.array(y.pos).tobytes() == np.array(end).tobytes()
    t = 1.5
    for _ in range(n):
        t += dt
    assert y.t == t


@st.composite
def stencils(draw):
    """(us, fs) for 1 to 4 nodes, newest first: offsets from the newest
    node of jittered tick times, and 3-vector values, each of which may
    repeat the one before it so that zero differences come up."""
    m = draw(st.integers(1, 4))
    ts = draw(node_times(m))
    us = [t - ts[-1] for t in reversed(ts)]
    fs = [draw(_row)]
    for _ in range(m - 1):
        fs.append(fs[-1] if draw(st.booleans()) else draw(_row))
    return us, fs


@settings(max_examples=500, deadline=None)
@given(stencils())
def test_stencil_is_the_divided_difference_table(case):
    us, fs = case
    got = _stencil_derivatives(us, fs)
    expect = ref.divided_difference_derivatives(us, fs)
    assert np.array(got).tobytes() == np.array(expect).tobytes()


@settings(max_examples=300, deadline=None)
@given(_row, _row, unit_quats(), st.tuples(*[st.floats(-5.0, 5.0)] * 4),
       st.floats(1e-4, 0.05), st.integers(1, 12))
def test_cv_chain_is_repeated_single_steps(p, v, q, qd, h, n):
    rollout = []
    end = _cv_chain(p, v, q, qd, h, n, rollout)
    expect = []
    for _ in range(n):
        p, q = ref.cv_step(p, v, q, qd, h)
        expect.append((*p, *q))
    assert np.array([(*p, *q) for p, q in rollout]).tobytes() == np.array(expect).tobytes()
    assert end == rollout[-1]


# ---------------------------------------------------- stacked forecast

_signed_zero = st.sampled_from((0.0, -0.0))


@st.composite
def stacked_rates(draw, h):
    """A rate row whose increment over h is of one edge case, named by the
    tag drawn first: below exp's 1e-8 rad series branch, past pi (where
    cos(half) < 0 flips the exponential's sign), zero of either sign, or any."""
    case = draw(st.sampled_from(("any", "tiny", "past pi", "zero")))
    if case == "zero":
        return tuple(draw(_signed_zero) for _ in range(3))
    if case == "any":
        return draw(_rate)
    axis = draw(_axes)
    angle = draw(st.floats(1e-13, 9e-9) if case == "tiny"
                 else st.floats(math.pi + 1e-6, 3.0 * math.pi))
    return tuple(c * angle / h for c in axis)


@st.composite
def stacked_quats(draw):
    """Unit quaternions of either sign, so that products of either sign of
    w, and so the canonical flip, come up."""
    q = draw(unit_quats())
    return tuple(-c for c in q) if draw(st.booleans()) else q


@st.composite
def forecast_states(draw, model, h):
    """A state a predictor of the model could hold, with signed zeros: a
    NominalState whose rows above the model's orders are +0.0, or the
    baseline's (p, v, q, qdot)."""
    cfg = FilterConfig(model=model)
    rows = st.one_of(_row, st.tuples(*[_signed_zero] * 3))
    if model == "KF":
        qd = st.tuples(*[st.one_of(st.floats(-5.0, 5.0), _signed_zero)] * 4)
        return draw(rows), draw(rows), draw(stacked_quats()), draw(qd)
    pos = [draw(rows) for _ in range(cfg.ord_pos + 1)] + [so3._ZERO3] * (3 - cfg.ord_pos)
    wvec = [draw(stacked_rates(h)) for _ in range(cfg.ord_rot)] + [so3._ZERO3] * (3 - cfg.ord_rot)
    return NominalState(draw(st.floats(0.0, 10.0)), tuple(pos), draw(stacked_quats()),
                        tuple(wvec))


def _scalar_rollout(cfg, x, n):
    """The per-tick rollout of step from state x: n rows [p q] of floats."""
    rollout = []
    if cfg.model == "KF":
        _cv_chain(*x, cfg.dt, n, rollout)
    else:
        predict_horizon(x, cfg.dt, n, cfg, rollout)
    return [(*p, *q) for p, q in rollout]


def _kept_steps(draw):
    return sorted(draw(st.sets(st.integers(1, 12), min_size=1, max_size=4)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_ESKF_MODELS), st.floats(1e-4, 0.05), st.integers(1, 12), st.data())
def test_stacked_rotation_chain_is_the_scalar_kernel_bit_for_bit(model, h, n, data):
    order = FilterConfig(model=model).ord_rot
    rows = data.draw(st.lists(st.tuples(stacked_quats(), stacked_rates(h), stacked_rates(h),
                                        stacked_rates(h)), min_size=1, max_size=8))
    stack = [_stack(col, (len(col[0]),)) for col in zip(*rows)]
    qs, rates = so3._stacked_rotation_chain(*stack, h, n, order)
    expect = [so3._rotation_chain(*row, h, n, order) for row in rows]
    assert len(qs) == n
    # step by component by row, against the scalar kernel's row by step by component
    assert np.array(qs).tobytes() == np.array([e[0] for e in expect]).transpose(1, 2, 0).tobytes()
    assert (np.array(rates).tobytes()
            == np.array([e[1] for e in expect]).transpose(1, 2, 0).tobytes())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(MODEL_NAMES), st.floats(1e-4, 0.05), st.data())
def test_stacked_forecast_is_the_scalar_rollout_bit_for_bit(model, h, data):
    # drawn states: signed zeros, increments below 1e-8 rad and past pi,
    # quaternions of either sign
    cfg = FilterConfig(model=model, dt=h, horizon_steps=12)
    states = data.draw(st.lists(forecast_states(model, h), min_size=1, max_size=8))
    steps = _kept_steps(data.draw)
    pred = make_predictor(cfg, Pose(0.0, np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0])))
    got = pred.forecasts(states, steps)
    expect = [_scalar_rollout(cfg, x, max(steps)) for x in states]
    for n, rows in zip(steps, got):
        assert rows.shape == (len(states), 7)
        assert rows.tobytes() == np.array([e[n - 1] for e in expect]).tobytes()
    if model != "KF":
        # predict_horizon publishes a stack's poses as rows, each the scalar call's
        x = NominalState(np.array([s.t for s in states]),
                         _stack([s.pos for s in states], (4, 3)),
                         _stack([s.q for s in states], (4,)),
                         _stack([s.wvec for s in states], (3, 3)))
        pub = predict_horizon(x, h, 12, cfg)
        assert pub.p.shape == (len(states), 3) and pub.q.shape == (len(states), 4)
        for i, s in enumerate(states):
            one = predict_horizon(s, h, 12, cfg)
            assert (_bits((pub.t[i], *pub.p[i], *pub.q[i])).tolist()
                    == _bits((one.t, *one.p, *one.q)).tolist())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MODEL_NAMES), st.data())
def test_stacked_forecast_of_a_stream_is_what_step_rolls_out(model, data):
    # every tick of a hard stream under drawn losses on a jittered clock:
    # the forecasts rolled out after the loop are, at every kept step, the
    # rollout the tick's step takes from its state
    trace = _hard_trace()
    n = len(trace)
    mask = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    jitter = data.draw(st.lists(st.floats(-0.004, 0.004), min_size=n, max_size=n))
    jittered = Trace(trace.t + np.array(jitter), trace.p, trace.q)
    steps = _kept_steps(data.draw)
    cfg = FilterConfig(model=model, dt=0.01, horizon_steps=max(steps))
    pred = make_predictor(cfg, jittered.pose(0))
    states, expect = [], []
    for k, received in enumerate(mask, start=1):
        pub = pred.step(jittered.pose(k), received=received)
        states.append(pred.x)
        expect.append(_scalar_rollout(cfg, pred.x, max(steps)))
        assert (*pub.p, *pub.q) == expect[-1][-1]
    for n_steps, rows in zip(steps, pred.forecasts(states, steps)):
        assert rows.tobytes() == np.array([e[n_steps - 1] for e in expect]).tobytes()


def _predictor_state(pred):
    if pred.config.model == "KF":
        return pred.t, pred.x, pred.chain
    return pred.x, pred.chain, pred.att_chain, list(pred.window)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MODEL_NAMES), st.integers(1, 12), st.data())
def test_update_then_forecast_is_step(model, n, data):
    # step is update and then the forecast, in its state and its pose
    trace = _hard_trace()
    mask = data.draw(st.lists(st.booleans(), min_size=1, max_size=len(trace) - 1))
    cfg = FilterConfig(model=model, dt=0.01, horizon_steps=n)
    stepped, updated = (make_predictor(cfg, trace.pose(0)) for _ in range(2))
    for k, received in enumerate(mask, start=1):
        pub = stepped.step(trace.pose(k), received=received)
        assert updated.update(trace.pose(k), received=received) is None
        if model == "KF":
            p, q = _cv_chain(*updated.x, cfg.dt, n, [])
            t = updated.t + n * cfg.dt
        else:
            forecast = predict_horizon(updated.x, cfg.dt, n, cfg)
            t, p, q = forecast.t, forecast.p, forecast.q
        assert _bits((pub.t, *pub.p, *pub.q)).tolist() == _bits((t, *p, *q)).tolist()
        assert _predictor_state(updated) == _predictor_state(stepped)


@st.composite
def stream_masks(draw, n):
    """n received flags, drawn as one of a stream's edge cases."""
    case = draw(st.sampled_from(("any", "leading losses", "all lost", "one received",
                                 "long coast")))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if case == "all lost":
        return [False] * n
    if case == "one received":
        return [k == draw(st.integers(0, n - 1)) for k in range(n)]
    a = draw(st.integers(0, n))
    if case == "leading losses":
        return [False] * a + mask[a:]
    if case == "long coast":
        b = draw(st.integers(a, n))
        return mask[:a] + [False] * (b - a) + mask[b:]
    return mask


@st.composite
def tracked_streams(draw):
    """(poses, mask) of a hard stream on a jittered clock: the first pose
    and then one per tick. Its orientation is held, within a few 1e-10
    rad, over drawn runs of ticks, so pairs of received poses there take
    the log map's s < 1e-9 branch, and drawn poses are negated, so their
    products with the poses before them have w < 0."""
    trace = _hard_trace()
    n = len(trace)
    jitter = draw(st.lists(st.floats(-0.004, 0.004), min_size=n, max_size=n))
    t = (trace.t + np.array(jitter)).tolist()
    q = trace.q.copy()
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(0, n - 1))
        for k in range(a + 1, min(n, a + draw(st.integers(2, 40)))):
            tiny = [draw(st.floats(-2e-10, 2e-10)) for _ in range(3)]
            q[k] = so3._mul(q[a], so3._exp(tiny))
    negated = draw(st.lists(st.integers(0, n - 1), max_size=20))
    q[negated] *= -1.0
    poses = [Pose(t[k], trace.p[k].copy(), q[k]) for k in range(n)]
    return poses, draw(stream_masks(n - 1))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MODEL_NAMES), tracked_streams(), st.data())
def test_track_is_the_update_loop_bit_for_bit(model, stream, data):
    # every state track returns, and the filter it leaves, window included,
    # is the update loop's; repr tells every float apart, -0.0 from 0.0
    # too. The stream is tracked in two calls, so the second starts from a
    # window that holds from one node to min_window
    poses, mask = stream
    cfg = FilterConfig(model=model, dt=0.01, horizon_steps=3)
    looped, tracked = (make_predictor(cfg, poses[0]) for _ in range(2))
    expect = []
    for z, received in zip(poses[1:], mask):
        looped.update(z, received)
        expect.append(looped.x)
    cut = data.draw(st.integers(1, len(poses)))
    states = (tracked.track(poses[1:cut], mask[:cut - 1])
              + tracked.track(poses[cut:], mask[cut - 1:]))
    assert repr(states) == repr(expect)
    assert repr(_predictor_state(tracked)) == repr(_predictor_state(looped))


@pytest.mark.parametrize("model", _ESKF_MODELS)
def test_stacked_forecast_refuses_an_infinite_increment_as_step_does(model):
    # math.sin refuses an infinite angle; the stacked rollout raises too
    cfg = FilterConfig(model=model, dt=0.01, horizon_steps=3)
    pred = make_predictor(cfg, Pose(0.0, np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0])))
    # a rate derivative that keeps the third-order cross terms from 0 * inf
    wd = (1.0, 1.0, 1.0) if cfg.ord_rot > 1 else so3._ZERO3
    fine = NominalState(0.0, wvec=((1.0, 0.0, 0.0), wd, so3._ZERO3))
    wild = fine._replace(wvec=((math.inf, 0.0, 0.0), wd, so3._ZERO3))
    with pytest.raises(ValueError, match="math domain error"):
        predict_horizon(wild, cfg.dt, 3, cfg)
    with pytest.raises(ValueError, match="math domain error"):
        pred.forecasts([fine, wild], [1, 3])


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
    states = []
    for k, received in enumerate(mask, start=1):
        pred.step(trace.pose(k), received=received)
        states.append(pred.x)
        P = pred.P
        assert np.array_equal(P, P.T)
        assert np.linalg.eigvalsh(P)[0] >= -1e-12 * np.abs(P).max()
        q = pred.x[2] if model == "KF" else pred.x.q
        assert abs(np.linalg.norm(q) - 1.0) <= 1e-12
    for rows in pred.forecasts(states, range(1, 11)):
        assert (np.abs(np.linalg.norm(rows[:, 3:], axis=1) - 1.0) <= 1e-12).all()


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
    states = {m: [] for m in _ESKF_MODELS}
    for preds in _jittered_eskf_streams(data, 5):
        for m, pred in preds.items():
            states[m].append(pred.x)
    # the stacked forecast the sweep reads, every tick and step at once
    rollouts = {m: np.array(pred.forecasts(states[m], range(1, 6)))
                for m, pred in preds.items()}
    for half, pairs in ((slice(0, 3), same_pos), (slice(3, 7), same_rot)):
        for a, b in pairs:
            assert (rollouts[a][..., half].tobytes()
                    == rollouts[b][..., half].tobytes()), (a, b)


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
