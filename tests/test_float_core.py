"""The Python-float filter core against its numpy reference, and property
tests of the float rotation kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posecast import so3
from posecast.filters import MODEL_NAMES, FilterConfig, make_predictor
from posecast.traces import generate_synthetic_trace

import numpy_reference as ref


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_step_matches_numpy_reference(model):
    # 3 s of hard motion with 40% of the packets lost; every tick's whole
    # rollout and covariance are compared, so drift would show too
    trace = generate_synthetic_trace("hard", 3.0, seed=8)
    mask = np.random.default_rng(3).random(len(trace)) > 0.4
    dt, n = 0.01, 10
    pred = make_predictor(FilterConfig(model=model, dt=dt, horizon_steps=n),
                          trace.pose(0))
    oracle = ref.make_reference(model, trace.pose(0), dt, n)
    for k in range(1, len(trace)):
        received = bool(mask[k])
        pub = pred.step(trace.pose(k), received=received)
        expect = oracle.step(trace.pose(k), received)
        assert len(pred.rollout) == len(expect) == n
        for (p, q), (p_ref, q_ref) in zip(pred.rollout, expect):
            assert np.abs(p - p_ref).max() <= 1e-12
            assert np.abs(q - q_ref).max() <= 1e-12
        assert pub.p is pred.rollout[-1][0] and pub.q is pred.rollout[-1][1]
        scale = np.abs(oracle.P).max()
        assert np.abs(pred.P - oracle.P).max() <= 1e-9 * scale


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


@settings(max_examples=300, deadline=None)
@given(st.one_of(rotvecs(), _rate))
def test_rodrigues_is_a_rotation(v):
    R = so3.rotvec_to_matrix(v)
    assert np.abs(R @ R.T - np.eye(3)).max() <= 1e-12
    assert abs(np.linalg.det(R) - 1.0) <= 1e-12
    np.testing.assert_allclose(R, ref.rotvec_to_matrix(np.array(v)), rtol=0, atol=1e-12)
