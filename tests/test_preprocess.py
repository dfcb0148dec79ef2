import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

import numpy_reference as ref
from posecast import so3
from posecast.preprocess import (StreamFilter, chunk_trace,
                                 design_butterworth_lowpass, filter_trace)
from posecast.traces import Pose, Trace, generate_synthetic_trace


def sos_freq_response(sos, f_hz, fs_hz):
    """Evaluate the cascade transfer function on the unit circle directly."""
    z = np.exp(2j * np.pi * f_hz / fs_hz)
    h = 1.0 + 0.0j
    for b0, b1, b2, a0, a1, a2 in sos:
        h *= (b0 + b1 / z + b2 / z ** 2) / (a0 + a1 / z + a2 / z ** 2)
    return h


def make_trace(n, dt=0.01, fn=None):
    t = np.arange(n) * dt
    p = np.zeros((n, 3))
    q = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    if fn is not None:
        for i in range(n):
            p[i], q[i] = fn(t[i])
    return Trace(t, p, q)


def test_design_rejects_bad_parameters():
    with pytest.raises(ValueError):
        design_butterworth_lowpass(order=3)
    with pytest.raises(ValueError):
        design_butterworth_lowpass(cutoff_hz=50.0, sample_hz=100.0)
    with pytest.raises(ValueError):
        design_butterworth_lowpass(cutoff_hz=0.0)
    for bad in (math.inf, -math.inf, math.nan):
        # an infinite rate passes the range check alone
        with pytest.raises(ValueError):
            design_butterworth_lowpass(cutoff_hz=bad)
        with pytest.raises(ValueError):
            design_butterworth_lowpass(sample_hz=bad)


@pytest.mark.parametrize("order", [2, 4])
def test_design_equals_scipy_butter_bit_for_bit(order):
    # scipy.signal stays the reference here and nowhere else. The rates
    # include 1 / median_dt of 100 Hz clocks with float noise, as a sweep
    # derives them, and of jittered ones.
    rng = np.random.default_rng(21)
    clocks = [np.arange(n) * 0.01 for n in range(201, 301)]
    clocks += [np.cumsum(0.01 + rng.normal(0.0, 1e-4, 300)) for _ in range(100)]
    rates = [1.0 / float(np.median(np.diff(t))) for t in clocks]   # as Trace.median_dt
    rates += [100.0, 60.0, 90.0, 120.0, *rng.uniform(20.5, 1000.0, 200)]
    for fs in rates:
        for fc in (2.5, 5.0, 10.0):
            want = sps.butter(order, fc, fs=fs, output="sos")
            got = design_butterworth_lowpass(order, fc, fs)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (fs, fc)


def test_design_shapes():
    assert design_butterworth_lowpass(order=2).shape == (1, 6)
    assert design_butterworth_lowpass(order=4).shape == (2, 6)


def test_dc_gain_unity():
    for order in (2, 4):
        sos = design_butterworth_lowpass(order=order, cutoff_hz=5.0, sample_hz=100.0)
        gain = 1.0
        for b0, b1, b2, a0, a1, a2 in sos:
            gain *= (b0 + b1 + b2) / (a0 + a1 + a2)
        assert abs(gain - 1.0) <= 1e-12


def test_cutoff_attenuation_order2():
    sos = design_butterworth_lowpass(order=2, cutoff_hz=5.0, sample_hz=100.0)
    mag_db = 20.0 * np.log10(abs(sos_freq_response(sos, 5.0, 100.0)))
    assert abs(mag_db - (-3.0102999566)) <= 0.1
    stop_db = 20.0 * np.log10(abs(sos_freq_response(sos, 25.0, 100.0)))
    assert stop_db <= -26.0


def test_sinusoid_steady_state_matches_response():
    # time-domain amplitude at 25 Hz agrees with |H| within 2%
    sos = design_butterworth_lowpass(order=2, cutoff_hz=5.0, sample_hz=100.0)
    f = StreamFilter(sos)
    amp_ref = abs(sos_freq_response(sos, 25.0, 100.0))
    t = np.arange(2000) * 0.01
    x = np.sin(2.0 * np.pi * 25.0 * t)
    out = np.empty_like(x)
    for i, xi in enumerate(x):
        pose = Pose(t[i], np.array([xi, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]))
        out[i] = f.filter_sample(pose).p[0]
    steady = out[1000:]
    amp = np.sqrt(2.0 * np.mean(steady ** 2))  # phase-robust amplitude estimate
    assert abs(amp - amp_ref) / amp_ref < 0.02


def test_streaming_matches_sosfilt():
    rng = np.random.default_rng(20)
    sos = design_butterworth_lowpass(order=4, cutoff_hz=5.0, sample_hz=100.0)
    x = rng.normal(size=(500, 3))
    f = StreamFilter(sos)
    mine = np.empty_like(x)
    for i in range(len(x)):
        pose = Pose(i * 0.01, x[i], np.array([1.0, 0.0, 0.0, 0.0]))
        mine[i] = f.filter_sample(pose).p
    ref = sps.sosfilt(sos, x, axis=0)
    assert np.abs(mine - ref).max() < 1e-12


def test_causal_prefix_bit_exact():
    trace = generate_synthetic_trace("medium", 3.0, seed=3)
    sos = design_butterworth_lowpass()
    full = filter_trace(trace, sos)
    prefix = filter_trace(trace[:150], sos)
    assert np.array_equal(full.p[:150], prefix.p)
    assert np.array_equal(full.q[:150], prefix.q)


def test_filtered_quaternions_unit_and_continuous():
    trace = generate_synthetic_trace("hard", 5.0, seed=4)
    out = filter_trace(trace, design_butterworth_lowpass())
    norms = np.linalg.norm(out.q, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12
    dots = np.sum(out.q[1:] * out.q[:-1], axis=1)
    assert dots.min() > 0.0


def test_hemisphere_alignment_of_inputs():
    # a sign-flipped input stream filters identically to the aligned one
    trace = generate_synthetic_trace("easy", 2.0, seed=5)
    flipped = Trace(trace.t.copy(), trace.p.copy(), trace.q.copy())
    flipped.q[50:] = -flipped.q[50:]
    sos = design_butterworth_lowpass()
    a = filter_trace(trace, sos)
    b = filter_trace(flipped, sos)
    for i in range(len(a)):
        assert so3.geodesic_distance(a.q[i], b.q[i]) < 1e-12


def test_constant_orientation_survives_startup():
    # renormalization cancels the scalar warmup of a constant quaternion
    qc = so3.quat_exp(np.array([0.4, -0.2, 0.1]))
    n = 50
    trace = Trace(np.arange(n) * 0.01, np.zeros((n, 3)), np.tile(qc, (n, 1)))
    out = filter_trace(trace, design_butterworth_lowpass())
    for i in range(1, n):
        assert so3.geodesic_distance(out.q[i], qc) < 1e-9


def test_order4_step_settles_monotonically_enough():
    sos = design_butterworth_lowpass(order=4, cutoff_hz=5.0, sample_hz=100.0)
    f = StreamFilter(sos)
    out = []
    for i in range(100):
        pose = Pose(i * 0.01, np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]))
        out.append(f.filter_sample(pose).p[0])
    out = np.array(out)
    assert abs(out[50] - 1.0) < 0.01
    assert out.max() < 1.15


def test_chunking_partition():
    trace = generate_synthetic_trace("easy", 5.5, seed=6)  # 550 samples
    chunks = chunk_trace(trace)
    assert len(chunks) == 2
    assert all(len(c) == 200 for c in chunks)
    assert np.array_equal(chunks[1].t, trace.t[200:400])


def test_chunking_short_trace_gives_no_chunks():
    trace = generate_synthetic_trace("easy", 1.0, seed=7)
    assert chunk_trace(trace) == []


# ------------------------------------------- float prefilter against numpy

def _sign_flipped(trace):
    """The trace with every third quaternion negated, as a sender may send it."""
    q = trace.q.copy()
    q[::3] = -q[::3]
    return Trace(trace.t.copy(), trace.p.copy(), q)


def _assert_matches_reference(sos, poses):
    # the biquads keep numpy's operation order; only the norm (a BLAS dot
    # product there, math.sqrt here) and the sign check's dot may round apart
    mine, oracle = StreamFilter(sos), ref.RefStreamFilter(sos)
    for pose in poses:
        a, b = mine.filter_sample(pose), oracle.filter_sample(pose)
        assert isinstance(a.p, np.ndarray) and isinstance(a.q, np.ndarray)
        assert a.t == b.t
        assert np.array_equal(a.p, b.p)
        assert np.all(np.abs(a.q - b.q) <= 2 * np.spacing(np.abs(b.q)))


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("flip", [False, True])
def test_matches_numpy_reference(order, flip):
    sos = design_butterworth_lowpass(order=order)
    assert len(sos) == order // 2
    for profile, seed in (("easy", 1), ("medium", 2), ("hard", 3)):
        trace = generate_synthetic_trace(profile, 3.0, seed=seed)
        if flip:
            trace = _sign_flipped(trace)
        _assert_matches_reference(sos, [trace.pose(i) for i in range(len(trace))])


def test_list_fields_filter_like_arrays():
    trace = _sign_flipped(generate_synthetic_trace("hard", 2.0, seed=8))
    sos = design_butterworth_lowpass(order=4)
    arrays, lists = StreamFilter(sos), StreamFilter(sos)
    for i in range(len(trace)):
        pose = trace.pose(i)
        a = arrays.filter_sample(pose)
        b = lists.filter_sample(Pose(pose.t, pose.p.tolist(), pose.q.tolist()))
        assert np.array_equal(a.p, b.p) and np.array_equal(a.q, b.q)
    _assert_matches_reference(sos, [Pose(float(t), p, q) for t, p, q in
                                    zip(trace.t, trace.p.tolist(), trace.q.tolist())])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("component", range(7))
def test_non_finite_input_is_refused_and_leaves_the_filter(component, value):
    f = StreamFilter(design_butterworth_lowpass())
    f.filter_sample(Pose(0.0, [0.1, 0.2, 0.3], [0.0, 0.6, 0.0, 0.8]))
    state, prev_q = list(f._z), f._prev_q
    pq = [0.1, 0.2, 0.3, -0.6, 0.0, 0.8, 0.0]
    pq[component] = value
    with pytest.raises(ValueError, match=r"t = 0\.01 is not finite"):
        f.filter_sample(Pose(0.01, pq[:3], pq[3:]))
    assert f._z == state and f._prev_q == prev_q


def test_stream_after_a_refused_sample_is_the_stream_without_it():
    # a NaN at sample 10 of a 1 s trace once left p[0] NaN to the last sample
    trace = _sign_flipped(generate_synthetic_trace("hard", 1.0, seed=4))
    poses = [trace.pose(i) for i in range(len(trace))]
    sos = design_butterworth_lowpass()
    seen, unseen = StreamFilter(sos), StreamFilter(sos)
    for k, pose in enumerate(poses):
        if k == 10:
            with pytest.raises(ValueError, match="not finite"):
                seen.filter_sample(Pose(pose.t, [math.nan, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]))
        a, b = seen.filter_sample(pose), unseen.filter_sample(pose)
        assert np.array_equal(a.p, b.p) and np.array_equal(a.q, b.q)
    assert np.isfinite(a.p).all() and np.isfinite(a.q).all()


def test_zero_norm_quaternion_gives_nan():
    # the first output is b0 times the input, so a zero quaternion stays zero
    f = StreamFilter(design_butterworth_lowpass())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = f.filter_sample(Pose(0.0, [0.1, 0.2, 0.3], [0.0, 0.0, 0.0, 0.0]))
    assert np.isfinite(out.p).all()
    assert np.isnan(out.q).all()


def test_sos_shape_is_checked():
    with pytest.raises(ValueError, match="n_sections, 6"):
        StreamFilter(np.zeros(6))
    with pytest.raises(ValueError, match="n_sections, 6"):
        StreamFilter(np.zeros((1, 5)))


_step = st.floats(-0.3, 0.3, allow_nan=False)


@st.composite
def pose_streams(draw):
    """Short random-walk pose traces whose quaternion signs flip at random."""
    n = draw(st.integers(1, 60))
    steps = draw(st.lists(st.tuples(_step, _step, _step, _step, _step, _step,
                                    st.booleans()), min_size=n, max_size=n))
    p, q = np.zeros((n, 3)), np.empty((n, 4))
    pos, rot = np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0])
    for i, (*d, flip) in enumerate(steps):
        pos = pos + d[:3]
        rot = so3.quat_multiply(rot, so3.quat_exp(np.array(d[3:])))
        p[i], q[i] = pos, -rot if flip else rot
    return Trace(np.arange(n) * 0.01, p, q)


@settings(max_examples=150, deadline=None)
@given(pose_streams(), st.sampled_from([2, 4]), st.data())
def test_streamed_prefix_is_the_batch_prefix(trace, order, data):
    sos = design_butterworth_lowpass(order=order)
    full = filter_trace(trace, sos)
    k = data.draw(st.integers(1, len(trace)))
    f = StreamFilter(sos)
    for i in range(k):
        out = f.filter_sample(trace.pose(i))
        assert np.array_equal(out.p, full.p[i]) and np.array_equal(out.q, full.q[i])
    norms = np.sqrt(np.sum(full.q * full.q, axis=1))
    assert np.abs(norms - 1.0).max() <= 1e-15
