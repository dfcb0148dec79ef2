"""End-to-end checks of the sweep harness: seeding, pooling, reporting."""

import dataclasses
import itertools
import re

import numpy as np
import pytest
from scipy.signal import butter, group_delay

from posecast.classifier import MotionClass, classify, discretize_chunk, lz_entropy
from posecast.experiment import (
    SAMPLES_COLUMNS,
    ExperimentConfig,
    _cell_rng,
    _stream_plan,
    emit_report,
    horizon_steps,
    prepare_trace,
    run_experiment,
    score_picks,
    simulate_drop,
    stream_picks,
)
from posecast.filters import MODEL_NAMES, FilterConfig, make_predictor
from posecast.metrics import orientation_error, position_error
from posecast.preprocess import CHUNK_LEN, chunk_trace, design_butterworth_lowpass, filter_trace
from posecast.traces import Trace, generate_synthetic_trace

import numpy_reference as ref


def _stationary_trace(duration_s=20.0, hz=100.0):
    n = int(round(duration_s * hz))
    t = np.arange(n) / hz
    p = np.zeros((n, 3))
    q = np.zeros((n, 4))
    q[:, 0] = 1.0
    return Trace(t, p, q)


def _const_velocity_trace(v=0.25, duration_s=30.0, hz=100.0):
    n = int(duration_s * hz)
    t = np.arange(n) / hz
    p = np.zeros((n, 3))
    p[:, 0] = v * t
    q = np.zeros((n, 4))
    q[:, 0] = 1.0
    return Trace(t, p, q)


class TestSimulateDrop:
    def test_rate_zero_always_received(self):
        rng = np.random.default_rng(0)
        assert all(simulate_drop(rng, 0.0) for _ in range(1000))

    def test_rate_one_never_received(self):
        rng = np.random.default_rng(0)
        assert not any(simulate_drop(rng, 1.0) for _ in range(1000))

    def test_half_rate_frequency(self):
        rng = np.random.default_rng(7)
        hits = sum(simulate_drop(rng, 0.5) for _ in range(100000))
        assert abs(hits / 100000 - 0.5) < 0.01

    def test_same_seed_same_sequence(self):
        r1 = np.random.default_rng(11)
        r2 = np.random.default_rng(11)
        s1 = [simulate_drop(r1, 0.3) for _ in range(200)]
        s2 = [simulate_drop(r2, 0.3) for _ in range(200)]
        assert s1 == s2

    @pytest.mark.parametrize("rate", [-0.1, 1.0001, np.nan])
    def test_rejects_bad_rate(self, rate):
        with pytest.raises(ValueError):
            simulate_drop(np.random.default_rng(0), rate)


class TestExperimentConfig:
    def test_default_sweep_grid(self):
        cfg = ExperimentConfig()
        assert cfg.models == ("KF", "ESKF", "p2o2", "p2o3", "p3o3")
        assert cfg.horizons_ms == (20, 40, 60, 80, 100)
        assert cfg.drop_rates == (0.0, 0.1, 0.3, 0.5)
        assert cfg.repeats == 10

    def test_model_names_canonicalized(self):
        cfg = ExperimentConfig(models=("kf", "eskf", "P2O2"))
        assert cfg.models == ("KF", "ESKF", "p2o2")

    @pytest.mark.parametrize("kwargs", [
        {"models": ("nope",)},
        {"models": ()},
        {"horizons_ms": ()},
        {"horizons_ms": (0,)},
        {"drop_rates": ()},
        {"drop_rates": (1.5,)},
        {"drop_rates": (-0.2,)},
        {"repeats": 0},
        {"master_seed": -1},
        {"models": (None,)},
        {"models": "KF"},
        {"horizons_ms": 100},
        {"drop_rates": 0.5},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("models", "KF"), ("models", b"KF"), ("horizons_ms", 100), ("horizons_ms", "100"),
        ("drop_rates", 0.5), ("drop_rates", np.float64(0.5)),
    ])
    def test_rejects_a_bare_value_for_a_list_field(self, field, value):
        # a string is one value, not the list of its characters
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value})

    def test_takes_each_list_field_from_any_iterable(self):
        # the checks read the horizons twice, so a generator is taken whole first
        cfg = ExperimentConfig(models=iter(["kf"]), horizons_ms=(h for h in (20, 40.0)),
                               drop_rates=map(float, ("0", "0.5")))
        assert (cfg.models, cfg.horizons_ms, cfg.drop_rates) == (("KF",), (20, 40), (0.0, 0.5))

    @pytest.mark.parametrize("field, value", [
        ("horizons_ms", "20"), ("horizons_ms", 20.5), ("horizons_ms", None),
        ("drop_rates", "0.5"), ("drop_rates", None), ("drop_rates", b"0"),
    ])
    def test_rejects_list_entries_that_are_not_numbers(self, field, value):
        # float() would read "20" as 20 ms and "0.5" as a drop rate
        with pytest.raises(ValueError, match=f"^{field} must be a "):
            ExperimentConfig(**{field: [value]})

    @pytest.mark.parametrize("field", ["repeats", "master_seed"])
    @pytest.mark.parametrize("value", [2, 2.0, np.int64(2), np.uint8(2), np.float64(2.0)])
    def test_whole_numbers_are_stored_as_int(self, field, value):
        cfg = ExperimentConfig(**{field: value})
        assert type(getattr(cfg, field)) is int and getattr(cfg, field) == 2

    @pytest.mark.parametrize("field", ["repeats", "master_seed"])
    @pytest.mark.parametrize("value", [2.5, np.float64(1.5), np.nan, np.inf, "2", None])
    def test_rejects_values_that_are_not_whole(self, field, value):
        # these used to pass here and fail inside run_experiment with a
        # TypeError from range() or from the seed sequence
        with pytest.raises(ValueError, match=f"{field} must be a whole number"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("repeats", True), ("master_seed", False), ("horizons_ms", [True]),
        ("drop_rates", [True]), ("drop_rates", [False]),
    ])
    def test_rejects_a_bool_as_a_number(self, field, value):
        # Python counts a bool as an integer: repeats=True used to run one
        # repeat and drop_rates=(True,) the drop rate 1.0
        with pytest.raises(ValueError, match=f"^{field} must be a "):
            ExperimentConfig(**{field: value})

    def test_frozen_so_every_value_passes_the_checks(self):
        cfg = ExperimentConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.repeats = 2.5
        with pytest.raises(ValueError, match="repeats must be a whole number"):
            dataclasses.replace(cfg, repeats=2.5)
        assert dataclasses.replace(cfg, models=("kf",)).models == ("KF",)

    def test_rejects_drop_rates_that_would_share_their_losses(self):
        # masks are seeded by whole millionths of the drop rate, so 0.1 and
        # 0.1000004 would draw identical losses under two labels
        with pytest.raises(ValueError, match="same losses"):
            ExperimentConfig(drop_rates=(0.0, 0.1, 0.1000004))
        assert ExperimentConfig(drop_rates=(0.1, 0.100001)).drop_rates == (0.1, 0.100001)


class TestRunExperiment:
    def test_requires_traces(self):
        cfg = ExperimentConfig(models=("KF",), horizons_ms=(50,),
                               drop_rates=(0.0,), repeats=1)
        with pytest.raises(ValueError):
            run_experiment(cfg, [])

    def test_horizon_below_one_tick_rejected(self):
        cfg = ExperimentConfig(models=("KF",), horizons_ms=(4,),
                               drop_rates=(0.0,), repeats=1)
        with pytest.raises(ValueError, match="one tick"):
            run_experiment(cfg, [_stationary_trace(5.0)])

    def test_row_accounting(self):
        cfg = ExperimentConfig(models=("KF",), horizons_ms=(50,),
                               drop_rates=(0.0,), repeats=3,
                               keep_samples=True)
        tr = _stationary_trace(20.0)
        rep = run_experiment(cfg, [tr])
        # a stationary trace is one long Easy stretch
        assert all(c == MotionClass.EASY for c in rep.chunk_classes[0])
        assert len(rep.per_repeat) == 3
        assert len(rep.aggregates) == 1
        # ticks 1 .. n-1 stream; the last n_steps have no future target
        n, n_steps = 2000, 5
        per_tick = n - 1 - n_steps
        assert all(r.n_ticks == per_tick for r in rep.per_repeat)
        agg = rep.aggregates[0]
        assert agg.n_repeats == 3
        assert agg.n_samples == 3 * per_tick
        assert len(rep.samples) == 3 * per_tick
        assert not rep.failures

    def test_stationary_trace_zero_error_all_models(self):
        cfg = ExperimentConfig(horizons_ms=(50,), drop_rates=(0.0,),
                               repeats=1, keep_samples=False)
        rep = run_experiment(cfg, [_stationary_trace(10.0)])
        assert len(rep.aggregates) == len(cfg.models)
        for r in rep.aggregates:
            assert r.pos_mean_mm < 1e-6
            assert r.ori_mean_deg < 1e-6

    def test_zero_drop_repeats_identical(self):
        cfg = ExperimentConfig(models=("p2o2",), horizons_ms=(40,),
                               drop_rates=(0.0,), repeats=3,
                               keep_samples=False)
        rep = run_experiment(cfg, [generate_synthetic_trace("medium", 10.0, seed=4)])
        rows = [r for r in rep.per_repeat]
        assert len(rows) >= 3
        by_cls = {}
        for r in rows:
            by_cls.setdefault(r.motion_class, []).append(r)
        for group in by_cls.values():
            assert len(group) == 3
            assert len({r.pos_mean_mm for r in group}) == 1
            assert len({r.ori_mean_deg for r in group}) == 1

    def test_constant_velocity_lag_matches_prefilter_group_delay(self):
        # the causal low-pass delays a ramp by its DC group delay, and a
        # polynomial model extrapolates the delayed ramp exactly, so the
        # end-to-end error is v * tau regardless of horizon
        v, hz = 0.25, 100.0
        b, a = butter(2, 5.0, fs=hz)
        _, gd = group_delay((b, a), w=[1e-4], fs=hz)
        expected_mm = 1000.0 * v * gd[0] / hz
        cfg = ExperimentConfig(models=("KF", "p3o3"), horizons_ms=(20, 100),
                               drop_rates=(0.0,), repeats=1,
                               keep_samples=False)
        rep = run_experiment(cfg, [_const_velocity_trace(v=v)])
        for h in (20, 100):
            r = rep.aggregate("p3o3", MotionClass.HARD, h, 0.0)
            assert r is not None
            assert r.pos_mean_mm == pytest.approx(expected_mm, rel=0.02)
            assert r.ori_mean_deg == 0.0
        r20 = rep.aggregate("p3o3", MotionClass.HARD, 20, 0.0)
        r100 = rep.aggregate("p3o3", MotionClass.HARD, 100, 0.0)
        assert abs(r100.pos_mean_mm - r20.pos_mean_mm) < 0.1
        for h in (20, 100):
            r = rep.aggregate("KF", MotionClass.HARD, h, 0.0)
            assert r.pos_mean_mm == pytest.approx(expected_mm, rel=0.15)

    def test_slow_constant_velocity_kf_under_one_mm(self):
        # desk-scale drift: the model is exact on a ramp, so the only error
        # left is the prefilter's group-delay lag, well under a millimeter
        cfg = ExperimentConfig(models=("KF",), horizons_ms=(100,),
                               drop_rates=(0.0,), repeats=1,
                               keep_samples=False)
        rep = run_experiment(cfg, [_const_velocity_trace(v=0.015)])
        assert rep.aggregates
        for r in rep.aggregates:
            assert r.pos_mean_mm < 1.0

    def test_sample_count_splits_across_classes(self):
        cfg = ExperimentConfig(models=("p2o2",), horizons_ms=(40,),
                               drop_rates=(0.0,), repeats=1,
                               keep_samples=False)
        tr = generate_synthetic_trace("medium", 30.0, seed=1)
        rep = run_experiment(cfg, [tr])
        total = sum(r.n_samples for r in rep.aggregates)
        assert total == 3000 - 1 - 4

    def test_cell_results_independent_of_sweep_shape(self):
        tr = generate_synthetic_trace("medium", 15.0, seed=2)
        wide = ExperimentConfig(models=("KF", "p3o3"), horizons_ms=(20, 60),
                                drop_rates=(0.0, 0.5), repeats=2,
                                keep_samples=False)
        narrow = ExperimentConfig(models=("p3o3",), horizons_ms=(60,),
                                  drop_rates=(0.5,), repeats=2,
                                  keep_samples=False)
        rep_w = run_experiment(wide, [tr])
        rep_n = run_experiment(narrow, [tr])
        picked_w = sorted(
            ((r.motion_class, r.repeat, r.pos_mean_mm, r.ori_mean_deg)
             for r in rep_w.per_repeat
             if r.model == "p3o3" and r.horizon_ms == 60 and r.drop_rate == 0.5))
        picked_n = sorted(
            ((r.motion_class, r.repeat, r.pos_mean_mm, r.ori_mean_deg)
             for r in rep_n.per_repeat))
        assert picked_w == picked_n

    def test_drop_degrades_and_varies_by_repeat(self):
        tr = generate_synthetic_trace("medium", 15.0, seed=2)
        cfg = ExperimentConfig(models=("p3o3",), horizons_ms=(60,),
                               drop_rates=(0.0, 0.5), repeats=2,
                               keep_samples=False)
        rep = run_experiment(cfg, [tr])
        def mean_of(drop, repeat):
            vals = [r.pos_mean_mm for r in rep.per_repeat
                    if r.drop_rate == drop and r.repeat == repeat]
            assert vals
            return float(np.mean(vals))
        assert mean_of(0.5, 0) > mean_of(0.0, 0)
        assert mean_of(0.5, 0) != mean_of(0.5, 1)

    def test_degenerate_filter_recorded_not_raised(self, monkeypatch):
        class _Boom:
            def track(self, poses, received):
                raise ValueError("innovation covariance is degenerate")

        monkeypatch.setattr("posecast.experiment.make_predictor",
                            lambda cfg, pose: _Boom())
        cfg = ExperimentConfig(models=("KF",), horizons_ms=(50,),
                               drop_rates=(0.0,), repeats=2)
        traces = [_stationary_trace(5.0), _stationary_trace(5.0)]
        rep = run_experiment(cfg, traces)
        assert len(rep.failures) == 2 * 2
        assert not rep.per_repeat
        assert not rep.aggregates
        assert not rep.samples
        f = rep.failures[0]
        assert (f.model, f.horizon_ms, f.drop_rate) == ("KF", 50, 0.0)
        assert "degenerate" in f.reason

    def test_refused_tick_fails_its_cells_not_the_sweep(self):
        # a NaN sample 1.5 s into a 4 s trace: every stream over it meets
        # the filters' ValueError in scored ticks; it goes last, so the
        # other traces' drop masks match a sweep without it
        good = [generate_synthetic_trace("hard", 4.0, seed=s) for s in (1, 2)]
        raw = generate_synthetic_trace("hard", 4.0, seed=3)
        p = raw.p.copy()
        p[150, 1] = np.nan
        cfg = ExperimentConfig(models=("KF", "p3o3"), horizons_ms=(20, 60),
                               drop_rates=(0.0, 0.3), repeats=2, master_seed=5)
        clean = run_experiment(cfg, good)
        rep = run_experiment(cfg, good + [Trace(raw.t, p, raw.q)])
        assert len(rep.failures) == 2 * 2 * 2 * 2
        assert {f.trace_index for f in rep.failures} == {2}
        assert all("not finite" in f.reason for f in rep.failures)
        assert rep.per_repeat == clean.per_repeat
        assert rep.aggregates == clean.aggregates
        assert rep.samples == clean.samples

    def test_refused_first_pose_fails_its_cells_not_the_sweep(self):
        # a trace whose first timestamp is -inf still has a median tick and
        # classifiable chunks, but its first pose is refused when the
        # predictor is built; that fails the trace's cells, and the other
        # traces score as in a sweep without it
        good = [generate_synthetic_trace("hard", 4.0, seed=s) for s in (1, 2)]
        raw = generate_synthetic_trace("hard", 4.0, seed=3)
        t = raw.t.copy()
        t[0] = -np.inf
        cfg = ExperimentConfig(models=("KF", "p3o3"), horizons_ms=(20, 60),
                               drop_rates=(0.0, 0.3), repeats=2, master_seed=5)
        clean = run_experiment(cfg, good)
        rep = run_experiment(cfg, good + [Trace(t, raw.p, raw.q)])
        assert len(rep.failures) == 2 * 2 * 2 * 2
        assert {f.trace_index for f in rep.failures} == {2}
        assert all("t = -inf is not finite" in f.reason for f in rep.failures)
        assert rep.per_repeat == clean.per_repeat
        assert rep.aggregates == clean.aggregates
        assert rep.samples == clean.samples

    def test_bad_median_tick_fails_its_cells_not_the_sweep(self):
        # a NaN timestamp makes trace 1's median tick interval NaN, so it
        # cannot be filtered at all; it sits between two good traces and
        # its drop masks are still drawn, so trace 2 scores exactly as in
        # a sweep whose middle trace has clean timestamps
        tr0, tr1, tr2 = (generate_synthetic_trace("hard", 4.0, seed=s) for s in (1, 2, 3))
        t = tr1.t.copy()
        t[150] = np.nan
        cfg = ExperimentConfig(models=("KF", "p3o3"), horizons_ms=(20, 60),
                               drop_rates=(0.0, 0.3), repeats=2, master_seed=5)
        clean = run_experiment(cfg, [tr0, tr1, tr2])
        rep = run_experiment(cfg, [tr0, Trace(t, tr1.p, tr1.q), tr2])
        assert len(rep.failures) == 2 * 2 * 2 * 2
        assert {f.trace_index for f in rep.failures} == {1}
        assert all(f.reason == "median tick interval nan s is not finite and positive"
                   for f in rep.failures)
        assert rep.chunk_classes[1] == []
        assert rep.chunk_classes[0::2] == clean.chunk_classes[0::2]
        assert rep.samples == [s for s in clean.samples if s[5] != 1]

    @pytest.mark.parametrize("hz, reason", [
        (8.0, "cutoff 5.0 Hz must lie in (0, 4.0) for fs=8.0"),
        (4.0, "horizon 100 ms is shorter than one tick of 0.25 s"),
    ])
    def test_unsuitable_sample_rate_fails_its_cells_not_the_sweep(self, hz, reason):
        # a trace too coarse for the prefilter's cutoff or for the shortest
        # horizon fails only its own cells; the 100 Hz trace scores as in a
        # sweep without it
        good = generate_synthetic_trace("easy", 4.0, seed=1)
        coarse = generate_synthetic_trace("easy", 4.0, sample_hz=hz, seed=2)
        cfg = ExperimentConfig(models=("KF",), horizons_ms=(100, 200),
                               drop_rates=(0.0,), repeats=1)
        clean = run_experiment(cfg, [good])
        rep = run_experiment(cfg, [good, coarse])
        assert rep.per_repeat == clean.per_repeat and rep.per_repeat
        assert rep.samples == clean.samples
        assert len(rep.failures) == 2
        assert {(f.horizon_ms, f.trace_index) for f in rep.failures} == {(100, 1), (200, 1)}
        assert all(f.reason == reason for f in rep.failures)
        assert rep.chunk_classes[1] == []
        with pytest.raises(ValueError, match=re.escape(reason)):
            run_experiment(cfg, [coarse])     # nothing left to sweep

    def test_trace_shorter_than_a_chunk_fails_its_cells_not_the_sweep(self):
        # a 1.5 s trace has no whole chunk to classify, so it fails its own
        # cells, as a chunk the classifier refuses does; it goes last, so
        # the 4 s trace scores as in a sweep without it
        good = generate_synthetic_trace("hard", 4.0, seed=1)
        short = generate_synthetic_trace("hard", 1.5, seed=2)
        cfg = ExperimentConfig(models=("KF", "p3o3"), horizons_ms=(20, 60),
                               drop_rates=(0.0, 0.3), repeats=2, master_seed=5)
        clean = run_experiment(cfg, [good])
        rep = run_experiment(cfg, [good, short])
        reason = f"trace has 150 samples, fewer than one chunk of {CHUNK_LEN}"
        assert len(rep.failures) == 2 * 2 * 2 * 2
        assert {f.trace_index for f in rep.failures} == {1}
        assert all(f.reason == reason for f in rep.failures)
        assert rep.chunk_classes == clean.chunk_classes + [[]]
        assert rep.per_repeat == clean.per_repeat and rep.per_repeat
        assert rep.aggregates == clean.aggregates
        assert rep.samples == clean.samples

    def test_raw_quaternion_off_unit_fails_its_trace_before_any_stream(self):
        # the middle trace's raw quaternion 150 is 50 times too long; it is
        # refused where the trace is prepared, naming that sample, so the
        # trace streams nothing and reports no labels, and the traces on
        # either side score as in a sweep whose middle trace is clean
        tr0, tr1, tr2 = (generate_synthetic_trace("hard", 4.0, seed=s) for s in (1, 2, 3))
        q = tr1.q.copy()
        q[150] *= 50.0
        bad = Trace(tr1.t, tr1.p, q)
        reason = "sample 150 at t = 1.5: quaternion norm 50 is not within 1e-6 of unit"
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            prepare_trace(bad, (20, 60))
        slack = tr1.q.copy()
        slack[150] *= 1.0 + 5e-7                    # within _log's tolerance: accepted
        prepare_trace(Trace(tr1.t, tr1.p, slack), (20, 60))
        cfg = ExperimentConfig(models=("KF", "p3o3"), horizons_ms=(20, 60),
                               drop_rates=(0.0, 0.3), repeats=2, master_seed=5)
        clean = run_experiment(cfg, [tr0, tr1, tr2])
        rep = run_experiment(cfg, [tr0, bad, tr2])
        assert len(rep.failures) == 2 * 2 * 2 * 2
        assert {f.trace_index for f in rep.failures} == {1}
        assert all(f.reason == reason for f in rep.failures)
        assert rep.chunk_classes[1] == []
        assert rep.chunk_classes[0::2] == clean.chunk_classes[0::2]
        assert rep.samples == [s for s in clean.samples if s[5] != 1] and rep.samples

    def test_horizon_past_the_end_fails_its_trace_not_the_sweep(self):
        # on a 1 s trace a 1000 ms horizon has no tick whose target lies in
        # the trace; the trace fails its cells with that reason, ahead of
        # having no whole chunk, and the 4 s trace scores as without it
        good = generate_synthetic_trace("hard", 4.0, seed=1)
        short = generate_synthetic_trace("hard", 1.0, seed=2)
        cfg = ExperimentConfig(models=("KF", "p3o3"), horizons_ms=(20, 1000),
                               drop_rates=(0.0,), repeats=1)
        clean = run_experiment(cfg, [good])
        rep = run_experiment(cfg, [good, short])
        reason = "horizon 1000 ms reaches past the end of a 100-sample trace"
        assert len(rep.failures) == 2 * 2
        assert {f.trace_index for f in rep.failures} == {1}
        assert all(f.reason == reason for f in rep.failures)
        assert rep.chunk_classes == clean.chunk_classes + [[]]
        assert rep.per_repeat == clean.per_repeat and rep.per_repeat
        assert rep.samples == clean.samples

    def test_horizons_on_one_tick_count_fail_their_trace_not_the_sweep(self):
        # at 25 Hz, 80 and 90 ms both round to 2 ticks, so they would score
        # one rollout pick under two labels; that trace fails its cells with
        # this reason, and the 100 Hz trace (8 and 9 ticks) scores as without it
        good = generate_synthetic_trace("hard", 4.0, seed=1)
        coarse = generate_synthetic_trace("hard", 8.0, sample_hz=25.0, seed=2)
        cfg = ExperimentConfig(models=("KF", "p3o3"), horizons_ms=(80, 90),
                               drop_rates=(0.0, 0.3), repeats=2, master_seed=5)
        clean = run_experiment(cfg, [good])
        rep = run_experiment(cfg, [good, coarse])
        reason = "horizons 80 and 90 ms both round to 2 ticks of 0.04 s"
        assert len(rep.failures) == 2 * 2 * 2 * 2
        assert {f.trace_index for f in rep.failures} == {1}
        assert all(f.reason == reason for f in rep.failures)
        assert rep.chunk_classes == clean.chunk_classes + [[]]
        assert rep.per_repeat == clean.per_repeat and rep.per_repeat
        assert rep.aggregates == clean.aggregates
        assert rep.samples == clean.samples

    def test_streams_leave_shared_poses_untouched(self):
        # every stream of a trace steps the same read-only Pose objects;
        # all five models take them, received and lost, and change nothing
        trace = generate_synthetic_trace("hard", 2.5, seed=6)
        dt, steps, _, poses, _ = prepare_trace(trace, ExperimentConfig().horizons_ms)
        before = [(z.t, z.p.tobytes(), z.q.tobytes()) for z in poses]
        assert not any(z.p.flags.writeable or z.q.flags.writeable for z in poses)
        for model in ("KF", "ESKF", "p2o2", "p2o3", "p3o3"):
            pred = make_predictor(FilterConfig(model=model, dt=dt,
                                               horizon_steps=max(steps)), poses[0])
            for k in range(1, len(poses)):
                pred.step(poses[k], received=k % 3 != 0)
        assert [(z.t, z.p.tobytes(), z.q.tobytes()) for z in poses] == before


class TestCalibration:
    def test_easy_and_hard_profiles_classify_to_their_band(self):
        sos = design_butterworth_lowpass(2, 5.0, 100.0)
        for profile, want in (("easy", MotionClass.EASY),
                              ("hard", MotionClass.HARD)):
            hits = total = 0
            for seed in (0, 1):
                tr = generate_synthetic_trace(profile, 60.0, seed=seed)
                filtered = filter_trace(tr, sos)
                for chunk in chunk_trace(filtered):
                    hits += classify(lz_entropy(discretize_chunk(chunk))) == want
                    total += 1
            assert total == 60
            assert hits / total >= 0.9

    def test_harness_labels_match_direct_classification(self):
        tr = generate_synthetic_trace("medium", 20.0, seed=3)
        cfg = ExperimentConfig(models=("KF",), horizons_ms=(20,),
                               drop_rates=(0.0,), repeats=1,
                               keep_samples=False)
        rep = run_experiment(cfg, [tr])
        # the sweep's own prefilter, designed at 1/median_dt: a design at
        # exactly 100 Hz differs from it by float noise on this trace
        filtered = prepare_trace(tr, ())[2]
        expected = [classify(lz_entropy(discretize_chunk(c)))
                    for c in chunk_trace(filtered)]
        assert rep.chunk_classes[0] == expected


class TestEmitReport:
    def _small_report(self, keep_samples=True):
        cfg = ExperimentConfig(models=("KF",), horizons_ms=(50,),
                               drop_rates=(0.0,), repeats=2,
                               keep_samples=keep_samples)
        return run_experiment(cfg, [_stationary_trace(6.0)])

    def test_headers_exact(self, tmp_path):
        rep = self._small_report()
        emit_report(rep, tmp_path)
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        samples = (tmp_path / "samples.csv").read_text().splitlines()
        assert summary[0] == (
            "model,class,horizon_ms,drop_rate,"
            "pos_mean_mm,pos_mean_ci_low,pos_mean_ci_high,"
            "pos_median_mm,pos_median_ci_low,pos_median_ci_high,"
            "ori_mean_deg,ori_mean_ci_low,ori_mean_ci_high,"
            "ori_median_deg,ori_median_ci_low,ori_median_ci_high,"
            "n_repeats,n_samples")
        assert samples[0] == SAMPLES_COLUMNS
        assert len(summary) == 1 + len(rep.aggregates)
        assert len(samples) == 1 + len(rep.samples)

    def test_summary_row_round_trips(self, tmp_path):
        rep = self._small_report()
        emit_report(rep, tmp_path)
        line = (tmp_path / "summary.csv").read_text().splitlines()[1]
        fields = line.split(",")
        agg = rep.aggregates[0]
        assert fields[0] == "KF"
        assert fields[1] == "Easy"
        assert fields[2] == "50"
        assert float(fields[4]) == pytest.approx(agg.pos_mean_mm, rel=1e-8, abs=1e-12)
        assert int(fields[16]) == agg.n_repeats
        assert int(fields[17]) == agg.n_samples

    def test_summary_rows_follow_the_grid_order(self, tmp_path):
        # rows go model by model, class by class (Easy, Medium, Hard),
        # horizon by horizon, drop rate by drop rate, each in the order of
        # the config, which here is neither sorted nor the default
        traces = [generate_synthetic_trace(p, 4.0, seed=1) for p in ("easy", "hard")]
        cfg = ExperimentConfig(models=tuple(reversed(MODEL_NAMES)), horizons_ms=(100, 20, 60),
                               drop_rates=(0.3, 0.0, 0.1), repeats=2, master_seed=5)
        emit_report(run_experiment(cfg, traces), tmp_path)
        rows = [line.split(",")[:4]
                for line in (tmp_path / "summary.csv").read_text().splitlines()[1:]]
        classes = [c.label for c in MotionClass if c.label in {r[1] for r in rows}]
        assert len(classes) >= 2
        assert rows == [[m, c, str(h), "%.9g" % d] for m in cfg.models for c in classes
                        for h in cfg.horizons_ms for d in cfg.drop_rates]

    def test_reruns_byte_identical(self, tmp_path):
        emit_report(self._small_report(), tmp_path / "a")
        emit_report(self._small_report(), tmp_path / "b")
        for name in ("summary.csv", "samples.csv", "table.txt"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_samples_can_be_disabled(self, tmp_path):
        rep = self._small_report(keep_samples=False)
        emit_report(rep, tmp_path)
        assert (tmp_path / "samples.csv").read_text() == SAMPLES_COLUMNS + "\n"

    def test_samples_csv_lines_match_the_per_sample_format(self, tmp_path):
        # p2o3 is stitched: its rows share p2o2's e_pos lists and p3o3's
        # e_ori lists, so a segment's formatted body is only reusable under
        # all three of its lists, never under one of them
        traces = [generate_synthetic_trace("hard", 2.5, seed=s) for s in (1, 2)]
        cfg = ExperimentConfig(models=("p2o2", "p2o3", "p3o3"), horizons_ms=(20, 60),
                               drop_rates=(0.0,), repeats=3)
        rep = run_experiment(cfg, traces)
        emit_report(rep, tmp_path)
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert lines[1:] == ["%s,%s,%d,%.9g,%d,%d,%d,%.9g,%.9g" % (
            model, cls.label, h_ms, drop, r, ti, k, ep, eo)
            for model, cls, h_ms, drop, r, ti, k, ep, eo in rep.samples]

        by_model = {}
        for model, *cell, ep, eo in rep.samples:
            by_model.setdefault(model, {})[tuple(cell)] = ep, eo
        p2o2, p2o3, p3o3 = (by_model[m] for m in cfg.models)
        assert p2o3.keys() == p2o2.keys() == p3o3.keys()
        assert all(p2o3[c] == (p2o2[c][0], p3o3[c][1]) for c in p2o3)
        assert any(p2o3[c] != p3o3[c] for c in p2o3)
        assert any(p2o3[c] != p2o2[c] for c in p2o3)

    def test_table_names_each_cell(self, tmp_path):
        rep = self._small_report()
        emit_report(rep, tmp_path)
        table = (tmp_path / "table.txt").read_text()
        assert "horizon 50 ms, drop rate 0" in table
        assert "KF" in table
        assert "pos mean" in table and "ori med" in table

    def test_table_columns_line_up_under_the_class_labels(self, tmp_path):
        traces = [generate_synthetic_trace(p, 4.0, seed=1) for p in ("easy", "hard")]
        cfg = ExperimentConfig(models=("KF", "p3o3"), horizons_ms=(20, 100),
                               drop_rates=(0.0,), repeats=2)
        rep = run_experiment(cfg, traces)
        # KF has no Easy row in the 20 ms block: a blank cell ahead of its Hard one
        kept = [r for r in rep.aggregates
                if (r.model, r.motion_class, r.horizon_ms) != ("KF", MotionClass.EASY, 20)]
        emit_report(dataclasses.replace(rep, aggregates=kept), tmp_path)
        blocks = (tmp_path / "table.txt").read_text().split("\n\n")[:-1]
        assert len(blocks) == 2
        blank = "|" + " " * 40 + "|"
        for block in blocks:
            head, *lines = block.splitlines()
            assert head.startswith("horizon")
            bars = [[i for i, ch in enumerate(line) if ch == "|"] for line in lines]
            assert len(bars[0]) >= 2
            assert all(b == bars[0] for b in bars)
        assert blank in blocks[0].splitlines()[3]
        assert not any(blank in line for line in blocks[1].splitlines())


class TestGridValidation:
    @pytest.mark.parametrize("kwargs", [
        {"models": ("KF", "kf")},
        {"models": ("p3o3", "ESKF", "P3O3")},
        {"horizons_ms": (20, 20.0)},
        {"drop_rates": (0.5, 0.50, 0.0)},
    ])
    def test_rejects_duplicates_after_canonicalization(self, kwargs):
        with pytest.raises(ValueError, match="duplicates"):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("horizons", [(20, 20.7), (20.5,), (float("inf"),),
                                          (float("nan"),)])
    def test_rejects_non_integer_horizons(self, horizons):
        with pytest.raises(ValueError):
            ExperimentConfig(horizons_ms=horizons)

    def test_whole_float_horizons_accepted(self):
        cfg = ExperimentConfig(horizons_ms=(20.0, 100.0))
        assert cfg.horizons_ms == (20, 100)
        assert all(type(h) is int for h in cfg.horizons_ms)

    # the median intervals of the 2.1 s hard and 20 s medium 100 Hz traces of
    # seed 1 after a save/load round trip, and the exact interval
    @pytest.mark.parametrize("dt", [0.010000000000000009, 0.009999999999999787, 0.01])
    def test_half_tick_horizons_round_up_on_every_trace_of_one_clock(self, dt):
        assert horizon_steps((15, 25, 35, 45), dt) == [2, 3, 4, 5]
        assert horizon_steps((20, 24), dt) == [2, 2]


class _RecordingPredictor:
    """Stands in for a filter: forecasts the measurement, records the gate."""

    def __init__(self, config, first_pose, log):
        self.config = config
        self.received = []
        log.append(self)

    def track(self, poses, received):
        states = []
        for z, r in zip(poses, received):
            self.received.append(bool(r))
            states.append((z.p, z.q))
        return states

    def forecasts(self, states, steps):
        return [np.array([(*p, *q) for p, q in states]).reshape(-1, 7) for _ in steps]


def _expected_masks(cfg, trace_lengths):
    """Per (drop, repeat, trace): the received flags of ticks 1..n-1."""
    out = {}
    for drop in cfg.drop_rates:
        for rep in range(cfg.repeats):
            rng = _cell_rng(cfg, drop, rep)
            for ti, n in enumerate(trace_lengths):
                out[drop, rep, ti] = tuple(
                    drop == 0.0 or simulate_drop(rng, drop) for _ in range(1, n))
    return out


class TestSharedStreams:
    def test_one_predictor_per_model_drop_and_repeat(self, monkeypatch):
        built = []

        def counting(config, first_pose):
            built.append(config)
            return make_predictor(config, first_pose)

        monkeypatch.setattr("posecast.experiment.make_predictor", counting)
        cfg = ExperimentConfig(models=("KF", "p2o2"), horizons_ms=(20, 60, 40),
                               drop_rates=(0.3, 0.0, 0.5), repeats=3,
                               keep_samples=False)
        traces = [_stationary_trace(3.0), _stationary_trace(2.5)]
        rep = run_experiment(cfg, traces)
        m, d, r = len(cfg.models), len(cfg.drop_rates), cfg.repeats
        assert len(built) == len(traces) * m * (1 + (d - 1) * r)
        # every stream rolls out to the longest horizon
        assert {c.horizon_steps for c in built} == {6}
        assert len(rep.per_repeat) == m * 3 * d * r

    def test_without_zero_drop_every_repeat_streams(self, monkeypatch):
        log = []
        monkeypatch.setattr("posecast.experiment.make_predictor",
                            lambda c, p: _RecordingPredictor(c, p, log))
        cfg = ExperimentConfig(models=("KF", "ESKF"), horizons_ms=(20,),
                               drop_rates=(0.1, 0.5), repeats=2)
        run_experiment(cfg, [_stationary_trace(2.5)])
        assert len(log) == 2 * 2 * 2

    def test_every_model_sees_the_same_losses(self, monkeypatch):
        log = []
        monkeypatch.setattr("posecast.experiment.make_predictor",
                            lambda c, p: _RecordingPredictor(c, p, log))
        cfg = ExperimentConfig(horizons_ms=(20, 100), drop_rates=(0.0, 0.3, 0.7),
                               repeats=3, master_seed=9)
        lengths = (300, 260)
        traces = [_stationary_trace(n / 100.0) for n in lengths]
        report = run_experiment(cfg, traces)
        want = _expected_masks(cfg, lengths)
        # streams step through the last scored tick, 199 on both traces
        streamed = sorted(v[:199] for (drop, rep, _), v in want.items()
                          if drop or rep == 0)
        by_model = {}
        for pred in log:
            by_model.setdefault(pred.config.model, []).append(tuple(pred.received))
        # p2o3 builds no predictor: it is stitched from p2o2 and p3o3
        assert set(by_model) == {m for m, sources in _stream_plan(cfg.models)
                                 if m in sources}
        for masks in by_model.values():
            assert sorted(masks) == streamed
        # the stitched model scores as a sweep that streams it, under the same losses
        log.clear()
        alone = run_experiment(dataclasses.replace(cfg, models=("p2o3",)), traces)
        assert sorted(tuple(pred.received) for pred in log) == streamed
        assert [s for s in report.samples if s[0] == "p2o3"] == alone.samples
        assert alone.samples
        # the losses differ between repeats and drop rates
        assert want[0.3, 0, 0] != want[0.3, 1, 0]
        assert want[0.3, 0, 0] != want[0.7, 0, 0]

    def test_shared_stream_matches_standalone_cell(self):
        # a cell read off the shared rollout equals a predictor built for that
        # cell's horizon alone, streamed under the cell's losses
        tr = generate_synthetic_trace("hard", 4.5, seed=6)
        cfg = ExperimentConfig(models=("KF", "p3o3"), horizons_ms=(30, 100),
                               drop_rates=(0.0, 0.4), repeats=2, master_seed=3)
        rep = run_experiment(cfg, [tr])
        dt = tr.median_dt()
        filtered = filter_trace(tr, design_butterworth_lowpass(2, 5.0, 1.0 / dt))
        usable = len(tr) // 200 * 200
        for model in cfg.models:
            for h_ms, drop, r in ((30, 0.4, 1), (30, 0.0, 1), (100, 0.4, 0)):
                n_steps = int(round(h_ms / 1000.0 / dt))
                pred = make_predictor(FilterConfig(model, dt, n_steps), filtered.pose(0))
                rng = _cell_rng(cfg, drop, r)
                expect = []
                for k in range(1, len(tr)):
                    received = drop == 0.0 or simulate_drop(rng, drop)
                    pub = pred.step(filtered.pose(k), received=received)
                    if k + n_steps < len(tr) and k < usable:
                        expect.append((k, position_error(pub.p, tr.p[k + n_steps]),
                                       orientation_error(pub.q, tr.q[k + n_steps])))
                got = sorted((s[6], s[7], s[8]) for s in rep.samples
                             if s[0] == model and s[2] == h_ms and s[3] == drop
                             and s[4] == r)
                assert got == expect, (model, h_ms, drop, r)

    @pytest.mark.parametrize("drop_rates", [(0.0, 0.5), (0.5, 0.0)])
    def test_rows_failures_and_segments_follow_the_grid_order(self, drop_rates):
        # the models are listed stitched-first, so the streams run in
        # another order than the config's, and with (0.5, 0.0) the shared
        # drop-0 draw is not the config's first; the 150-sample trace fails
        # every cell, between two traces that score
        traces = [generate_synthetic_trace("medium", 4.0, seed=1),
                  generate_synthetic_trace("hard", 1.5, seed=1),
                  generate_synthetic_trace("easy", 4.0, seed=2)]
        cfg = ExperimentConfig(models=("p2o3", "KF", "p3o3", "p2o2", "ESKF"),
                               horizons_ms=(60, 20), drop_rates=drop_rates, repeats=3,
                               master_seed=2)
        rep = run_experiment(cfg, traces)

        def grid(model, h_ms, drop, r, *rest):
            return (cfg.models.index(model), cfg.horizons_ms.index(h_ms),
                    cfg.drop_rates.index(drop), r, *rest)

        cells = [(m, h, d, r) for m in cfg.models for h in cfg.horizons_ms
                 for d in cfg.drop_rates for r in range(cfg.repeats)]
        failed = [(f.model, f.horizon_ms, f.drop_rate, f.repeat, f.trace_index)
                  for f in rep.failures]
        assert failed == [(*cell, 1) for cell in cells]
        rows = [grid(r.model, r.horizon_ms, r.drop_rate, r.repeat, r.motion_class)
                for r in rep.per_repeat]
        assert rows == sorted(set(rows))
        assert {row[:4] for row in rows} == {grid(*cell) for cell in cells}
        kept = [grid(m, h, d, r, ti) for m, _, h, d, r, ti, _ in rep.segments]
        assert kept == sorted(kept)
        assert {k[:4] for k in kept} == {grid(*cell) for cell in cells}
        assert {k[4] for k in kept} == {0, 2}

    def test_zero_drop_repeats_reuse_samples(self):
        cfg = ExperimentConfig(models=("ESKF",), horizons_ms=(20, 50),
                               drop_rates=(0.0,), repeats=3)
        rep = run_experiment(cfg, [generate_synthetic_trace("medium", 4.0, seed=5)])
        by_rep = {}
        for model, cls, h_ms, drop, r, ti, k, ep, eo in rep.samples:
            by_rep.setdefault(r, []).append((cls, h_ms, ti, k, ep, eo))
        assert sorted(by_rep) == [0, 1, 2]
        assert by_rep[0] == by_rep[1] == by_rep[2]

    def test_degenerate_shared_stream_fails_each_cell_it_feeds(self, monkeypatch):
        # p2o2 breaks at t = 4.5 s, which only the longer trace (index 0) reaches
        class _Breaks:
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def track(self, poses, received):
                poses = list(poses)
                if any(z.t >= 4.5 for z in poses):
                    raise ValueError("innovation covariance is degenerate")
                return self.inner.track(poses, received)

        def breaking(config, first_pose):
            pred = make_predictor(config, first_pose)
            return _Breaks(pred) if config.model == "p2o2" else pred

        traces = [generate_synthetic_trace("medium", 7.0, seed=1),
                  generate_synthetic_trace("medium", 4.0, seed=2)]
        grid = dict(horizons_ms=(20, 60), drop_rates=(0.0, 0.5), repeats=2,
                    master_seed=4)
        clean = run_experiment(ExperimentConfig(models=("KF", "p2o2"), **grid), traces)
        monkeypatch.setattr("posecast.experiment.make_predictor", breaking)
        cfg = ExperimentConfig(models=("KF", "p2o2"), **grid)
        rep = run_experiment(cfg, traces)

        cells = [(h, d, r) for h in cfg.horizons_ms for d in cfg.drop_rates
                 for r in range(cfg.repeats)]
        assert [(f.model, f.horizon_ms, f.drop_rate, f.repeat, f.trace_index)
                for f in rep.failures] == [("p2o2", h, d, r, 0) for h, d, r in cells]
        assert all("degenerate" in f.reason for f in rep.failures)

        def rows(report, model):
            return [(r.motion_class, r.horizon_ms, r.drop_rate, r.repeat,
                     r.pos_mean_mm, r.ori_mean_deg, r.n_ticks)
                    for r in report.per_repeat if r.model == model]

        # the healthy model's streams kept their losses
        assert rows(rep, "KF") == rows(clean, "KF")
        # the failing model still scores the other trace, with the same losses
        kept = sorted(s for s in rep.samples if s[0] == "p2o2")
        assert kept and {s[5] for s in kept} == {1}
        assert kept == sorted(s for s in clean.samples if s[0] == "p2o2" and s[5] == 1)


class TestStreamPlan:
    def test_plan_streams_one_model_per_pair_of_orders(self):
        def streamed(models):
            return sorted(m for m, sources in _stream_plan(models) if m in sources)

        assert streamed(MODEL_NAMES) == sorted(("KF", "ESKF", "p2o2", "p3o3"))
        assert dict(_stream_plan(MODEL_NAMES))["p2o3"] == ("p2o2", "p3o3")
        assert streamed(("p2o3",)) == ["p2o3"]
        assert streamed(("ESKF", "p2o3")) == ["ESKF", "p2o3"]
        # equal orders, different predictors: neither holds the other's errors
        assert streamed(("ESKF", "KF")) == ["ESKF", "KF"]

    def test_every_model_scores_as_in_a_sweep_of_its_own(self):
        # trace 2 repeats a timestamp mid-trace, which every filter refuses,
        # and trace 3 has a non-finite pose mid-trace, which the prefilter
        # refuses; a stitched model must fail them with its own sweep's reasons
        tr0, tr1, tr2, tr3 = (generate_synthetic_trace(profile, 2.5, seed=s)
                              for profile, s in (("hard", 1), ("medium", 2),
                                                 ("hard", 3), ("hard", 4)))
        t = tr2.t.copy()
        t[120] = t[119]
        p = tr3.p.copy()
        p[120, 1] = np.nan
        traces = [tr0, tr1, Trace(t, tr2.p, tr2.q), Trace(tr3.t, p, tr3.q)]
        cfg = ExperimentConfig(horizons_ms=(20, 60), drop_rates=(0.0, 0.5), repeats=2,
                               master_seed=7)

        def of(report, model):
            return ([r for r in report.per_repeat if r.model == model],
                    [s for s in report.samples if s[0] == model],
                    [f for f in report.failures if f.model == model])

        full = run_experiment(cfg, traces)
        permuted = run_experiment(dataclasses.replace(
            cfg, models=("p2o3", "KF", "p3o3", "ESKF", "p2o2")), traces)
        for model in MODEL_NAMES:
            alone = run_experiment(dataclasses.replace(cfg, models=(model,)), traces)
            assert of(full, model) == of(alone, model) == of(permuted, model), model
        rows, samples, failures = of(full, "p2o3")
        assert rows and samples
        assert {(f.trace_index, f.reason) for f in failures} == {
            (2, "tick timestamp 1.19 does not advance past 1.19"),
            (3, "pose at t = 1.2 is not finite")}

    def test_every_list_of_models_scores_each_as_in_a_sweep_of_its_own(self):
        # trace 1 repeats a timestamp at tick 30 of 200, so every stream over
        # it fails there; each model of every list, forward and reversed,
        # must score and fail as it does alone
        good, bad = (generate_synthetic_trace("hard", 2.1, seed=s) for s in (5, 6))
        t = bad.t.copy()
        t[30] = t[29]
        traces = [good, Trace(t, bad.p, bad.q)]
        cfg = ExperimentConfig(horizons_ms=(20, 100), drop_rates=(0.0, 0.5), repeats=2,
                               master_seed=3)

        def by_model(models):
            report = run_experiment(dataclasses.replace(cfg, models=models), traces)
            samples = report.samples
            return {m: ([r for r in report.per_repeat if r.model == m],
                        [f for f in report.failures if f.model == m],
                        [s for s in samples if s[0] == m]) for m in models}

        alone = {m: by_model((m,))[m] for m in MODEL_NAMES}
        assert all(rows and failures and samples for rows, failures, samples in alone.values())
        for size in range(1, len(MODEL_NAMES) + 1):
            for subset in itertools.combinations(MODEL_NAMES, size):
                for models in dict.fromkeys((subset, subset[::-1])):
                    plan = _stream_plan(models)
                    order = [m for m, _ in plan]
                    assert sorted(order) == sorted(models)
                    for i, (model, (pos, rot)) in enumerate(plan):
                        want, got_pos, got_rot = map(FilterConfig, (model, pos, rot))
                        assert ((got_pos.predictor, got_pos.ord_pos)
                                == (want.predictor, want.ord_pos)), (models, model)
                        assert ((got_rot.predictor, got_rot.ord_rot)
                                == (want.predictor, want.ord_rot)), (models, model)
                        assert order.index(pos) <= i and order.index(rot) <= i
                    for model, got in by_model(models).items():
                        assert got == alone[model], (models, model)

    def test_stitched_model_fails_with_its_failed_source(self, monkeypatch):
        def breaking(config, first_pose):
            if config.model == "p3o3":
                raise ValueError("innovation covariance is degenerate")
            return make_predictor(config, first_pose)

        monkeypatch.setattr("posecast.experiment.make_predictor", breaking)
        cfg = ExperimentConfig(models=("p2o2", "p2o3", "p3o3"), horizons_ms=(20,),
                               drop_rates=(0.0, 0.5), repeats=2)
        rep = run_experiment(cfg, [generate_synthetic_trace("medium", 2.5, seed=1)])
        failed = {m: [(f.horizon_ms, f.drop_rate, f.repeat, f.trace_index, f.reason)
                      for f in rep.failures if f.model == m] for m in cfg.models}
        assert failed["p2o3"] == failed["p3o3"] and failed["p2o3"]
        assert failed["p2o2"] == []
        assert {s[0] for s in rep.samples} == {"p2o2"}

    def test_model_whose_two_sources_fail_reports_its_position_source(self, monkeypatch):
        def breaking(config, first_pose):
            raise ValueError(f"{config.model} refused")

        monkeypatch.setattr("posecast.experiment.make_predictor", breaking)
        cfg = ExperimentConfig(models=("p3o3", "p2o3", "p2o2"), horizons_ms=(20,),
                               drop_rates=(0.5,), repeats=1)
        rep = run_experiment(cfg, [generate_synthetic_trace("medium", 2.5, seed=1)])
        assert [(f.model, f.reason) for f in rep.failures] == [
            ("p3o3", "p3o3 refused"), ("p2o3", "p2o2 refused"), ("p2o2", "p2o2 refused")]


class TestScoredTicksOnly:
    # 457 samples: two 200-sample chunks, the tail of 57 is never scored;
    # 401 samples: the shortest horizon (2 ticks) ends scoring at tick 398
    @pytest.mark.parametrize("n, stepped", [(457, 399), (401, 398), (400, 397)])
    def test_stream_steps_through_the_last_scored_tick(self, monkeypatch, n, stepped):
        log = []
        monkeypatch.setattr("posecast.experiment.make_predictor",
                            lambda c, p: _RecordingPredictor(c, p, log))
        cfg = ExperimentConfig(models=("KF",), horizons_ms=(20, 60),
                               drop_rates=(0.0, 0.5), repeats=1)
        rep = run_experiment(cfg, [_stationary_trace(n / 100.0)])
        assert [len(pred.received) for pred in log] == [stepped, stepped]
        # the losses are still drawn for every tick, so the stepped prefix is
        # the same as on a trace whose every tick is stepped
        assert tuple(log[1].received) == _expected_masks(cfg, [n])[0.5, 0, 0][:stepped]
        assert max(s[6] for s in rep.samples) == stepped

    def test_tail_degeneracy_fails_no_cell(self, monkeypatch):
        # 5 s trace: two chunks end scoring at t = 4 s; the filter would
        # break at 4.5 s, which no stream reaches
        class _BreaksLate:
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def track(self, poses, received):
                poses = list(poses)
                if any(z.t >= 4.5 for z in poses):
                    raise ValueError("innovation covariance is degenerate")
                return self.inner.track(poses, received)

        traces = [generate_synthetic_trace("medium", 5.0, seed=1)]
        cfg = ExperimentConfig(models=("p2o2",), horizons_ms=(20, 60),
                               drop_rates=(0.0, 0.5), repeats=2, master_seed=4)
        clean = run_experiment(cfg, traces)
        monkeypatch.setattr("posecast.experiment.make_predictor",
                            lambda c, p: _BreaksLate(make_predictor(c, p)))
        rep = run_experiment(cfg, traces)
        assert rep.failures == []
        assert rep.samples == clean.samples and rep.samples


class TestScorePicks:
    def test_stacked_horizons_split_as_each_scored_alone(self):
        # horizons of 1, 2 and 20 ticks over one stream that runs to the
        # trace's second-last tick: the two short horizons score every pick
        # the truth covers, the long one stops 20 ticks before the end
        trace = generate_synthetic_trace("hard", 2.5, seed=4)
        dt, steps, _, poses, truth = prepare_trace(trace, (10, 20, 200))
        assert steps == [1, 2, 20]
        mask = [k % 3 != 0 for k in range(1, len(poses))]
        picks = stream_picks("p3o3", dt, steps, poses, mask, len(poses) - 1)
        scored = score_picks(picks, steps, truth)
        true_p, true_q = truth
        assert len(scored) == 3
        for picked, n_steps, (e_pos, e_ori) in zip(picks, steps, scored):
            n = min(len(picked), len(true_p) - n_steps - 1)
            assert len(e_pos) == len(e_ori) == n
            assert all(type(e) is float for e in e_pos + e_ori)
            assert score_picks([picked], [n_steps], truth) == [(e_pos, e_ori)]
            assert e_pos == [ref.position_error(pose[:3], true_p[j + 1 + n_steps])
                             for j, pose in enumerate(picked[:n])]
            assert e_ori == [ref.orientation_error(pose[3:], true_q[j + 1 + n_steps])
                             for j, pose in enumerate(picked[:n])]
        assert [len(e_pos) for e_pos, _ in scored] == [len(poses) - 2, len(poses) - 3,
                                                       len(poses) - 21]
        assert score_picks(picks, [], truth) == []
        assert score_picks([picks[0][:0]], [1], truth) == [([], [])]

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_stream_without_ticks_scores_nothing(self, model):
        # a stream that ends before its first tick forecasts (0, 7) arrays
        trace = generate_synthetic_trace("hard", 1.0, seed=4)
        dt, steps, _, poses, truth = prepare_trace(trace, (20, 100))
        picks = stream_picks(model, dt, steps, poses, [True] * (len(poses) - 1), 1)
        assert [p.shape for p in picks] == [(0, 7), (0, 7)]
        assert score_picks(picks, steps, truth) == [([], []), ([], [])]
        assert score_picks(picks[:1], steps[:1], truth) == [([], [])]


class TestAggregateLookup:
    def test_drop_rate_matched_within_tolerance(self):
        cfg = ExperimentConfig(models=("KF",), horizons_ms=(50,),
                               drop_rates=(0.3,), repeats=2)
        rep = run_experiment(cfg, [_stationary_trace(3.0)])
        row = rep.aggregate("KF", MotionClass.EASY, 50, 0.1 + 0.2)
        assert row is rep.aggregates[0]
        assert rep.aggregate("KF", MotionClass.EASY, 50, 0.31) is None
        assert rep.aggregate("KF", MotionClass.HARD, 50, 0.3) is None
        assert rep.aggregate("p3o3", MotionClass.EASY, 50, 0.3) is None
        # the model name is matched as the configs match it
        assert rep.aggregate("kf", MotionClass.EASY, 50, 0.3) is row
        with pytest.raises(ValueError, match="unknown model"):
            rep.aggregate("ukf", MotionClass.EASY, 50, 0.3)


class TestSampleSegments:
    @staticmethod
    def _recurring_trace():
        # Easy, Hard, Easy chunks and a 57-sample tail shorter than a chunk
        pieces = [generate_synthetic_trace(profile, duration, seed=s)
                  for profile, duration, s in (("easy", 2.0, 1), ("hard", 2.0, 2),
                                               ("easy", 2.0, 3), ("easy", 0.57, 4))]
        n = sum(len(piece) for piece in pieces)
        return Trace(np.arange(n) / 100.0, np.concatenate([piece.p for piece in pieces]),
                     np.concatenate([piece.q for piece in pieces]))

    def test_samples_and_rows_follow_recurring_chunk_labels(self):
        traces = [self._recurring_trace(), generate_synthetic_trace("medium", 4.3, seed=5)]
        cfg = ExperimentConfig(models=("KF", "p2o2", "p2o3", "p3o3"),
                               horizons_ms=(20, 100, 3000), drop_rates=(0.0, 0.5), repeats=2,
                               master_seed=9)
        rep = run_experiment(cfg, traces)
        assert rep.chunk_classes[0] == [MotionClass.EASY, MotionClass.HARD, MotionClass.EASY]
        assert not rep.failures
        # at 3000 ms scoring ends inside a chunk, before the last labelled
        # chunk starts (tick 400 of the first trace, tick 200 of the second)
        easy, hard = MotionClass.EASY, MotionClass.HARD
        for ti, last, classes in ((0, 356, {easy, hard}), (1, 129, {hard})):
            far = [(cls, k) for _, cls, h_ms, _, _, t, k, _, _ in rep.samples
                   if (h_ms, t) == (3000, ti)]
            assert max(k for _, k in far) == last
            assert {cls for cls, _ in far} == classes

        pooled = {}
        for model, cls, h_ms, drop, r, ti, k, ep, eo in rep.samples:
            assert cls == rep.chunk_classes[ti][k // CHUNK_LEN]
            pooled.setdefault((model, cls, h_ms, drop, r), []).append((ep, eo))
        # no tick of the 57-sample tail past the last chunk is scored
        assert max(s[6] for s in rep.samples if s[5] == 0) == 599
        assert {(r.model, r.motion_class, r.horizon_ms, r.drop_rate, r.repeat)
                for r in rep.per_repeat} == pooled.keys()
        for row in rep.per_repeat:
            eps, eos = map(list, zip(*pooled[row.model, row.motion_class, row.horizon_ms,
                                             row.drop_rate, row.repeat]))
            assert row.n_ticks == len(eps)
            assert (row.pos_mean_mm, row.pos_median_mm) == (np.mean(eps), np.median(eps))
            assert (row.ori_mean_deg, row.ori_median_deg) == (np.mean(eos), np.median(eos))

        lean = run_experiment(dataclasses.replace(cfg, keep_samples=False), traces)
        assert lean.per_repeat == rep.per_repeat
        assert lean.samples == []
