"""The benchmark's two workloads, and how one is measured and traced.

Inputs come from the seed alone; posecast receives only the generated
traces. Every workload is a closed loop with one caller: each unit of
work starts when the previous one has finished. Both report the same
end-to-end metrics, each with the workload's own meaning of a unit.

    sweep_hard       ``posecast synth`` + ``posecast bench``
                     (generate_synthetic_trace -> save_trace -> load_trace ->
                     run_experiment -> emit_report) on short hard traces,
                     over all 5 models x horizons {20, 100} ms x drops
                     {0, 0.5} x 2 repeats. One unit is one trace; the
                     throughput counts scored (cell, tick) samples.
    realtime_stream  the deployment loop: StreamFilter.filter_sample, then
                     step, on every tick of easy, medium and hard traces,
                     for KF and p3o3 side by side at 100 ms with 30% drop.
                     One unit is one round over the three traces, with
                     fresh predictors; the throughput counts ticks.

With ``--trace 0`` units run until ``--seconds`` have passed (a sweep
run always covers every trace once) and give the end-to-end metrics.
With ``--trace 1`` untraced and traced passes of ``trace_units`` units
alternate until ``--seconds`` have passed; per-layer timings are per
call, counts are per unit, and the overhead is the traced pass time over
the untraced one.
"""

import contextlib
import hashlib
import io
import math
import statistics
import sys
import time
import warnings
from array import array
from pathlib import Path

import numpy as np

from posecast import cli, filters, metrics, preprocess, traces

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer  # noqa: E402

MODELS = ("KF", "ESKF", "p2o2", "p2o3", "p3o3")
HORIZONS_MS = (20, 100)
DROP_RATES = (0.0, 0.5)
REPEATS = 2
PROFILES = ("easy", "medium", "hard")
ERROR_MODELS = ("KF", "p3o3")     # the forecast errors reported, and the real-time streams


class CheckFailed(Exception):
    """An output did not match what the workload must produce."""


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, line.rstrip("\n").split(","))) for line in fh]


class SweepHard:
    """``posecast synth`` + ``posecast bench`` on one short hard trace per unit.

    A unit generates and saves a 2.1 s hard trace, then runs the bench grid
    on it; a run covers every one of the ``n_traces`` traces at least once.
    A 2.1 s trace holds one 2 s classifier chunk plus the 100 ms horizon,
    so 199 of a stream's 209 ticks are scored. Many short traces, rather
    than a few long ones, keep the Hard-row errors steady across seeds.
    """

    name = "sweep_hard"
    TRACE_S = 2.1

    def __init__(self, seed, work, n_traces=16):
        self.seed = seed
        self.work = Path(work)
        self.n_traces = n_traces
        self.min_units = n_traces
        self.trace_units = 2
        self.streams_per_unit = len(MODELS) * len(HORIZONS_MS) * len(DROP_RATES) * REPEATS
        self.spans, self.scored = [], []      # per unit: (start, end) ns, scored ticks
        self.digests = {}
        self.errors = []           # per trace: Hard rows at 100 ms, keyed (model, drop)
        self.attempted = self.failed = 0

    def _path(self, k):
        return self.work / f"hard-{k}.csv"

    def run(self, i):
        k = i % self.n_traces
        out = self.work / f"out-{k}"
        argv = ["bench", "--input", str(self._path(k)),
                "--models", ",".join(MODELS),
                "--horizons", ",".join(map(str, HORIZONS_MS)),
                "--drop-rates", ",".join(map(str, DROP_RATES)),
                "--repeats", str(REPEATS), "--seed", str(self.seed),
                "--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            t0 = time.perf_counter_ns()
            try:
                trace = traces.generate_synthetic_trace(
                    "hard", self.TRACE_S, seed=self.seed * 64 + k)
                traces.save_trace(trace, self._path(k))
                rc = cli.main(argv)
            except Exception as e:  # a crashed unit fails all of its streams
                rc = repr(e)
            t1 = time.perf_counter_ns()
        self.attempted += self.streams_per_unit
        if rc != 0:
            self.failed += self.streams_per_unit
            raise CheckFailed(f"posecast bench exited {rc}: {err.getvalue().strip()}")
        self.failed += sum(line.startswith("warning:") for line in err.getvalue().splitlines())
        return out, (t0, t1)

    def record(self, i, result):
        out, span = result
        k = i % self.n_traces
        summary = _csv_rows(out / "summary.csv")
        self.spans.append(span)
        self.scored.append(sum(int(r["n_samples"]) for r in summary))
        digest = hashlib.sha256((out / "summary.csv").read_bytes()
                                + (out / "samples.csv").read_bytes()).hexdigest()
        if k in self.digests:
            if digest != self.digests[k]:
                raise CheckFailed(f"trace {k}: rerun of the same sweep changed its output")
            return
        self.digests[k] = digest
        self.errors.append(self._check_summary(summary))
        self._check_cell(self._path(k), _csv_rows(out / "samples.csv"))

    def _check_summary(self, summary):
        hard = {(r["model"], int(r["horizon_ms"]), float(r["drop_rate"])): r
                for r in summary if r["class"] == "Hard"}
        for model in MODELS:
            for h in HORIZONS_MS:
                for d in DROP_RATES:
                    row = hard.get((model, h, d))
                    if row is None:
                        raise CheckFailed(f"no Hard row for {model} {h} ms drop {d}")
                    if int(row["n_repeats"]) != REPEATS:
                        raise CheckFailed(f"{model} {h} ms drop {d}: n_repeats "
                                          f"{row['n_repeats']} != {REPEATS}")
        for row in summary:
            values = [float(v) for k, v in row.items() if k not in ("model", "class")]
            if not all(map(math.isfinite, values)):
                raise CheckFailed(f"non-finite value in summary row {row}")
        return {m: (float(hard[(m, 100, 0.0)]["pos_mean_mm"]),
                    float(hard[(m, 100, 0.0)]["ori_mean_deg"]))
                for m in ERROR_MODELS}

    def _check_cell(self, path, samples):
        """Re-run p3o3, 100 ms, drop 0 on the trace; it must match samples.csv."""
        trace = traces.load_trace(path)
        dt = trace.median_dt()
        filtered = preprocess.filter_trace(
            trace, preprocess.design_butterworth_lowpass(2, 5.0, 1.0 / dt))
        n_steps = int(round(0.1 / dt))
        pred = filters.make_predictor(filters.FilterConfig("p3o3", dt, n_steps),
                                      filtered.pose(0))
        n = len(trace)
        usable = n // 200 * 200
        expect = {}
        for k in range(1, n):
            pub = pred.step(filtered.pose(k))
            if k + n_steps < n and k < usable:
                expect[k] = ("%.9g" % metrics.position_error(pub.p, trace.p[k + n_steps]),
                             "%.9g" % metrics.orientation_error(pub.q, trace.q[k + n_steps]))
        for rep in range(REPEATS):
            got = {int(r["tick"]): (r["e_pos_mm"], r["e_ori_deg"]) for r in samples
                   if r["model"] == "p3o3" and r["horizon_ms"] == "100"
                   and float(r["drop_rate"]) == 0.0 and r["trace"] == "0"
                   and r["repeat"] == str(rep)}
            if got != expect:
                raise CheckFailed(f"p3o3 100 ms drop 0 repeat {rep}: per-tick errors "
                                  "differ from a direct make_predictor + step run")

    def metrics(self, probe):
        took = np.array([probe.scale_interval(*span) for span in self.spans])
        p50, p99 = np.percentile(took, [50, 99]) / 1e6
        out = {"throughput_per_s": float(np.median(np.array(self.scored) / took * 1e9)),
               "latency_p50_ms": float(p50), "latency_p99_ms": float(p99)}
        for model in ERROR_MODELS:
            out[f"err_pos_mm.{model}"] = statistics.fmean(e[model][0] for e in self.errors)
            out[f"err_ori_deg.{model}"] = statistics.fmean(e[model][1] for e in self.errors)
        return out

    def notes(self):
        return [f"{len(self.spans)} synth + bench units over {self.n_traces} hard traces, "
                f"{self.scored[0]} scored cell-ticks each"]


class RealtimeStream:
    """Prefilter + step per tick, timed tick by tick; one unit is one round.

    On every tick of a trace the KF and the p3o3 stream each take the new
    pose through their own StreamFilter and step; the pair is one timed
    tick. Every round replays the same ticks with fresh predictors, so
    each tick is timed once per round. A tick's latency is the median of
    its scaled times over the rounds, which keeps host bursts and
    garbage-collector pauses (they land on different ticks each round) out
    of the tail; p50 and p99 are then taken over the ticks.

    The forecast errors come from round 0: per model and profile the mean
    over the ticks, then the geometric mean over the three profiles, so
    that easy and medium traces count as much as hard ones (whose errors
    are 30x larger). Many short traces per profile keep them steady across
    seeds.
    """

    name = "realtime_stream"
    TRACE_S = 2.0
    PER_PROFILE = 8
    DROP = 0.3
    HORIZON_MS = 100

    def __init__(self, seed, work):
        self.sos = preprocess.design_butterworth_lowpass(2, 5.0, 100.0)
        self.profiles = [p for p in PROFILES for _ in range(self.PER_PROFILE)]
        self.traces = [traces.generate_synthetic_trace(p, self.TRACE_S,
                                                       seed=seed * 16 + j % self.PER_PROFILE)
                       for j, p in enumerate(self.profiles)]
        rng = np.random.default_rng(np.random.SeedSequence((seed, 30)))
        self.masks = {(m, p): (rng.random(len(self.traces[p])) > self.DROP).tolist()
                      for m in ERROR_MODELS for p in range(len(self.traces))}
        self.min_units = self.trace_units = 1
        self.ticks_per_round = sum(len(t) - 1 for t in self.traces)
        self.start_ns, self.lat_ns = array("q"), array("q")
        self.first_ns = array("q")      # the KF stream's share of each tick
        self.errors = {}
        self.attempted = self.failed = 0
        self.bad = []

    def run(self, i):
        clock = time.perf_counter_ns
        start, lat, first = self.start_ns, self.lat_ns, self.first_ns
        published = [] if i == 0 else None   # round 0's forecasts give the errors
        for p, trace in enumerate(self.traces):
            dt = trace.median_dt()
            n_steps = int(round(self.HORIZON_MS / 1000 / dt))
            streams = []
            for model in ERROR_MODELS:
                sf = preprocess.StreamFilter(self.sos)
                pred = filters.make_predictor(filters.FilterConfig(model, dt, n_steps),
                                              sf.filter_sample(trace.pose(0)))
                streams.append((sf, pred, self.masks[(model, p)]))
            (sf_a, pred_a, mask_a), (sf_b, pred_b, mask_b) = streams
            for k in range(1, len(trace)):
                pose = trace.pose(k)
                self.attempted += 2
                try:
                    t0 = clock()
                    pub_a = pred_a.step(sf_a.filter_sample(pose), received=mask_a[k])
                    t1 = clock()
                    pub_b = pred_b.step(sf_b.filter_sample(pose), received=mask_b[k])
                    t2 = clock()
                except Exception as e:  # a failed tick ends the trace; it is counted
                    lost = len(trace) - k
                    self.attempted += 2 * (lost - 1)     # the ticks it loses
                    self.failed += 2 * lost
                    self.bad.append(f"{self.profiles[p]} tick {k}: {e!r}")
                    start.extend([0] * lost)              # keeps rounds aligned
                    lat.extend([-1] * lost)
                    first.extend([-1] * lost)
                    break
                start.append(t0)
                lat.append(t2 - t0)
                first.append(t1 - t0)
                for model, pub in zip(ERROR_MODELS, (pub_a, pub_b)):
                    finite = np.isfinite(pub.p).all() and np.isfinite(pub.q).all()
                    if not finite:
                        self.failed += 1
                    if not finite or abs(np.linalg.norm(pub.q) - 1.0) > 1e-9:
                        self.bad.append(f"{model} {self.profiles[p]} tick {k}: published "
                                        f"p={pub.p} q={pub.q}")
                    elif published is not None and k + n_steps < len(trace):
                        published.append((model, p, k + n_steps, pub.p.copy(), pub.q.copy()))
        return published

    def record(self, i, result):
        if self.bad:
            raise CheckFailed("; ".join(self.bad[:3]))
        if result is None:
            return
        errs = {(m, p): ([], []) for m in ERROR_MODELS for p in PROFILES}
        for model, p, k, pos, quat in result:
            truth = self.traces[p]
            pos_err, ori_err = errs[(model, self.profiles[p])]
            pos_err.append(metrics.position_error(pos, truth.p[k]))
            ori_err.append(metrics.orientation_error(quat, truth.q[k]))
        self.errors = {m: tuple(statistics.geometric_mean(statistics.fmean(errs[(m, p)][j])
                                                          for p in PROFILES)
                                for j in (0, 1))
                       for m in ERROR_MODELS}

    def _per_tick(self, probe, start, lat):
        """Per round and tick, the scaled latency in ns (NaN where a sample hit)."""
        lat = np.frombuffer(lat, dtype=np.int64)
        scaled = np.where(lat >= 0, probe.scale_ticks(start, lat), np.nan)
        return scaled.reshape(-1, self.ticks_per_round)

    def metrics(self, probe):
        rounds = self._per_tick(probe, self.start_ns, self.lat_ns)
        with warnings.catch_warnings():  # a tick interrupted in every round has no time
            warnings.simplefilter("ignore", RuntimeWarning)
            per_tick = np.nanmedian(rounds, axis=0)
            p50, p99 = np.nanpercentile(per_tick, [50, 99]) / 1e6
            kf = self._per_tick(probe, self.start_ns, self.first_ns)
            first = np.frombuffer(self.first_ns, dtype=np.int64)
            lat = np.frombuffer(self.lat_ns, dtype=np.int64)
            p3 = self._per_tick(probe, np.add(self.start_ns, first),
                                np.where(first >= 0, lat - first, -1))
            self.model_p50 = {"KF": np.nanpercentile(np.nanmedian(kf, axis=0), 50) / 1e3,
                              "p3o3": np.nanpercentile(np.nanmedian(p3, axis=0), 50) / 1e3}
        out = {"throughput_per_s": float(np.median(1e9 / np.nanmean(rounds, axis=1))),
               "latency_p50_ms": float(p50), "latency_p99_ms": float(p99)}
        for model, (pos, ori) in self.errors.items():
            out[f"err_pos_mm.{model}"] = pos
            out[f"err_ori_deg.{model}"] = ori
        return out

    def notes(self):
        rounds = len(self.lat_ns) // self.ticks_per_round
        return [f"{self.ticks_per_round} ticks x {rounds} rounds; per-model tick p50 "
                + ", ".join(f"{m} {v:.1f} us" for m, v in self.model_p50.items())]


WORKLOADS = {w.name: w for w in (SweepHard, RealtimeStream)}


def layer_metrics(tr, overhead_pct):
    """Per-layer figures from a tracer: timings per call, counts per unit."""
    table = tr.span_table()
    c = tr.counts
    units = max(tr.units, 1)

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0] / units

    def per_call(name, scale, self_time=False):
        n, total, own = table.get(name, (0, 0.0, 0.0))
        return (own if self_time else total) / n / scale if n else 0.0

    def per_item(name, key, scale):
        total = table.get(name, (0, 0.0, 0.0))[1]
        return total / c[key] / scale if c[key] else 0.0

    ticks = calls("filters.step")
    emits = table.get("experiment.emit_report", (0, 0.0, 0.0))[0]
    report_bytes = c["experiment.emit_report.bytes"]
    streams = c["experiment.streams"] / units
    distinct = c["experiment.distinct_streams"] / units
    scored = c["experiment.scored_ticks"] / units
    m = {
        "filters.step.us": per_call("filters.step", 1e3),
        "filters.step.self_us": per_call("filters.step", 1e3, self_time=True),
        "filters.ticks": ticks,
        "filters.corrections": c["filters.corrections"] / units,
        "filters.coasted": c["filters.coasted"] / units,
        "filters.rollout_steps": c["filters.rollout_steps"] / units,
        "filters.degenerate": c["filters.degenerate"] / units,
        "experiment.run_experiment.self_s": per_call("experiment.run_experiment", 1e9,
                                                     self_time=True),
        "experiment.run_experiment.calls": calls("experiment.run_experiment"),
        "experiment.emit_report.s": per_call("experiment.emit_report", 1e9),
        "experiment.emit_report.bytes": report_bytes / emits if emits else 0.0,
        "experiment.streams": streams,
        "experiment.distinct_streams": distinct,
        "experiment.stream_reuse": 1.0 - distinct / streams if streams else 0.0,
        "experiment.failures": c["experiment.failures"] / units,
        "experiment.scored_ticks": scored,
        "experiment.scored_per_step": scored / ticks if ticks else 0.0,
        "preprocess.filter_trace.us_per_sample": per_item(
            "preprocess.filter_trace", "preprocess.samples", 1e3),
        "preprocess.filter_trace.calls": calls("preprocess.filter_trace"),
        "classifier.chunks": calls("classifier.discretize_chunk"),
        "traces.generate_synthetic_trace.us_per_sample": per_item(
            "traces.generate_synthetic_trace", "traces.samples_generated", 1e3),
        "traces.save_trace.us_per_row": per_item("traces.save_trace", "traces.rows_saved", 1e3),
        "traces.load_trace.us_per_row": per_item("traces.load_trace", "traces.rows_loaded", 1e3),
        "cli.main.self_s": per_call("cli.main", 1e9, self_time=True),
        "trace.overhead_pct": overhead_pct,
    }
    for name, unit in (("filters.error_transition_matrix", "us"),
                       ("filters.propagate_nominal", "us"),
                       ("filters.propagate_covariance", "us"),
                       ("filters.correct", "us"),
                       ("filters.estimate_pseudo_derivatives", "us"),
                       ("filters.predict_horizon", "us"),
                       ("experiment.simulate_drop", "us"),
                       ("metrics.position_error", "us"),
                       ("metrics.orientation_error", "us"),
                       ("metrics.summarize", "us"),
                       ("preprocess.filter_sample", "us"),
                       ("preprocess.chunk_trace", "us"),
                       ("classifier.discretize_chunk", "ms"),
                       ("classifier.lz_entropy", "ms")):
        m[f"{name}.{unit}"] = per_call(name, 1e3 if unit == "us" else 1e6)
        if name not in ("classifier.discretize_chunk", "classifier.lz_entropy"):
            m[f"{name}.calls"] = calls(name)
    for name in ("traces.generate_synthetic_trace", "traces.save_trace",
                 "traces.load_trace", "cli.main"):
        m[f"{name}.calls"] = calls(name)
    return m


def _run_unit(wl, i):
    wl.record(i, wl.run(i))


def measure(wl, seconds):
    """Untraced units, back to back, until the time is up and min_units are done."""
    start = time.perf_counter()
    i = 0
    while i < wl.min_units or time.perf_counter() - start < seconds:
        _run_unit(wl, i)
        i += 1


def measure_traced(wl, seconds, spans_path):
    """Alternate untraced and traced passes; returns the per-layer metrics."""
    tr = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        for i in range(wl.trace_units):
            _run_unit(wl, i)
        plain.append(time.perf_counter() - t0)
        results = []
        with tr:
            t0 = time.perf_counter()
            for i in range(wl.trace_units):
                results.append(wl.run(i))
                tr.end_unit()
            traced.append(time.perf_counter() - t0)
        for i, result in enumerate(results):
            wl.record(i, result)
    tr.save(spans_path)
    overhead = 100.0 * (statistics.fmean(traced) / statistics.fmean(plain) - 1.0)
    return tr, layer_metrics(tr, overhead), statistics.fmean(plain), statistics.fmean(traced)
