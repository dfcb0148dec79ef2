"""Benchmark harness: the model/class/horizon/drop-rate sweep.

Each trace is causally low-pass filtered, chunked, and classified once;
the predictors then stream over the filtered poses while a
seeded drop gate decides per tick whether the correction step runs.
Prediction errors are measured against the raw future pose, pooled by the
chunk's motion class, and summarized per sweep cell with confidence
intervals across repeats.

Each trace runs one predictor per (streamed model, drop rate, repeat)
and scores every horizon from that one rollout: filter state never
depends on the horizon, and at drop 0 every repeat is identical, so only
repeat 0 runs. A model is streamed unless earlier streams already hold
its errors: with p2o2 and p3o3 in the sweep, p2o3 takes the position
errors of the one and the orientation errors of the other (_stream_plan).
The drop pattern of a (drop rate, repeat) is drawn from a generator
seeded by (master_seed, drop_rate, repeat), so models and horizons are
compared under the same losses, and results never depend on execution
order or on the rest of the grid.

Errors are held as segments, not one tuple per tick: per stream, horizon
and class, one (ticks, e_pos, e_ori) triple of lists. Cells pool and keep
references to them, drop-0 repeats and stitched models share them, and
emit_report formats each distinct segment once.
"""

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classifier import MotionClass, classify, discretize_chunk, lz_entropy
from .filters import MODEL_NAMES, DegeneracyError, FilterConfig, canonical_model_name, make_predictor
from .metrics import orientation_error, position_error, summarize
from .preprocess import CHUNK_LEN, chunk_trace, design_butterworth_lowpass, filter_trace
from .traces import Pose

SUMMARY_COLUMNS = (
    "model,class,horizon_ms,drop_rate,"
    "pos_mean_mm,pos_mean_ci_low,pos_mean_ci_high,"
    "pos_median_mm,pos_median_ci_low,pos_median_ci_high,"
    "ori_mean_deg,ori_mean_ci_low,ori_mean_ci_high,"
    "ori_median_deg,ori_median_ci_low,ori_median_ci_high,"
    "n_repeats,n_samples"
)

SAMPLES_COLUMNS = "model,class,horizon_ms,drop_rate,repeat,trace,tick,e_pos_mm,e_ori_deg"


def simulate_drop(rng, drop_rate):
    """One packet draw: received iff r > drop_rate for r uniform on [0, 1)."""
    if not 0.0 <= drop_rate <= 1.0:
        raise ValueError(f"drop_rate must be in [0, 1], got {drop_rate}")
    return bool(rng.random() > drop_rate)


@dataclass
class ExperimentConfig:
    models: tuple = MODEL_NAMES
    horizons_ms: tuple = (20, 40, 60, 80, 100)
    drop_rates: tuple = (0.0, 0.1, 0.3, 0.5)
    repeats: int = 10
    master_seed: int = 0
    keep_samples: bool = True

    def __post_init__(self):
        self.models = tuple(canonical_model_name(m) for m in self.models)
        if not self.models:
            raise ValueError("at least one model is required")
        if not all(float(h).is_integer() for h in self.horizons_ms):
            raise ValueError(f"horizons must be whole milliseconds, got {self.horizons_ms}")
        self.horizons_ms = tuple(int(h) for h in self.horizons_ms)
        if any(h < 1 for h in self.horizons_ms) or not self.horizons_ms:
            raise ValueError("horizons must be positive and non-empty")
        self.drop_rates = tuple(float(d) for d in self.drop_rates)
        if any(not 0.0 <= d <= 1.0 for d in self.drop_rates) or not self.drop_rates:
            raise ValueError("drop rates must lie in [0, 1]")
        for name in ("models", "horizons_ms", "drop_rates"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} has duplicates: {values}")
        keys = [_drop_key(d) for d in self.drop_rates]
        if len(set(keys)) != len(keys):
            raise ValueError("drop rates closer than 1e-6 would draw the same "
                             f"losses: {self.drop_rates}")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")


@dataclass
class PerRepeatRow:
    model: str
    motion_class: MotionClass
    horizon_ms: int
    drop_rate: float
    repeat: int
    pos_median_mm: float
    pos_mean_mm: float
    ori_median_deg: float
    ori_mean_deg: float
    n_ticks: int


@dataclass
class AggregateRow:
    model: str
    motion_class: MotionClass
    horizon_ms: int
    drop_rate: float
    pos_mean_mm: float
    pos_mean_ci_low: float
    pos_mean_ci_high: float
    pos_median_mm: float
    pos_median_ci_low: float
    pos_median_ci_high: float
    ori_mean_deg: float
    ori_mean_ci_low: float
    ori_mean_ci_high: float
    ori_median_deg: float
    ori_median_ci_low: float
    ori_median_ci_high: float
    n_repeats: int
    n_samples: int


@dataclass
class FailedCell:
    model: str
    horizon_ms: int
    drop_rate: float
    repeat: int
    trace_index: int
    reason: str


@dataclass
class ExperimentReport:
    """The rows, failures and labels of one sweep, and its kept errors.

    The errors are held in `segments`, one entry per (cell, repeat, trace,
    class) whose lists may be shared with other entries; `samples` lists
    them one tuple per tick, in file order, and is built on each read.
    """

    config: ExperimentConfig
    per_repeat: list
    aggregates: list
    failures: list
    chunk_classes: list          # per trace: MotionClass per chunk
    segments: list               # (model, class, h, drop, repeat, trace, (ticks, e_pos, e_ori))

    @property
    def samples(self):
        """Every kept sample as (model, class, h, drop, repeat, trace, tick,
        e_pos, e_ori), built from the segments on each read."""
        return [(*cell, k, ep, eo) for *cell, segment in self.segments
                for k, ep, eo in zip(*segment)]

    @cached_property
    def _cells(self):
        return {(r.model, r.motion_class, r.horizon_ms, r.drop_rate): r
                for r in self.aggregates}

    def aggregate(self, model, motion_class, horizon_ms, drop_rate):
        """The single aggregate row matching the given cell, or None."""
        drop = next((d for d in self.config.drop_rates
                     if abs(d - drop_rate) < 1e-12), None)
        return self._cells.get((model, motion_class, horizon_ms, drop))


def classify_chunk(chunk):
    """Entropy-band label for one chunk of poses."""
    return classify(lz_entropy(discretize_chunk(chunk)))


def _prepare_trace(trace, config):
    """(dt, horizon steps, poses, truth, chunk labels) of one trace.

    The poses are the filtered ones as Pose objects with read-only
    arrays, built once: every stream of the trace steps these same
    objects. The truth is the raw (positions, orientations) as float
    lists. The labels are replaced by a ValueError when the trace is
    shorter than one chunk, or by the classifier's when a chunk holds a
    non-finite pose. When the trace's tick interval does not suit the
    sweep (not finite and positive, longer than a horizon, or too long
    for the prefilter's cutoff), they are replaced by that ValueError,
    with no poses.
    """
    dt = trace.median_dt()
    try:
        steps = horizon_steps(config.horizons_ms, dt)
        sos = design_butterworth_lowpass(sample_hz=1.0 / dt)
    except ValueError as e:
        return dt, None, None, None, e
    filtered = filter_trace(trace, sos)
    p, q = filtered.p.view(), filtered.q.view()
    p.flags.writeable = q.flags.writeable = False
    poses = [Pose(t, pk, qk) for t, pk, qk in zip(filtered.t.tolist(), p, q)]
    try:
        chunks = chunk_trace(filtered)
        if not chunks:
            raise ValueError(f"trace has {len(trace)} samples, "
                             f"fewer than one chunk of {CHUNK_LEN}")
        labels = [classify_chunk(c) for c in chunks]
    except ValueError as e:
        labels = e
    return dt, steps, poses, (trace.p.tolist(), trace.q.tolist()), labels


def _drop_key(drop_rate):
    """The drop rate's part of its masks' seed: whole millionths."""
    return int(round(drop_rate * 1e6))


def _cell_rng(config, drop_rate, repeat):
    key = (config.master_seed, _drop_key(drop_rate), int(repeat))
    return np.random.default_rng(np.random.SeedSequence(key))


def _streamed_repeats(config, drop_rate):
    """Repeats that need a stream of their own: at drop 0 every repeat is repeat 0."""
    return 1 if drop_rate == 0.0 else config.repeats


def _drop_masks(config, traces):
    """Received flags of ticks 1..n-1, per (drop rate, repeat) and trace.

    All masks are drawn before any stream runs, trace after trace from one
    generator per (drop rate, repeat), so every model and horizon sees the
    same losses and a failed stream shifts no other stream's pattern. Every
    tick gets a flag, also the unscored tail that no stream steps and the
    ticks of a trace that cannot stream at all, so the draws for a trace
    never depend on its labels, its timestamps or the horizons. At
    drop 0 every packet arrives, which is what lets the repeats share one
    stream.
    """
    masks = {}
    for drop in config.drop_rates:
        for rep in range(_streamed_repeats(config, drop)):
            rng = _cell_rng(config, drop, rep)
            masks[drop, rep] = [[drop == 0.0 or simulate_drop(rng, drop)
                                 for _ in range(1, len(trace))]
                                for trace in traces]
    return masks


def horizon_steps(horizons_ms, dt):
    """Tick count of each horizon, in ms, on a trace sampled every dt seconds."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"median tick interval {dt!r} s is not finite and positive")
    steps = []
    for h_ms in horizons_ms:
        ticks = h_ms / 1000.0 / dt
        if not math.isfinite(ticks):
            raise ValueError(f"horizon {h_ms} ms is not a finite number of ticks")
        n_steps = int(round(ticks))
        if n_steps < 1:
            raise ValueError(
                f"horizon {h_ms} ms is shorter than one tick of {dt:.9g} s")
        steps.append(n_steps)
    return steps


def _stream_plan(models):
    """The order the models run in, each with the streams it is stitched from.

    Returns (model, sources) pairs. sources is None for a model that
    streams a predictor of its own, or the (position, rotation) models
    whose streams already hold its position and orientation errors.
    Error-state models of equal orders stream first, then KF, then the
    rest; a later error-state model whose position order and rotation
    order both match models streamed before it builds no predictor. The
    filters module notes state why that stitch is exact.
    """
    orders = {c.model: (c.ord_pos, c.ord_rot)
              for c in (FilterConfig(model=m) for m in models if m != "KF")}

    def rank(m):
        if m == "KF":
            return 1
        o_pos, o_rot = orders[m]
        return 0 if o_pos == o_rot else 2

    pos_src, rot_src, plan = {}, {}, []
    for m in sorted(models, key=rank):
        sources = None
        if m in orders:
            o_pos, o_rot = orders[m]
            if o_pos in pos_src and o_rot in rot_src:
                sources = pos_src[o_pos], rot_src[o_rot]
            else:
                pos_src.setdefault(o_pos, m)
                rot_src.setdefault(o_rot, m)
        plan.append((m, sources))
    return plan


def run_experiment(config, traces):
    """Sweep every configured cell over the traces; returns the report.

    Each trace runs one predictor per (streamed model, drop rate, repeat),
    built at the longest horizon; every horizon is scored from its
    rollout. At drop 0 only repeat 0 streams, and the other repeats reuse
    its errors. A model stitched from earlier streams (_stream_plan)
    builds no predictor. Rows, samples and failures still come in the
    order of config.models.

    A stream that stops, on a numerically degenerate filter
    (DegeneracyError) or on a pose the filter refuses (ValueError: a
    non-finite or non-unit first pose or tick, a stale timestamp), marks
    every (cell, trace) combination it feeds failed and the sweep keeps
    going; that trace contributes no samples to the failed cells, and a
    stitched stream fails with the reason of its failed source. A
    trace shorter than one chunk, with a chunk the classifier refuses (a
    non-finite pose), or whose median tick interval does not suit the
    sweep (a NaN timestamp, a horizon shorter than one tick, a cutoff at
    or above its Nyquist rate), fails them all with that error and
    reports no labels; when no trace can be prefiltered, the first
    trace's error is raised. Streams
    stop at the last scored tick, so a filter that would break only after
    it fails nothing.
    """
    traces = list(traces)
    if not traces:
        raise ValueError("at least one trace is required")
    prepared = [_prepare_trace(t, config) for t in traces]
    if all(poses is None for _, _, poses, _, _ in prepared):
        raise prepared[0][4]
    masks = _drop_masks(config, traces)

    plan = _stream_plan(config.models)
    cells = {model: {} for model in config.models}
    for drop in config.drop_rates:
        for rep in range(_streamed_repeats(config, drop)):
            streams = {}
            for model, sources in plan:
                if sources is None:
                    streams[model] = [
                        _stream_trace(model, prep, masks[drop, rep][ti])
                        for ti, prep in enumerate(prepared)]
                else:
                    streams[model] = list(map(_stitch, *(streams[s] for s in sources)))
                for hi, h_ms in enumerate(config.horizons_ms):
                    cells[model][h_ms, drop, rep] = _pool_cell(config, streams[model], hi)

    per_repeat = []
    failures = []
    segments = []
    for model in config.models:
        model_cells = cells[model]
        for h_ms in config.horizons_ms:
            for drop in config.drop_rates:
                for rep in range(config.repeats):
                    # at drop 0 every repeat reads repeat 0's stream
                    stats, failed, kept = model_cells[h_ms, drop, min(
                        rep, _streamed_repeats(config, drop) - 1)]
                    failures.extend(FailedCell(model, h_ms, drop, rep, ti, reason)
                                    for ti, reason in failed)
                    per_repeat.extend(PerRepeatRow(model, cls, h_ms, drop, rep, *row)
                                      for cls, *row in stats)
                    segments.extend((model, cls, h_ms, drop, rep, ti, segment)
                                    for cls, ti, segment in kept)

    aggregates = _aggregate(config, per_repeat)
    return ExperimentReport(config, per_repeat, aggregates, failures,
                            [[] if isinstance(labels, ValueError) else labels
                             for *_, labels in prepared], segments)


def _stream_trace(model, prepared, mask):
    """Stream one model over one prepared trace and score it by class.

    Returns one {class: (ticks, e_pos, e_ori)} per horizon, each scored
    off the predictor's rollout at its step count, or the error that
    stopped the stream. The stream ends at the last tick any horizon
    scores: ticks past the labelled chunks, or too close to the end for
    the shortest horizon, are never filtered, so a degeneracy there fails
    no cell. The tick loop only keeps each horizon's rollout pick; the
    picks are scored after it, and a horizon's scored ticks (1 up to its
    last) are split by chunk with one slice per chunk. A class whose
    chunks recur gets one segment holding them in tick order.
    """
    dt, steps, poses, truth, labels = prepared
    if isinstance(labels, ValueError):
        return labels
    n = len(poses)
    end = min(len(labels) * CHUNK_LEN, n - min(steps))
    true_p, true_q = truth
    try:
        pred = make_predictor(FilterConfig(model=model, dt=dt, horizon_steps=max(steps)),
                              poses[0])
        picks = [(n_steps, []) for n_steps in steps]
        for k in range(1, end):
            pred.step(poses[k], received=mask[k - 1])
            rollout = pred.rollout
            for n_steps, picked in picks:
                picked.append(rollout[n_steps - 1])
        out = []
        for n_steps, picked in picks:
            # picked[j] is tick j + 1, scored against truth j + 1 + n_steps;
            # map stops at the end of the truth, which drops the ticks too
            # close to it for this horizon
            e_pos = list(map(position_error, [p for p, _ in picked], true_p[n_steps + 1:]))
            e_ori = list(map(orientation_error, [q for _, q in picked], true_q[n_steps + 1:]))
            segments = {}
            for c, cls in enumerate(labels):
                lo, hi = max(c * CHUNK_LEN, 1), min((c + 1) * CHUNK_LEN, len(e_pos) + 1)
                if lo >= hi:
                    break
                ticks, eps, eos = segments.setdefault(cls, ([], [], []))
                ticks.extend(range(lo, hi))
                eps.extend(e_pos[lo - 1:hi - 1])
                eos.extend(e_ori[lo - 1:hi - 1])
            out.append(segments)
    except (DegeneracyError, ValueError) as e:
        return e
    return out


def _stitch(pos_stream, rot_stream):
    """One trace's stream from the position errors of one stream and the
    orientation errors of another, or the error of the first that failed.

    Both ran on the same ticks under the same losses, so they scored the
    same ticks in the same classes. The stitched segments share their
    tick and e_pos lists with the first stream and e_ori with the second.
    """
    for stream in (pos_stream, rot_stream):
        if isinstance(stream, Exception):
            return stream
    return [{cls: (ticks, eps, rot[cls][2]) for cls, (ticks, eps, _) in pos.items()}
            for pos, rot in zip(pos_stream, rot_stream)]


def _pool_cell(config, streams, hi):
    """Pool horizon hi of one stream per trace into a cell, by class.

    Returns the per-class statistics (class, pos median, pos mean, ori
    median, ori mean, ticks), the failed traces (trace, reason) and, when
    samples are kept, the segments (class, trace, (ticks, e_pos, e_ori))
    the statistics were pooled from, which are shared, not copied.
    """
    pool = {}
    failed = []
    kept = []
    for ti, stream in enumerate(streams):
        if isinstance(stream, Exception):
            failed.append((ti, str(stream)))
            continue
        for cls, segment in stream[hi].items():
            dst = pool.setdefault(cls, ([], []))
            dst[0].extend(segment[1])
            dst[1].extend(segment[2])
            if config.keep_samples:
                kept.append((cls, ti, segment))
    stats = []
    for cls, (eps, eos) in sorted(pool.items()):
        eps, eos = np.array(eps), np.array(eos)
        stats.append((cls, float(np.median(eps)), float(np.mean(eps)),
                      float(np.median(eos)), float(np.mean(eos)), len(eps)))
    return stats, failed, kept


def _aggregate(config, per_repeat):
    groups = {}
    for r in per_repeat:
        groups.setdefault((r.model, r.motion_class, r.horizon_ms, r.drop_rate),
                          []).append(r)
    rows = []
    for model in config.models:
        for cls in MotionClass:
            for h_ms in config.horizons_ms:
                for drop in config.drop_rates:
                    group = groups.get((model, cls, h_ms, drop))
                    if not group:
                        continue
                    pm = summarize([r.pos_mean_mm for r in group])
                    pq = summarize([r.pos_median_mm for r in group])
                    om = summarize([r.ori_mean_deg for r in group])
                    oq = summarize([r.ori_median_deg for r in group])
                    rows.append(AggregateRow(
                        model, cls, h_ms, drop,
                        pm.mean, pm.ci_low, pm.ci_high,
                        pq.mean, pq.ci_low, pq.ci_high,
                        om.mean, om.ci_low, om.ci_high,
                        oq.mean, oq.ci_low, oq.ci_high,
                        len(group), sum(r.n_ticks for r in group)))
    return rows


def _fmt(v):
    return "%.9g" % v


def emit_report(report, out_dir):
    """Write summary.csv, samples.csv, and a fixed-width table.txt.

    Identical reports produce byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SUMMARY_COLUMNS + "\n")
        for r in report.aggregates:
            fields = [r.model, r.motion_class.label, str(r.horizon_ms),
                      _fmt(r.drop_rate),
                      _fmt(r.pos_mean_mm), _fmt(r.pos_mean_ci_low),
                      _fmt(r.pos_mean_ci_high),
                      _fmt(r.pos_median_mm), _fmt(r.pos_median_ci_low),
                      _fmt(r.pos_median_ci_high),
                      _fmt(r.ori_mean_deg), _fmt(r.ori_mean_ci_low),
                      _fmt(r.ori_mean_ci_high),
                      _fmt(r.ori_median_deg), _fmt(r.ori_median_ci_low),
                      _fmt(r.ori_median_ci_high),
                      str(r.n_repeats), str(r.n_samples)]
            fh.write(",".join(fields) + "\n")

    # a segment's rows are formatted once: the drop-0 repeats share repeat
    # 0's segments. A stitched segment shares its e_pos list with one stream
    # and its e_ori list with another, so only all three lists identify it.
    bodies = {}
    with open(os.path.join(out_dir, "samples.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(SAMPLES_COLUMNS + "\n")
        for model, cls, h_ms, drop, rep, ti, segment in report.segments:
            key = tuple(map(id, segment))
            rows = bodies.get(key)
            if rows is None:
                rows = bodies[key] = list(map("%d,%.9g,%.9g".__mod__, zip(*segment)))
            prefix = f"{model},{cls.label},{h_ms},{_fmt(drop)},{rep},{ti},"
            fh.write(prefix + ("\n" + prefix).join(rows) + "\n")

    with open(os.path.join(out_dir, "table.txt"), "w", encoding="utf-8",
              newline="\n") as fh:
        _write_table(report, fh)
    return summary_path


def _write_table(report, fh):
    """Per (horizon, drop) block: models as rows, classes as column groups."""
    config = report.config
    blocks = {}
    for r in report.aggregates:
        blocks.setdefault((r.horizon_ms, r.drop_rate), set()).add(r.motion_class)
    for h_ms in config.horizons_ms:
        for drop in config.drop_rates:
            if (h_ms, drop) not in blocks:
                continue
            classes = sorted(blocks[h_ms, drop])
            fh.write(f"horizon {h_ms} ms, drop rate {_fmt(drop)}\n")
            head1 = f"{'':8s}"
            head2 = f"{'model':8s}"
            for cls in classes:
                head1 += f"| {cls.label:^39s} "
                head2 += ("| " + f"{'pos med':>9s}{'pos mean':>10s}"
                          + f"{'ori med':>9s}{'ori mean':>10s} ")
            fh.write(head1.rstrip() + "\n")
            fh.write(head2.rstrip() + "\n")
            for model in config.models:
                line = f"{model:8s}"
                for cls in classes:
                    row = report._cells.get((model, cls, h_ms, drop))
                    if row is None:
                        line += "| " + " " * 38 + " "
                    else:
                        line += ("| " + f"{row.pos_median_mm:9.3f}"
                                 + f"{row.pos_mean_mm:10.3f}"
                                 + f"{row.ori_median_deg:9.3f}"
                                 + f"{row.ori_mean_deg:10.3f} ")
                fh.write(line.rstrip() + "\n")
            fh.write("\n")
