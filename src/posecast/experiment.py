"""Benchmark harness: the model/class/horizon/drop-rate sweep.

Each trace is causally low-pass filtered, chunked, and classified once;
the predictors then stream over the filtered poses while a
seeded drop gate decides per tick whether the correction step runs.
Prediction errors are measured against the raw future pose, pooled by the
chunk's motion class, and summarized per sweep cell with confidence
intervals across repeats.

Every entry point prepares a trace through prepare_trace: `posecast
bench`, `classify` and `predict`, the demos and the README's Library
example. So wherever chunks are labelled (label_chunks), the labels are
those of the poses the filters stream. Every stream, also in `posecast
predict` and the demos, runs through stream_picks and score_picks, and
scores every horizon from one rollout: filter state never depends on the
horizon. The predictor's track runs the stream and returns each tick's
state; a sweep runs every draw of a (model, trace) as one group over one
filters.Ticks, which does the work that reads only the poses and the
losses once for every model and draw, and rolls the group's states out
in one forecasts call, into a (ticks, 7) array of poses per horizon.
Two rules share streams, each decided once as data: a draw of drop masks
names the repeats it serves (drop_masks), and the plan names the two
streams each model's errors come from (_stream_plan).
run_experiment applies both without a branch on either, files each cell
under every (model, horizon, drop rate, repeat) it serves, and reads the
report out of that table in grid order. A draw is seeded by
(master_seed, drop_rate, repeat), so models and horizons are compared
under the same losses, and results never depend on execution order or
on the rest of the grid.

A stream's errors are score_picks' flat lists: one (e_pos, e_ori) pair
per horizon, from tick 1, as predict prints them. score_picks computes
them in one numpy pass per stream: every horizon's poses are stacked
against their targets in the truth arrays, each metric is called once,
and the result is split back per horizon. _stream_trace cuts each
horizon's lists once, where the stream stops, into one (ticks, e_pos,
e_ori) segment per class; every cell the stream feeds pools those same
segments (_pool_cell) and keeps them. Every repeat a draw serves files
the same segments, and emit_report formats each segment once.
"""

import math
import os
from collections.abc import Iterable
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate, product

import numpy as np

from .classifier import MotionClass, classify, discretize_chunk, lz_entropy
from .filters import MODEL_NAMES, FilterConfig, Ticks, canonical_model_name, make_predictor
from .metrics import orientation_error, position_error, summarize
from .preprocess import CHUNK_LEN, chunk_trace, design_butterworth_lowpass, filter_trace
from .so3 import UNIT_NORM_TOL, off_unit_message
from .traces import Pose, real_number, whole_number

SAMPLES_COLUMNS = "model,class,horizon_ms,drop_rate,repeat,trace,tick,e_pos_mm,e_ori_deg"

# the most ticks a group rolls out in one forecasts call: past a few thousand,
# numpy's cost per call no longer shows, and the rollout stays a few MB
GROUP_TICKS = 4096


def simulate_drop(rng, drop_rate):
    """One packet draw: received iff r > drop_rate for r uniform on [0, 1)."""
    if not 0.0 <= drop_rate <= 1.0:
        raise ValueError(f"drop_rate must be in [0, 1], got {drop_rate}")
    return bool(rng.random() > drop_rate)


@dataclass(frozen=True)
class ExperimentConfig:
    models: tuple = MODEL_NAMES
    horizons_ms: tuple = (20, 40, 60, 80, 100)
    drop_rates: tuple = (0.0, 0.1, 0.3, 0.5)
    repeats: int = 10
    master_seed: int = 0
    keep_samples: bool = True

    def __post_init__(self):
        for name in ("models", "horizons_ms", "drop_rates"):
            values = getattr(self, name)
            if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
                raise ValueError(f"{name} must be an iterable of values, got {values!r}")
            object.__setattr__(self, name, tuple(values))
        object.__setattr__(self, "models", tuple(canonical_model_name(m) for m in self.models))
        if not self.models:
            raise ValueError("at least one model is required")
        object.__setattr__(self, "horizons_ms",
                           tuple(whole_number("horizons_ms", h) for h in self.horizons_ms))
        if any(h < 1 for h in self.horizons_ms) or not self.horizons_ms:
            raise ValueError("horizons must be positive and non-empty")
        object.__setattr__(self, "drop_rates",
                           tuple(real_number("drop_rates", d) for d in self.drop_rates))
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
        object.__setattr__(self, "repeats", whole_number("repeats", self.repeats))
        object.__setattr__(self, "master_seed", whole_number("master_seed", self.master_seed))
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
    """One summary.csv row: its fields are the columns in order, with
    motion_class as class. Statistics are across repeats: a median is the
    mean of the repeats' pooled medians, and _ci_low/_ci_high bound a 95%
    Student-t interval. A horizon is whole ticks of each trace's median
    interval; two horizons that round to the same count fail that trace."""

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


SUMMARY_COLUMNS = ",".join({"motion_class": "class"}.get(f.name, f.name)
                           for f in fields(AggregateRow))


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
    class); the drop-0 repeats of a cell share one segment object.
    `samples` lists them one tuple per tick, in file order, and is built on
    each read.
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
        """The single aggregate row matching the given cell, or None. The
        model name is matched as the configs match it (ValueError if unknown)."""
        drop = next((d for d in self.config.drop_rates
                     if abs(d - drop_rate) < 1e-12), None)
        return self._cells.get((canonical_model_name(model), motion_class, horizon_ms, drop))


def label_chunks(filtered):
    """(entropy, MotionClass) of each chunk of a prefiltered trace.

    ValueError when the trace is shorter than one chunk, or the
    classifier's when a chunk holds a non-finite pose.
    """
    chunks = chunk_trace(filtered)
    if not chunks:
        raise ValueError(f"trace has {len(filtered)} samples, "
                         f"fewer than one chunk of {CHUNK_LEN}")
    entropies = [lz_entropy(discretize_chunk(c)) for c in chunks]
    return [(h, classify(h)) for h in entropies]


def prepare_trace(trace, horizons_ms):
    """(dt, horizon steps, prefiltered trace, poses, truth) of one trace.

    dt is the median tick interval, at which the prefilter is designed and
    each horizon, in ms, is rounded to whole ticks (horizon_steps). The
    poses are the prefiltered ones as Pose objects with read-only arrays,
    built once: every stream of the trace steps these same objects. The
    truth is the raw (positions, orientations): the trace's own arrays.
    ValueError when dt does not suit the horizons or the prefilter's
    cutoff, when two horizons round to the same tick count, when the
    longest horizon leaves no tick with a target in the trace, or when a
    raw quaternion's norm is more than UNIT_NORM_TOL off unit, the
    tolerance of the log map that scores it; that error names the first
    such sample.
    """
    dt = trace.median_dt()
    steps = horizon_steps(horizons_ms, dt)
    if steps and max(steps) >= len(trace) - 1:
        h_ms = horizons_ms[steps.index(max(steps))]
        raise ValueError(f"horizon {h_ms} ms reaches past the end of a "
                         f"{len(trace)}-sample trace")
    for i, n_steps in enumerate(steps):
        if n_steps in steps[:i]:
            raise ValueError(f"horizons {horizons_ms[steps.index(n_steps)]} and "
                             f"{horizons_ms[i]} ms both round to {n_steps} ticks of {dt:.9g} s")
    filtered = filter_trace(trace, design_butterworth_lowpass(sample_hz=1.0 / dt))
    w, x, y, z = trace.q.T
    norm = np.sqrt(w * w + x * x + y * y + z * z)
    off = np.flatnonzero(np.abs(norm - 1.0) > UNIT_NORM_TOL)
    if off.size:
        k = off[0]
        raise ValueError(f"sample {k} at t = {trace.t[k]:.9g}: {off_unit_message(norm[k])}")
    p, q = filtered.p.view(), filtered.q.view()
    p.flags.writeable = q.flags.writeable = False
    poses = [Pose(t, pk, qk) for t, pk, qk in zip(filtered.t.tolist(), p, q)]
    return dt, steps, filtered, poses, (trace.p, trace.q)


def _drop_key(drop_rate):
    """The drop rate's part of its masks' seed: whole millionths."""
    return int(round(drop_rate * 1e6))


def _cell_rng(config, drop_rate, repeat):
    key = (config.master_seed, _drop_key(drop_rate), int(repeat))
    return np.random.default_rng(np.random.SeedSequence(key))


def drop_masks(config, traces):
    """Received flags of ticks 1..n-1, per draw and trace.

    A draw is keyed by (drop rate, repeats), the repeats it serves: at
    drop 0 every packet arrives, so one draw serves all of them; any other
    rate draws once per repeat r, keyed (drop rate, (r,)). All masks are
    drawn before any stream runs, trace after trace from one generator per
    draw, so every model and horizon sees the same losses and a failed
    stream shifts no other stream's pattern. Every tick gets a flag, also
    the unscored tail that no stream steps and the ticks of a trace that
    cannot stream at all, so the draws for a trace never depend on its
    labels, its timestamps or the horizons.
    """
    masks = {}
    for drop in config.drop_rates:
        draws = ([tuple(range(config.repeats))] if drop == 0.0
                 else [(rep,) for rep in range(config.repeats)])
        for repeats in draws:
            rng = _cell_rng(config, drop, repeats[0])
            masks[drop, repeats] = [[drop == 0.0 or simulate_drop(rng, drop)
                                     for _ in range(1, len(trace))]
                                    for trace in traces]
    return masks


def horizon_steps(horizons_ms, dt):
    """Tick count of each horizon, in ms, on a trace sampled every dt seconds:
    the nearest whole tick, halves up. The count is snapped to 9 decimals
    first, so the float noise of a median interval cannot move a half-tick
    horizon between traces of one clock."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"median tick interval {dt!r} s is not finite and positive")
    steps = []
    for h_ms in horizons_ms:
        ticks = h_ms / 1000.0 / dt
        if not math.isfinite(ticks):
            raise ValueError(f"horizon {h_ms} ms is not a finite number of ticks")
        n_steps = math.floor(round(ticks, 9) + 0.5)
        if n_steps < 1:
            raise ValueError(
                f"horizon {h_ms} ms is shorter than one tick of {dt:.9g} s")
        steps.append(n_steps)
    return steps


def _stream_plan(models):
    """The order the models run in, each with the streams its errors come from.

    Returns (model, (position source, orientation source)) pairs, models of
    equal orders first. Each half is keyed on the FilterConfig's predictor
    class and that half's order, and its source is the first model in the
    plan with that key: the filters module notes state why that model's
    stream holds the half bit for bit. So a source never comes later than
    the models it serves, and a model streams a predictor of its own if
    and only if it is one of its own sources; with p2o2 and p3o3 listed,
    p2o3 builds none. The plan's order sets which model is a source and
    no output order: run_experiment reads its report out in grid order.
    """
    configs = sorted(map(FilterConfig, models), key=lambda c: c.ord_pos != c.ord_rot)
    pos_src, rot_src = {}, {}
    for cfg in configs:
        pos_src.setdefault((cfg.predictor, cfg.ord_pos), cfg.model)
        rot_src.setdefault((cfg.predictor, cfg.ord_rot), cfg.model)
    return [(cfg.model, (pos_src[cfg.predictor, cfg.ord_pos], rot_src[cfg.predictor, cfg.ord_rot]))
            for cfg in configs]


def run_experiment(config, traces):
    """Sweep every configured cell over the traces; returns the report.

    One pass over the draws of drop_masks: each runs one predictor, built
    at the longest horizon, per trace and model that streams in the plan
    (_stream_plan). Each model's cell at each horizon is pooled from its
    two source streams (_pool_cell) and filed once under every
    (model, horizon, drop rate, repeat) the draw serves. One loop over
    that grid, in the config's orders, then reads out the per-repeat rows,
    failures and kept segments; the summary rows go model by model, class
    by class, in that order.

    A stream that stops on a pose the filter refuses (ValueError: a
    non-finite or non-unit first pose or tick, a stale timestamp) marks
    every (cell, trace) combination it feeds failed and the sweep keeps
    going; that trace contributes no samples to the failed cells. A trace
    with a non-finite pose, which the prefilter refuses, one with a raw
    quaternion more than UNIT_NORM_TOL off unit norm, one shorter than
    one chunk, one with a chunk the classifier refuses (a filtered
    quaternion of zero norm comes out NaN), or one whose median tick
    interval does not suit the sweep (a NaN timestamp, a horizon shorter
    than one tick or reaching past the trace's end, two horizons on one
    tick count, a cutoff at or above its Nyquist rate) fails them all
    with that error and reports no labels; when no trace can be
    prefiltered, the first trace's error is raised. Streams stop at the
    last scored tick, so a filter that would break only after it fails
    nothing.
    """
    # the summaries' t quantile loads scipy.special on first use; loaded amid
    # the streams' short-lived objects it fragments the heap, which slowed
    # every later sweep of a process by about 2%, so it is loaded before them
    import scipy.special  # noqa: F401
    traces = list(traces)
    if not traces:
        raise ValueError("at least one trace is required")
    prepared = []
    for trace in traces:
        dt = steps = poses = truth = None
        try:
            dt, steps, filtered, poses, truth = prepare_trace(trace, config.horizons_ms)
            labels = [cls for _, cls in label_chunks(filtered)]
        except ValueError as e:
            labels = e
        prepared.append((dt, steps, poses, truth, labels))
    if all(poses is None for _, _, poses, _, _ in prepared):
        raise prepared[0][4]

    plan = _stream_plan(config.models)
    streamed = [model for model, sources in plan if model in sources]
    draws = drop_masks(config, traces)
    # per trace, model and draw: the stream's segments, or the error that stopped it
    streams = [_stream_trace(streamed, prep, [masks[ti] for masks in draws.values()])
               for ti, prep in enumerate(prepared)]
    cells = {}
    for d, (drop, repeats) in enumerate(draws):
        for model, (pos, rot) in plan:
            for hi, h_ms in enumerate(config.horizons_ms):
                stats, failed, kept = _pool_cell([s[pos][d] for s in streams],
                                                 [s[rot][d] for s in streams], hi)
                cell = stats, failed, (kept if config.keep_samples else [])
                cells.update(((model, h_ms, drop, r), cell) for r in repeats)

    per_repeat, failures, segments, groups = [], [], [], {}
    for model, h_ms, drop, r in product(config.models, config.horizons_ms,
                                        config.drop_rates, range(config.repeats)):
        stats, failed, kept = cells[model, h_ms, drop, r]
        for cls, *row in stats:
            per_repeat.append(PerRepeatRow(model, cls, h_ms, drop, r, *row))
            groups.setdefault((model, cls, h_ms, drop), []).append(per_repeat[-1])
        failures.extend(FailedCell(model, h_ms, drop, r, ti, reason) for ti, reason in failed)
        segments.extend((model, cls, h_ms, drop, r, ti, segment) for cls, ti, segment in kept)
    aggregates = sorted(map(_aggregate_row, groups.values()),
                        key=lambda a: (config.models.index(a.model), a.motion_class))
    return ExperimentReport(config, per_repeat, aggregates, failures,
                            [[] if isinstance(labels, ValueError) else labels
                             for *_, labels in prepared], segments)


def stream_picks(model, dt, steps, poses, mask, end):
    """Each horizon's forecasts of a fresh predictor over poses[1:end].

    Tick k is received iff mask[k - 1]. The predictor's track runs the
    stream and returns each tick's state; its forecasts then roll every
    state out at once. Horizon i gets an (end - 1, 7) array whose row j is
    the pose [p q] steps[i] ticks past tick j + 1, as a stream of a
    sweep's group (_group_picks) gets it.
    """
    (picks,) = _group_picks(model, dt, steps, Ticks(poses[1:end], poses[0]), [mask])
    if isinstance(picks, ValueError):
        raise picks
    return picks


def _group_picks(model, dt, steps, ticks, masks):
    """stream_picks of each mask over one Ticks, at whose first pose every
    predictor starts: per mask the horizons' arrays, or the ValueError
    that stopped the stream. The tracks share the Ticks' work, and one
    forecasts call rolls them all out (_roll)."""
    cfg = FilterConfig(model=model, dt=dt, horizon_steps=max(steps))
    runs, pred = [], None
    for mask in masks:
        try:
            pred = make_predictor(cfg, ticks.first)
            runs.append(pred.track(ticks, mask))
        except ValueError as e:
            runs.append(e)
    rolled = iter(_roll(pred, [run for run in runs if not isinstance(run, ValueError)], steps))
    return [run if isinstance(run, ValueError) else next(rolled) for run in runs]


def _roll(pred, runs, steps):
    """pred.forecasts of the runs' states joined, split back per run.
    Where it refuses a state, each run is rolled out alone, so only a run
    that holds one fails, with that ValueError for its arrays."""
    if not runs:
        return []
    try:
        rolled = pred.forecasts(sum(runs[1:], runs[0]), steps)
    except ValueError as e:
        return [e] if len(runs) == 1 else [_roll(pred, [run], steps)[0] for run in runs]
    ends = list(accumulate(map(len, runs)))[:-1]
    return list(map(list, zip(*(np.split(rows, ends) for rows in rolled))))


def score_picks(picks, steps, truth):
    """(e_pos, e_ori) of each horizon's picks against the raw truth: row j
    of picks[i] is tick j + 1, scored against truth j + 1 + steps[i] while
    there is one.

    Every horizon is scored in one call of each metric, on the picks
    stacked into one array and their targets taken from the truth arrays;
    the errors are then split back into one pair of float lists per
    horizon."""
    true_p, true_q = truth
    counts = [max(0, min(len(picked), len(true_p) - n_steps - 1))
              for n_steps, picked in zip(steps, picks)]
    if not sum(counts):
        return [([], []) for _ in counts]
    poses = np.concatenate([picked[:m] for picked, m in zip(picks, counts)])
    targets = np.concatenate([np.arange(n_steps + 1, n_steps + 1 + m)
                              for n_steps, m in zip(steps, counts)])
    e_pos = position_error(poses[:, :3], true_p[targets]).tolist()
    e_ori = orientation_error(poses[:, 3:], true_q[targets]).tolist()
    ends = list(accumulate(counts))
    return [(e_pos[end - m:end], e_ori[end - m:end]) for m, end in zip(counts, ends)]


def _stream_trace(models, prepared, masks):
    """Stream each model over one prepared trace under each mask, score
    every stream and cut it by class.

    Returns per model a list with, per mask, one dict per horizon of one
    (ticks, e_pos, e_ori) segment per class, in the order the classes
    first appear, or the error that stopped the stream. Tick k lies in
    chunk k // CHUNK_LEN; a class whose chunks recur gets one segment
    holding them in tick order. The streams end at the last tick any
    horizon scores: ticks past the labelled chunks, or too close to the
    end for the shortest horizon, are never filtered, so a filter that
    would break there fails no cell. The masks go in groups of at most
    GROUP_TICKS ticks, each over one Ticks (_group_picks).
    """
    dt, steps, poses, truth, labels = prepared
    if isinstance(labels, ValueError):
        return {model: [labels] * len(masks) for model in models}
    end = min(len(labels) * CHUNK_LEN, len(poses) - min(steps))
    size = max(1, GROUP_TICKS // (end - 1))
    streams = {model: [] for model in models}
    for g in range(0, len(masks), size):
        ticks = Ticks(poses[1:end], poses[0])
        for model in models:
            for picks in _group_picks(model, dt, steps, ticks, masks[g:g + size]):
                try:
                    if isinstance(picks, ValueError):
                        raise picks
                    streams[model].append(_cut(score_picks(picks, steps, truth), labels))
                except ValueError as e:
                    streams[model].append(e)
    return streams


def _cut(scored, labels):
    """A stream's score_picks lists cut by class (_stream_trace)."""
    cut = []
    for e_pos, e_ori in scored:
        m = len(e_pos)
        segments = {}
        for c, cls in enumerate(labels[:m // CHUNK_LEN + 1]):
            first, stop = max(c * CHUNK_LEN, 1), min((c + 1) * CHUNK_LEN, m + 1)
            ticks, seg_pos, seg_ori = segments.setdefault(cls, ([], [], []))
            ticks.extend(range(first, stop))
            seg_pos.extend(e_pos[first - 1:stop - 1])
            seg_ori.extend(e_ori[first - 1:stop - 1])
        cut.append(segments)
    return cut


def _pool_cell(pos_streams, rot_streams, hi):
    """Pool horizon hi into a cell, by class: per trace, the position
    errors of one stream's segments and the orientation errors of the
    other's, which hold the same classes and ticks. A trace fails with the
    error of the first of its two streams that failed. Returns the
    per-class statistics (class, pos median, pos mean, ori median, ori
    mean, ticks), the failed traces (trace, reason) and the segments
    (class, trace, (ticks, e_pos, e_ori)) they were read off.
    """
    failed, segments = [], []
    for ti, (pos, rot) in enumerate(zip(pos_streams, rot_streams)):
        stream = pos if isinstance(pos, Exception) else rot
        if isinstance(stream, Exception):
            failed.append((ti, str(stream)))
            continue
        segments.extend((cls, ti, (ticks, e_pos, rot[hi][cls][2]))
                        for cls, (ticks, e_pos, _) in pos[hi].items())
    stats = []
    for cls in sorted({cls for cls, _, _ in segments}):
        eps, eos = (np.concatenate([seg[i] for c, _, seg in segments if c == cls])
                    for i in (1, 2))
        stats.append((cls, float(np.median(eps)), float(np.mean(eps)),
                      float(np.median(eos)), float(np.mean(eos)), len(eps)))
    return stats, failed, segments


def _aggregate_row(group):
    """The summary row of one cell from its per-repeat rows of one class."""
    first = group[0]
    stats = []
    for measure in ("pos_mean_mm", "pos_median_mm", "ori_mean_deg", "ori_median_deg"):
        s = summarize([getattr(r, measure) for r in group])
        stats += s.mean, s.ci_low, s.ci_high
    return AggregateRow(first.model, first.motion_class, first.horizon_ms, first.drop_rate,
                        *stats, len(group), sum(r.n_ticks for r in group))


def _fmt(v):
    return "%.9g" % v


def _field(v):
    """A summary.csv field: a class by its label, a float (also numpy's) as %.9g."""
    if isinstance(v, MotionClass):      # an IntEnum, so ahead of str(int)
        return v.label
    return _fmt(v) if isinstance(v, float) else str(v)


def emit_report(report, out_dir):
    """Write summary.csv, samples.csv, and a fixed-width table.txt.

    Identical reports produce byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SUMMARY_COLUMNS + "\n")
        for r in report.aggregates:
            fh.write(",".join(_field(getattr(r, f.name)) for f in fields(r)) + "\n")

    # the drop-0 repeats share repeat 0's segments: each is formatted once
    bodies = {}
    with open(os.path.join(out_dir, "samples.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(SAMPLES_COLUMNS + "\n")
        for model, cls, h_ms, drop, rep, ti, segment in report.segments:
            rows = bodies.get(id(segment))
            if rows is None:
                rows = bodies[id(segment)] = list(map("%d,%.9g,%.9g".__mod__, zip(*segment)))
            prefix = f"{model},{cls.label},{h_ms},{_fmt(drop)},{rep},{ti},"
            fh.write(prefix + ("\n" + prefix).join(rows) + "\n")

    with open(os.path.join(out_dir, "table.txt"), "w", encoding="utf-8",
              newline="\n") as fh:
        _write_table(report, fh)
    return summary_path


def _write_table(report, fh):
    """Per (horizon, drop) block: models as rows, classes as column groups."""
    config = report.config
    for h_ms in config.horizons_ms:
        for drop in config.drop_rates:
            classes = sorted({r.motion_class for r in report.aggregates
                              if (r.horizon_ms, r.drop_rate) == (h_ms, drop)})
            if not classes:
                continue
            fh.write(f"horizon {h_ms} ms, drop rate {_fmt(drop)}\n")
            head1 = f"{'':8s}"
            head2 = f"{'model':8s}"
            for cls in classes:
                head1 += f"| {cls.label:^38s} "
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
