"""Span tracing of posecast's public functions, installed from outside.

The tracer rebinds module and class attributes: every ``posecast.*``
module attribute that *is* a traced function is replaced by a wrapper,
so calls that go through another module's globals (``run_experiment``
calling ``position_error``, ``EskfPredictor.step`` calling
``correct``) are caught too. ``so3`` gets no spans: it is called
millions of times and its cost shows in the ``filters`` phases.

Spans live in memory as parallel arrays (name, parent, start, end); a
span's parent is the innermost traced call open when it started. Self
time is a span's duration minus the durations of its direct children.
A traced function that does not exist (a later change deleted or merged
it) is recorded as absent and reports zero; the run goes on.
"""

import functools
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (span name, module, attribute path). Two methods may share one span name.
SPANS = (
    ("filters.step", "posecast.filters", "EskfPredictor.step"),
    ("filters.step", "posecast.filters", "KfBaseline.step"),
    ("filters.error_transition_matrix", "posecast.filters", "error_transition_matrix"),
    ("filters.propagate_nominal", "posecast.filters", "propagate_nominal"),
    ("filters.propagate_covariance", "posecast.filters", "propagate_covariance"),
    ("filters.correct", "posecast.filters", "correct"),
    ("filters.estimate_pseudo_derivatives", "posecast.filters",
     "estimate_pseudo_derivatives"),
    ("filters.predict_horizon", "posecast.filters", "predict_horizon"),
    ("experiment.make_predictor", "posecast.filters", "make_predictor"),
    ("experiment.run_experiment", "posecast.experiment", "run_experiment"),
    ("experiment.simulate_drop", "posecast.experiment", "simulate_drop"),
    ("experiment.emit_report", "posecast.experiment", "emit_report"),
    ("metrics.position_error", "posecast.metrics", "position_error"),
    ("metrics.orientation_error", "posecast.metrics", "orientation_error"),
    ("metrics.summarize", "posecast.metrics", "summarize"),
    ("preprocess.filter_trace", "posecast.preprocess", "filter_trace"),
    ("preprocess.filter_sample", "posecast.preprocess", "StreamFilter.filter_sample"),
    ("preprocess.chunk_trace", "posecast.preprocess", "chunk_trace"),
    ("classifier.discretize_chunk", "posecast.classifier", "discretize_chunk"),
    ("classifier.lz_entropy", "posecast.classifier", "lz_entropy"),
    ("traces.generate_synthetic_trace", "posecast.traces", "generate_synthetic_trace"),
    ("traces.save_trace", "posecast.traces", "save_trace"),
    ("traces.load_trace", "posecast.traces", "load_trace"),
    ("cli.main", "posecast.cli", "main"),
)


def _dir_bytes(path):
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class Tracer:
    """Wraps posecast's public functions while installed; collects spans and counts."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name, self.span_parent = array("i"), array("q")
        self.span_start, self.span_end = array("q"), array("q")
        self._stack = [-1]
        self.counts = Counter()
        self.streams = []          # this unit's make_predictor calls: [model, first z, mask]
        self._stream_of = {}       # id(predictor) -> index into streams
        self.units = 0
        self.absent = []
        self._saved = []

    # -- installation -------------------------------------------------------

    def install(self):
        from posecast.filters import DegeneracyError
        self._degeneracy = DegeneracyError
        hooks = {
            "filters.step": self._step_hook,
            "experiment.make_predictor": self._make_predictor_hook,
            "experiment.run_experiment": self._run_experiment_hook,
            "experiment.emit_report": self._emit_report_hook,
            "preprocess.filter_trace": self._count_arg0("preprocess.samples"),
            "traces.save_trace": self._count_arg0("traces.rows_saved"),
            "traces.generate_synthetic_trace": self._count_result("traces.samples_generated"),
            "traces.load_trace": self._count_result("traces.rows_loaded"),
        }
        for name, modname, attr in SPANS:
            module = sys.modules.get(modname)
            owner_path, _, leaf = attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._span(name, original)
            if name in hooks:
                wrapper = hooks[name](wrapper)
            wrapper = functools.wraps(original)(wrapper)
            if owner_path:
                self._rebind(owner, leaf, wrapper)
            else:
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").startswith("posecast")
                            and getattr(mod, leaf, None) is original):
                        self._rebind(mod, leaf, wrapper)
        return self

    def _rebind(self, owner, attr, wrapper):
        # an inherited method has no entry of its own; uninstall deletes ours
        self._saved.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans --------------------------------------------------------------

    def _span(self, name, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
        return wrapper

    # -- counting hooks (outside the span they wrap) ------------------------

    def _step_hook(self, inner):
        counts, streams, stream_of = self.counts, self.streams, self._stream_of
        degeneracy = self._degeneracy

        def step(pred, z, received=True):
            counts["filters.corrections" if received else "filters.coasted"] += 1
            counts["filters.rollout_steps"] += pred.config.horizon_steps
            idx = stream_of.get(id(pred))
            if idx is not None:
                rec = streams[idx]
                if rec[1] is None:
                    rec[1] = z.p.tobytes() + z.q.tobytes()
                rec[2].append(bool(received))
            try:
                return inner(pred, z, received)
            except degeneracy:
                counts["filters.degenerate"] += 1
                raise
        return step

    def _make_predictor_hook(self, inner):
        def make_predictor(config, first_pose):
            pred = inner(config, first_pose)
            self._stream_of[id(pred)] = len(self.streams)
            self.streams.append([config.model, None, bytearray()])
            return pred
        return make_predictor

    def _run_experiment_hook(self, inner):
        def run_experiment(config, traces):
            report = inner(config, traces)
            self.counts["experiment.scored_ticks"] += sum(r.n_ticks for r in report.per_repeat)
            self.counts["experiment.failures"] += len(report.failures)
            return report
        return run_experiment

    def _emit_report_hook(self, inner):
        def emit_report(report, out_dir):
            path = inner(report, out_dir)
            self.counts["experiment.emit_report.bytes"] += _dir_bytes(out_dir)
            return path
        return emit_report

    def _count_arg0(self, key):
        def hook(inner):
            def counted(obj, *args, **kwargs):
                self.counts[key] += len(obj)
                return inner(obj, *args, **kwargs)
            return counted
        return hook

    def _count_result(self, key):
        def hook(inner):
            def counted(*args, **kwargs):
                out = inner(*args, **kwargs)
                self.counts[key] += len(out)
                return out
            return counted
        return hook

    # -- results ------------------------------------------------------------

    def span_table(self):
        """Per span name: (calls, total ns, self ns)."""
        if not self.span_start:
            return {}
        nid = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = (np.frombuffer(self.span_end, dtype=np.int64)
               - np.frombuffer(self.span_start, dtype=np.int64))
        has_parent = parent >= 0
        child_ns = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        self_ns = dur - child_ns
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        selft = np.bincount(nid, weights=self_ns, minlength=k)
        return {self.names[i]: (int(calls[i]), float(total[i]), float(selft[i]))
                for i in range(k)}

    def end_unit(self):
        """Close one unit of work: fold its streams into the stream counts.

        A stream is a (model, first measurement, received mask) triple;
        streams repeated within the unit are redundant work.
        """
        self.counts["experiment.streams"] += len(self.streams)
        self.counts["experiment.distinct_streams"] += len(
            {(m, first, bytes(mask)) for m, first, mask in self.streams})
        self.streams.clear()
        self._stream_of.clear()
        self.units += 1

    def save(self, path):
        """Write the spans (name id, parent span, start ns, end ns) and names."""
        np.savez(path, names=np.asarray(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 start_ns=np.frombuffer(self.span_start, dtype=np.int64),
                 end_ns=np.frombuffer(self.span_end, dtype=np.int64))
