"""Tests of the benchmark itself: counts, tracing, result format, failure exit.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads as bench  # noqa: E402

COUNTS = ("filters.ticks", "filters.corrections", "filters.coasted",
          "filters.rollout_steps", "filters.degenerate", "experiment.streams",
          "experiment.distinct_streams", "experiment.scored_ticks", "classifier.chunks")


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced(workload, tmp_path, **kwargs):
    wl = workload(3, tmp_path, **kwargs)
    tr, values, _, _ = bench.measure_traced(wl, 0.0, tmp_path / "spans.npz")
    return wl, tr, values


def test_sweep_counts_agree_with_grid(tmp_path):
    wl, tr, m = _traced(bench.SweepHard, tmp_path, n_traces=1)
    ticks = round(bench.SweepHard.TRACE_S * 100)
    streams = len(bench.MODELS) * len(bench.HORIZONS_MS) * len(bench.DROP_RATES) * bench.REPEATS
    assert m["experiment.streams"] == streams == 40
    assert m["filters.ticks"] == streams * (ticks - 1)
    # at drop 0 the repeats and horizons of a model replay one stream
    assert m["experiment.distinct_streams"] == 25
    assert m["experiment.stream_reuse"] == pytest.approx(1 - 25 / 40)
    assert m["filters.corrections"] + m["filters.coasted"] == m["filters.ticks"]
    assert m["experiment.scored_ticks"] == wl.scored[0]
    assert m["experiment.run_experiment.calls"] == m["cli.main.calls"] == 1
    assert m["traces.generate_synthetic_trace.calls"] == m["traces.save_trace.calls"] == 1
    assert m["experiment.emit_report.bytes"] > 0
    assert m["filters.degenerate"] == m["experiment.failures"] == 0
    assert tr.absent == []
    spans = np.load(tmp_path / "spans.npz")
    assert len(spans["name"]) == len(tr.span_start) > 0


def test_realtime_counts_repeat_exactly(tmp_path):
    first = _traced(bench.RealtimeStream, tmp_path)[2]
    second = _traced(bench.RealtimeStream, tmp_path)[2]
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    ticks = round(bench.RealtimeStream.TRACE_S * 100)
    streams = len(bench.ERROR_MODELS) * len(bench.PROFILES) * bench.RealtimeStream.PER_PROFILE
    assert first["experiment.streams"] == streams
    assert first["filters.ticks"] == streams * (ticks - 1)
    assert first["preprocess.filter_sample.calls"] == streams * ticks


def test_every_per_layer_metric_is_reported(tmp_path):
    _, _, m = _traced(bench.RealtimeStream, tmp_path)
    assert set(m) == {x["name"] for x in _benchmark_json()["per_layer"]}


def test_absent_function_is_reported_not_fatal(monkeypatch, tmp_path):
    monkeypatch.setattr(tracer, "SPANS", tracer.SPANS + (
        ("filters.merged_away", "posecast.filters", "merged_away"),
        ("filters.gone", "posecast.filters", "NoSuchClass.step")))
    _, tr, m = _traced(bench.RealtimeStream, tmp_path)
    assert tr.absent == ["posecast.filters.merged_away", "posecast.filters.NoSuchClass.step"]
    assert m["filters.ticks"] > 0


def test_tracer_restores_every_binding():
    import posecast.experiment as experiment
    import posecast.filters as filters
    before = (experiment.position_error, filters.correct, filters.EskfPredictor.step)
    with tracer.Tracer():
        assert experiment.position_error is not before[0]
        assert filters.EskfPredictor.step is not before[2]
    assert (experiment.position_error, filters.correct, filters.EskfPredictor.step) == before


def _launch(cwd, workload="realtime_stream"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_result_line_matches_benchmark_json():
    proc = _launch(ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name] and metric["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _launch(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_contract():
    spec = _benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    layers = json.loads((HERE / "layers.json").read_text())
    named = {m["name"] for m in spec["end_to_end"]}
    for moves in layers["layer_moves"].values():
        for where in moves["moves"] + moves["unchanged"]:
            metric, _, workload = where.partition("@")
            assert metric in named and workload in bench.WORKLOADS
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert {m["name"].split(".")[0] for m in spec["per_layer"]} == set(layers["layer_moves"])
