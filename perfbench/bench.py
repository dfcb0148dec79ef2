"""Worker process of the posecast benchmark: one run of one workload.

``run.py`` starts this script with numpy's thread pools pinned to one
thread and ``src`` first on the import path. Set-up time runs from the
process's start to the first timed call, and the speed probe (see
``speed.py``) is started before posecast and scipy are imported, so the
set-up is scaled to the reference core as well. The last line of standard
output is the result as one JSON object.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

SPAWN_T = float(os.environ.get("PERFBENCH_SPAWN_T", time.time()))

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from speed import SpeedProbe  # noqa: E402


def _declared(kind):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m.get("unit") for m in json.load(fh)[kind]}  # workloads: no unit


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(_declared("workloads")))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs)
    try:
        return _run(args, runs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, runs, work):
    declared = _declared("per_layer" if args.trace else "end_to_end")
    lines = [f"seed {args.seed}, workload {args.workload}, nproc {os.cpu_count()}, "
             f"numpy {np.__version__}, Python {sys.version.split()[0]}"]
    correct, values = True, {}
    with contextlib.ExitStack() as stack:
        probe = None if args.trace else stack.enter_context(SpeedProbe())
        # imported here, under the probe: importing posecast and scipy is set-up
        from workloads import WORKLOADS, CheckFailed, measure, measure_traced
        wl = WORKLOADS[args.workload](args.seed, work)
        setup_end = time.perf_counter_ns()
        spawn = setup_end - int((time.time() - SPAWN_T) * 1e9)
        try:
            if args.trace:
                spans = runs / f"spans-{args.workload}-seed{args.seed}.npz"
                tr, values, plain_s, traced_s = measure_traced(wl, args.seconds, spans)
                lines.append(f"pass {plain_s:.6g} s untraced, {traced_s:.6g} s traced; "
                             f"{len(tr.span_start)} spans written to {spans.relative_to(ROOT)}")
                lines += [f"absent: {name}" for name in tr.absent]
            elif not args.setup_only:
                measure(wl, args.seconds)
        except CheckFailed as e:
            print(f"check failed: {e}", file=sys.stderr)
            correct = False
    if args.setup_only:
        print(json.dumps({"setup_s": probe.scale_interval(spawn, setup_end) / 1e9}))
        return 0
    if correct and not args.trace:
        values = wl.metrics(probe)
        values["setup_s"] = probe.scale_interval(spawn, setup_end) / 1e9
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        lines += wl.notes()
        lines.append(f"host ran {probe.slowdown():.3f}x slower than the reference core "
                     f"(median of {len(probe.took)} probe samples); times are scaled to it")
    if correct and set(values) != set(declared):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(declared))}")
    values = {name: values[name] for name in declared if name in values}
    for name, value in values.items():
        lines.append(f"{name} = {value:.6g} {declared[name]}")
    for line in lines:
        print(f"[seed {args.seed}] {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
