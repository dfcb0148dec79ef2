"""posecast benchmark launcher.

    python3 perfbench/run.py --workload sweep_hard --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout. The workload runs in a child
process (``bench.py``) with numpy/BLAS thread pools pinned to one thread,
so a 2-core machine is not oversubscribed, and with ``src`` first on the
import path: the benchmark measures the checkout's own sources, never an
installed copy. With ``--trace 0`` the set-up (interpreter start,
imports, input generation) is repeated in two more children that stop
before the first timed call, and ``setup_s`` is the median of the three.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
non-zero, with no result printed, when the sources or the run fail.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "bench.py"
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


def _child(argv, env, deadline):
    """Run bench.py; returns its stdout lines, or None when it failed."""
    env = dict(env, PERFBENCH_SPAWN_T=repr(time.time()))
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *argv], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        print("error: benchmark run timed out", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: benchmark worker exited {proc.returncode}", file=sys.stderr)
        return None
    return lines


def main():
    parser = argparse.ArgumentParser(description="Run one posecast benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    src = ROOT / "src"
    if not (src / "posecast" / "__init__.py").is_file():
        print(f"error: no posecast sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    env.update({name: "1" for name in PINNED})
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            lines = _child([*argv, "--setup-only"], env, deadline)
            if lines is None:
                return 1
            setups.append(json.loads(lines[-1])["setup_s"])
    lines = _child(argv, env, deadline)
    if lines is None:
        return 1
    result = json.loads(lines[-1])
    if "setup_s" in result["metrics"]:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        lines.insert(-1, f"[seed {args.seed}] setup_s over {len(setups)} set-ups: "
                         + ", ".join(f"{s:.4f}" for s in setups) + " s")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
