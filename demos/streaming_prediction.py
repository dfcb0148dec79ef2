"""Per-tick prediction on a single trace, outside the harness.

Feeds a low-pass filtered medium trace to a first-order baseline and the
full third-order variant at a 100 ms horizon, scoring each forecast
against the raw trace at the target time. It prepares the trace, streams
and scores through the functions the benchmark runs, with no packet lost.
"""

import numpy as np

from posecast.experiment import prepare_trace, score_picks, stream_picks
from posecast.traces import generate_synthetic_trace


def main():
    trace = generate_synthetic_trace("medium", duration_s=30.0, seed=3)
    dt, steps, _, poses, truth = prepare_trace(trace, (100,))
    received = [True] * (len(trace) - 1)

    print(f"medium trace, {len(trace)} ticks, horizon "
          f"{steps[0] * dt * 1e3:.0f} ms\n")
    print(f"{'model':>6} {'pos mean':>9} {'pos p95':>9} "
          f"{'ori mean':>9} {'ori p95':>9}")
    for model in ("KF", "ESKF", "p3o3"):
        picks = stream_picks(model, dt, steps, poses, received, len(trace) - steps[0])
        ((e_pos, e_ori),) = score_picks(picks, steps, truth)
        e_pos, e_ori = np.array(e_pos), np.array(e_ori)
        print(f"{model:>6} {e_pos.mean():7.2f}mm {np.percentile(e_pos, 95):7.2f}mm "
              f"{e_ori.mean():6.2f}deg {np.percentile(e_ori, 95):6.2f}deg")


if __name__ == "__main__":
    main()
