"""How the motion classifier scores predictability.

First shows the entropy of hand-built symbol streams: a constant stream
costs almost nothing, each extra well-separated transition adds roughly
half a bit less than the last, and fresh symbols every tick push the
score to its log2(T) ceiling. Then labels the synthetic profiles chunk
by chunk, after the low-pass prefilter, as the benchmark does.
"""

import collections

import numpy as np

from posecast.classifier import H_HIGH, H_LOW, lz_entropy
from posecast.experiment import label_chunks, prepare_trace
from posecast.traces import PROFILES, generate_synthetic_trace


def main():
    T = 200
    streams = {"constant": np.zeros(T, dtype=int)}
    for k in (1, 2, 3, 4):
        s = np.zeros(T, dtype=int)
        # k transitions, each to a fresh level, spread evenly so every run
        # is long enough to matter
        for i, cut in enumerate(np.linspace(0, T, k + 2)[1:-1]):
            s[int(cut):] = i + 1
        streams[f"{k} transition(s)"] = s
    streams["alternating"] = np.arange(T) % 2
    streams["all distinct"] = np.arange(T)

    print(f"entropy of {T}-symbol streams [bits/symbol]:")
    for name, s in streams.items():
        print(f"  {name:>16}: {lz_entropy(s):5.2f}")

    print(f"\nchunk labels with thresholds ({H_LOW}, {H_HIGH}) bits:")
    for profile in PROFILES:
        trace = generate_synthetic_trace(profile, duration_s=30.0, seed=0)
        _, _, filtered, _, _ = prepare_trace(trace, ())
        labels = label_chunks(filtered)
        entropies = [h for h, _ in labels]
        counts = collections.Counter(cls.name for _, cls in labels)
        dist = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"  {profile:>6}: median H {np.median(entropies):4.2f}  ({dist})")


if __name__ == "__main__":
    main()
