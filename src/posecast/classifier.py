"""Motion predictability classification via match-length entropy.

A chunk of poses is discretized onto a spatial/angular grid, the cell
visits become a symbol sequence, and the sequence's entropy rate is
estimated from shortest-novel-window lengths: positions whose upcoming
window has been seen before contribute little, genuinely new movement
contributes log2(T / 1). Low entropy means repetitive, predictable motion.
"""

from enum import IntEnum

import numpy as np

from . import so3


class MotionClass(IntEnum):
    EASY = 0
    MEDIUM = 1
    HARD = 2

    @property
    def label(self):
        return self.name.title()


CELL_POS = 0.05  # grid cell edge of a position axis, meters
CELL_ROT = 0.1   # grid cell edge of a rotation-vector axis, radians
H_LOW = 1.0      # entropy below which a chunk is Easy, bits per symbol
H_HIGH = 2.5     # entropy from which a chunk is Hard, bits per symbol


def discretize_chunk(chunk):
    """Map each pose of a chunk to a symbol id.

    The cell key is floor(p / CELL_POS) per axis together with
    floor(quat_log(q) / CELL_ROT) per axis; ids are assigned in order
    of first appearance, so the alphabet is dense in [0, n_distinct).
    A pose with a NaN or infinite component has no cell: ValueError.
    """
    bad = np.flatnonzero(~np.isfinite(np.hstack([chunk.p, chunk.q])).all(axis=1))
    if bad.size:
        raise ValueError(f"chunk pose {bad[0]} at t = {chunk.t[bad[0]]:.9g} is not finite")
    rot = np.array([so3._log(q) for q in chunk.q.tolist()]).reshape(-1, 3)
    cells = np.floor(np.hstack([chunk.p / CELL_POS, rot / CELL_ROT])).astype(np.int64)
    ids = {}
    return np.array([ids.setdefault(key, len(ids)) for key in map(tuple, cells.tolist())],
                    dtype=np.int64)


def lz_entropy(symbols):
    """Entropy rate estimate, in bits per symbol.

    For each position t, lambda_t is the length of the shortest window
    starting at t that never occurs starting before t (matches may overlap
    the boundary). A position whose entire remaining suffix has been seen
    saturates at lambda_t = T and contributes zero. The estimate is
    mean(log2(T / lambda_t)); constant sequences score near 0, sequences
    of all-distinct symbols score exactly log2(T).
    """
    s = np.asarray(symbols)
    T = len(s)
    if T < 2:
        raise ValueError(f"need at least 2 symbols, got {T}")
    # lce[i, j]: common extension length of the suffixes at i and j
    lce = np.zeros((T + 1, T + 1), dtype=np.int64)
    for i in range(T - 1, -1, -1):
        np.multiply(s[i] == s, lce[i + 1, 1:T + 1] + 1, out=lce[i, 0:T])
    lam = np.empty(T)
    for t in range(T):
        m = lce[0:t, t].max() if t > 0 else 0
        lam[t] = m + 1 if m < T - t else T
    return float(np.mean(np.log2(T / lam)))


def classify(entropy):
    """Band an entropy value into a motion class."""
    if entropy < H_LOW:
        return MotionClass.EASY
    if entropy < H_HIGH:
        return MotionClass.MEDIUM
    return MotionClass.HARD
