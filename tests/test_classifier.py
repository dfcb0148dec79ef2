import itertools

import numpy as np
import pytest

from posecast import so3
from posecast.classifier import (CELL_POS, CELL_ROT, MotionClass, classify, discretize_chunk,
                                 lz_entropy)
from posecast.preprocess import chunk_trace
from posecast.traces import Trace, generate_synthetic_trace

from conftest import lz_entropy_bruteforce


def test_all_distinct_symbols():
    assert lz_entropy([1, 2, 3, 4, 5, 6, 7, 8]) == 3.0


def test_constant_sequence_near_zero():
    h = lz_entropy([5] * 64)
    assert h == pytest.approx(np.log2(64) / 64)
    assert h <= 0.6


def test_alternating_sequence():
    assert lz_entropy([0, 1, 0, 1, 0, 1, 0, 1]) == pytest.approx(0.75)


def test_frozen_mixed_binary():
    assert lz_entropy([0, 1, 1, 0, 1, 0, 0, 1]) == pytest.approx(1.603759374819711)


def test_rejects_short_input():
    with pytest.raises(ValueError):
        lz_entropy([3])
    with pytest.raises(ValueError):
        lz_entropy([])


def test_matches_bruteforce_exhaustive_binary():
    for L in range(2, 11):
        for bits in itertools.product((0, 1), repeat=L):
            assert lz_entropy(bits) == lz_entropy_bruteforce(bits), bits


def test_matches_bruteforce_random_alphabets():
    rng = np.random.default_rng(30)
    for _ in range(60):
        n = rng.integers(2, 40)
        k = rng.integers(1, 6)
        s = rng.integers(0, k, size=n)
        assert lz_entropy(s) == lz_entropy_bruteforce(list(s))


def test_entropy_scale_invariance_of_labels():
    # relabeling symbols bijectively cannot change the estimate
    rng = np.random.default_rng(31)
    s = rng.integers(0, 4, size=100)
    relabeled = np.array([10, 7, 99, -3])[s]
    assert lz_entropy(s) == lz_entropy(relabeled)


def _chunk_from_positions(positions):
    n = len(positions)
    q = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    return Trace(np.arange(n) * 0.01, np.asarray(positions, dtype=float), q)


def test_discretize_position_cells():
    chunk = _chunk_from_positions([
        [0.01, 0.0, 0.0],
        [0.02, 0.0, 0.0],   # same 5 cm cell
        [0.06, 0.0, 0.0],   # next cell
        [0.01, 0.0, 0.0],   # back to the first
        [-0.01, 0.0, 0.0],  # floor puts negatives in their own cell
    ])
    assert list(discretize_chunk(chunk)) == [0, 0, 1, 0, 2]


def test_discretize_orientation_cells():
    n = 3
    p = np.zeros((n, 3))
    q = np.stack([
        so3.quat_exp(np.array([0.0, 0.0, 0.0])),
        so3.quat_exp(np.array([0.15, 0.0, 0.0])),
        so3.quat_exp(np.array([0.05, 0.0, 0.0])),
    ])
    chunk = Trace(np.arange(n) * 0.01, p, q)
    assert list(discretize_chunk(chunk)) == [0, 1, 0]


def _discretize_row_by_row(chunk):
    """Symbols from one quat_log ndarray per row, the direct way."""
    cells = np.empty((len(chunk), 6), dtype=np.int64)
    cells[:, 0:3] = np.floor(chunk.p / CELL_POS)
    for i in range(len(chunk)):
        cells[i, 3:6] = np.floor(so3.quat_log(chunk.q[i]) / CELL_ROT)
    ids = {}
    return [ids.setdefault(key, len(ids)) for key in map(tuple, cells.tolist())]


def test_discretize_matches_the_row_by_row_cells():
    # the batched float path must give every symbol of the direct one,
    # also for rotations that cross many cells
    rng = np.random.default_rng(0)
    n = 2000
    q = np.array([so3.quat_exp(v) for v in rng.normal(scale=1.5, size=(n, 3))])
    chunks = [Trace(np.arange(n) * 0.01, rng.normal(scale=0.2, size=(n, 3)), q)]
    chunks += chunk_trace(generate_synthetic_trace("hard", 20.0, seed=4))
    for chunk in chunks:
        assert discretize_chunk(chunk).tolist() == _discretize_row_by_row(chunk)
    assert max(discretize_chunk(chunks[0])) > 1000


@pytest.mark.parametrize("field", ["p", "q"])
def test_discretize_rejects_a_non_finite_pose(field):
    # one NaN sample in a hard chunk has no cell; cast to an integer it
    # would become one, and the chunk would get a label
    chunk = chunk_trace(generate_synthetic_trace("hard", 2.0, seed=0))[0]
    getattr(chunk, field)[57, 1] = np.nan
    with pytest.raises(ValueError, match="chunk pose 57 at t = 0.57 is not finite"):
        discretize_chunk(chunk)


def test_classify_bands_and_boundaries():
    assert classify(0.2) is MotionClass.EASY
    assert classify(0.999) is MotionClass.EASY
    assert classify(1.0) is MotionClass.MEDIUM
    assert classify(2.4999) is MotionClass.MEDIUM
    assert classify(2.5) is MotionClass.HARD
    assert classify(6.0) is MotionClass.HARD


def test_class_ordering_and_labels():
    assert MotionClass.EASY < MotionClass.MEDIUM < MotionClass.HARD
    assert MotionClass.MEDIUM.label == "Medium"
