"""Prediction error metrics and summary statistics.

Only numpy is loaded here. scipy is loaded for the summary intervals
alone: their Student-t quantile is scipy.special.stdtrit, imported on the
first call of _t_quantile (run_experiment loads it before its streams).
Only a sweep (`posecast bench`, `run_experiment`) summarizes, so synth,
classify, predict and streaming never load scipy.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import so3


def position_error(p_pred, p_true):
    """Euclidean distance between predicted and true position, millimeters."""
    (a0, a1, a2), (b0, b1, b2) = so3._floats(p_pred), so3._floats(p_true)
    d0, d1, d2 = a0 - b0, a1 - b1, a2 - b2
    return 1000.0 * math.sqrt(d0 * d0 + d1 * d1 + d2 * d2)


def orientation_error(q_pred, q_true):
    """Geodesic angle between predicted and true orientation, degrees in [0, 180]."""
    return math.degrees(so3.geodesic_distance(q_pred, q_true))


@dataclass
class SummaryStats:
    mean: float
    ci_low: float
    ci_high: float


LEVEL = 0.95


def summarize(samples):
    """Mean and a 95% Student-t confidence interval on it.

    A single sample collapses the interval onto the mean.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("cannot summarize an empty sample")
    mean = float(np.mean(x))
    if x.size == 1:
        return SummaryStats(mean, mean, mean)
    sem = float(np.std(x, ddof=1)) / np.sqrt(x.size)
    half = _t_quantile(x.size - 1) * sem
    return SummaryStats(mean, mean - half, mean + half)


@lru_cache(maxsize=128)
def _t_quantile(dof):
    """Two-sided Student-t quantile at LEVEL: a sweep asks for the same few
    degrees of freedom. stdtrit is what scipy.stats.t.ppf calls, so the
    two agree bit for bit, without loading scipy.stats at run time."""
    # imported here: scipy.special alone doubles a process's start-up time and memory
    from scipy.special import stdtrit
    return float(stdtrit(dof, 0.5 + 0.5 * LEVEL))
