"""Prediction error metrics and summary statistics.

The two error metrics take one pose pair or a whole stream's pairs
stacked into arrays; the sweep scores each stream in one call of each.
Either way every error is the float of the scalar Python-float formula,
bit for bit.

Only numpy is loaded here. scipy is loaded for the summary intervals
alone: their Student-t quantile is scipy.special.stdtrit, imported on the
first call of _t_quantile (run_experiment loads it before its streams).
Only a sweep (`posecast bench`, `run_experiment`) summarizes, so synth,
classify, predict and streaming never load scipy.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import so3


def position_error(p_pred, p_true):
    """Euclidean distance between predicted and true position, millimeters.

    Either argument is one position or a stack of them, shaped (n, 3); two
    single positions give a float, anything stacked an (n,) array.
    """
    pred, true = np.asarray(p_pred, dtype=float), np.asarray(p_true, dtype=float)
    with np.errstate(all="ignore"):      # IEEE results, as Python floats give them
        d0, d1, d2 = np.atleast_2d(pred - true).T
        e = 1000.0 * np.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
    return e if max(pred.ndim, true.ndim) > 1 else float(e[0])


def orientation_error(q_pred, q_true):
    """Geodesic angle between predicted and true orientation, degrees in
    [0, 180]; stacked as so3.geodesic_distance is."""
    e = np.degrees(so3.geodesic_distance(q_pred, q_true))   # math.degrees' factor
    return e if e.ndim else float(e)


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
