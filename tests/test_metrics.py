"""Error metric and summary statistic tests."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from posecast import so3
from posecast.metrics import orientation_error, position_error, summarize

import numpy_reference as ref


class TestPositionError:
    def test_identity_is_zero(self):
        p = np.array([0.1, 0.2, 0.3])
        assert position_error(p, p) == 0.0

    def test_three_four_five_triangle(self):
        assert position_error((0.0, 0.0, 0.0), (0.003, 0.004, 0.0)) == pytest.approx(5.0)

    def test_matches_componentwise_recomputation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.normal(size=3), rng.normal(size=3)
            direct = 1000.0 * np.sqrt(sum((a[i] - b[i]) ** 2 for i in range(3)))
            assert position_error(a, b) == pytest.approx(direct, abs=1e-12)

    def test_metric_axioms(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b, c = rng.normal(size=(3, 3))
            assert position_error(a, b) == pytest.approx(position_error(b, a))
            assert position_error(a, c) <= (
                position_error(a, b) + position_error(b, c) + 1e-9)


class TestOrientationError:
    def test_identity_is_zero(self):
        q = so3.quat_exp(np.array([0.3, -0.1, 0.2]))
        assert orientation_error(q, q) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_turn_about_z(self):
        qz = so3.quat_exp(np.array([0.0, 0.0, np.pi / 2]))
        qi = np.array([1.0, 0.0, 0.0, 0.0])
        assert orientation_error(qi, qz) == pytest.approx(90.0, abs=1e-9)

    def test_double_cover_insensitive(self):
        rng = np.random.default_rng(2)
        q = ref.quat_normalize(rng.normal(size=4))
        assert orientation_error(q, -q) == pytest.approx(0.0, abs=1e-9)

    def test_left_invariant_under_global_pre_rotation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q1 = ref.quat_normalize(rng.normal(size=4))
            q2 = ref.quat_normalize(rng.normal(size=4))
            r = ref.quat_normalize(rng.normal(size=4))
            base = orientation_error(q1, q2)
            rotated = orientation_error(so3.quat_multiply(r, q1),
                                        so3.quat_multiply(r, q2))
            assert rotated == pytest.approx(base, abs=1e-9)

    def test_range_and_non_unit_rejection(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            e = orientation_error(ref.quat_normalize(rng.normal(size=4)),
                                  ref.quat_normalize(rng.normal(size=4)))
            assert 0.0 <= e <= 180.0
        with pytest.raises(ValueError):
            orientation_error(np.array([2.0, 0.0, 0.0, 0.0]),
                              np.array([1.0, 0.0, 0.0, 0.0]))


class TestSummarize:
    def test_zero_variance_collapses_the_interval(self):
        s = summarize([3.0, 3.0, 3.0, 3.0])
        assert s.mean == 3.0
        assert s.ci_low == s.ci_high == 3.0

    def test_symmetric_odd_sample(self):
        s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.mean == 3.0

    def test_frozen_t_interval(self):
        # mean 2.5, sd sqrt(5/3); half-width = t(0.975, 3) * sd / 2 with the
        # table quantile 3.182446
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.mean == pytest.approx(2.5)
        assert s.ci_high - s.mean == pytest.approx(2.05426, abs=1e-4)
        assert s.ci_low == pytest.approx(2.5 - 2.05426, abs=1e-4)

    def test_single_sample_collapses_onto_the_mean(self):
        s = summarize([7.25])
        assert s.ci_low == s.ci_high == s.mean == 7.25

    def test_large_normal_sample_matches_the_analytic_half_width(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(10_000)
        s = summarize(x)
        half = 0.5 * (s.ci_high - s.ci_low)
        assert half == pytest.approx(1.96 / 100.0, rel=0.15)

    def test_permutation_invariant_and_scale_equivariant(self):
        rng = np.random.default_rng(6)
        x = rng.gamma(2.0, size=31)
        a = summarize(x)
        b = summarize(rng.permutation(x))
        assert (a.mean, a.ci_low, a.ci_high) == (b.mean, b.ci_low, b.ci_high)
        c = summarize(2.5 * x)
        assert c.mean == pytest.approx(2.5 * a.mean)
        assert c.ci_low == pytest.approx(2.5 * a.ci_low)
        assert c.ci_high == pytest.approx(2.5 * a.ci_high)

    def test_interval_ordering_holds(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 17):
            s = summarize(rng.normal(size=n))
            assert s.ci_low <= s.mean <= s.ci_high

    def test_cached_quantile_matches_scipy_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for n in range(2, 202):
            x = rng.normal(size=n)
            sem = float(np.std(x, ddof=1)) / np.sqrt(n)
            half = float(stats.t.ppf(0.975, n - 1)) * sem
            for _ in range(2):      # the second call reads the cached quantile
                s = summarize(x)
                assert (s.ci_low, s.ci_high) == (s.mean - half, s.mean + half)

    def test_quantile_loaded_in_a_fresh_process_matches_scipy_bit_for_bit(self):
        # the quantile's scipy import happens on the first summarize of a process
        src = Path(__file__).resolve().parent.parent / "src"
        probe = ("import json, sys; sys.path.insert(0, sys.argv[1])\n"
                 "from posecast.metrics import summarize\n"
                 "assert not [m for m in sys.modules if m.startswith('scipy')]\n"
                 "x = json.loads(sys.argv[2])\n"
                 "print(json.dumps([[s.ci_low, s.ci_high] for s in map(summarize, x)]))\n")
        rng = np.random.default_rng(9)
        xs = [rng.normal(size=n).tolist() for n in (2, 3, 11, 40, 201)]
        out = subprocess.run([sys.executable, "-c", probe, str(src), json.dumps(xs)],
                             capture_output=True, text=True, check=True).stdout
        for x, (lo, hi) in zip(xs, json.loads(out)):
            mean = float(np.mean(x))
            half = float(stats.t.ppf(0.975, len(x) - 1)) * (
                float(np.std(x, ddof=1)) / np.sqrt(len(x)))
            assert (lo, hi) == (mean - half, mean + half)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="empty"):
            summarize([])
