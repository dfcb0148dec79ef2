"""Trace container, file round-trip, and synthetic profile tests."""

import math
import warnings

import numpy as np
import pytest

from posecast.traces import (
    TRACE_HEADER,
    Pose,
    Trace,
    generate_synthetic_trace,
    hemisphere_align,
    load_trace,
    save_trace,
)

GOOD_ROWS = [
    "0,0.1,0.2,0.3,1,0,0,0",
    "0.01,0.11,0.2,0.3,0.999,0.02,0,0",
]


def write(tmp_path, lines):
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestTraceContainer:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="matching lengths"):
            Trace(np.zeros(3), np.zeros((2, 3)), np.zeros((3, 4)))

    def test_slicing_and_pose_access(self):
        tr = generate_synthetic_trace("easy", 1.0, seed=0)
        sub = tr[10:20]
        assert isinstance(sub, Trace) and len(sub) == 10
        assert sub.t[0] == pytest.approx(tr.t[10])
        with pytest.raises(TypeError):
            tr[5]
        pose = tr.pose(5)
        pose.p[0] += 1.0                         # copies, not views
        assert tr.p[5, 0] != pose.p[0]
        assert tr.median_dt() == pytest.approx(0.01)

    @pytest.mark.parametrize("n", [0, 1])
    def test_median_dt_of_fewer_than_two_samples_is_nan(self, n):
        tr = Trace(np.zeros(n), np.zeros((n, 3)), np.tile([1.0, 0, 0, 0], (n, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(tr.median_dt())

    def test_hemisphere_align(self):
        q = np.array([[1.0, 0, 0, 0], [-0.99, 0, 0, -0.1], [0.98, 0, 0.1, 0.1]])
        a = hemisphere_align(q)
        dots = [np.dot(a[i], a[i - 1]) for i in range(1, len(a))]
        assert min(dots) >= 0.0


class TestTraceFileIO:
    def test_minimal_two_row_file(self, tmp_path):
        tr = load_trace(write(tmp_path, [TRACE_HEADER] + GOOD_ROWS))
        assert len(tr) == 2
        assert tr.t[0] == 0.0 and tr.p[1, 0] == pytest.approx(0.11)

    def test_round_trip_preserves_values(self, tmp_path):
        orig = generate_synthetic_trace("medium", 2.0, seed=3)
        path = str(tmp_path / "rt.csv")
        save_trace(orig, path)
        back = load_trace(path)
        assert len(back) == len(orig)
        np.testing.assert_allclose(back.t, orig.t, rtol=1e-8)
        np.testing.assert_allclose(back.p, orig.p, rtol=0, atol=1e-8)
        np.testing.assert_allclose(back.q, orig.q, rtol=0, atol=1e-8)

    def test_saved_bytes_are_the_9g_join_of_the_arrays(self, tmp_path):
        orig = generate_synthetic_trace("hard", 2.0, seed=4)
        path = tmp_path / "rt.csv"
        save_trace(orig, str(path))
        rows = [[orig.t[i], *orig.p[i], *orig.q[i]] for i in range(len(orig))]
        expected = "".join(",".join("%.9g" % v for v in row) + "\n" for row in rows)
        assert path.read_bytes() == (TRACE_HEADER + "\n" + expected).encode()

    def test_load_after_save_gives_the_normalized_aligned_rows(self, tmp_path):
        # the arrays built the direct way from the saved text: numpy norm
        # per row, then sign alignment. On this hard trace a math.sqrt norm
        # would round 15 of the 200 rows differently.
        orig = generate_synthetic_trace("hard", 2.0, seed=5)
        path = tmp_path / "rt.csv"
        save_trace(orig, str(path))
        vals = np.array([[float(f) for f in line.split(",")]
                         for line in path.read_text().splitlines()[1:]])
        q = np.array([row / np.linalg.norm(row) for row in vals[:, 4:8]])
        back = load_trace(str(path))
        assert np.array_equal(back.t, vals[:, 0])
        assert np.array_equal(back.p, vals[:, 1:4])
        assert np.array_equal(back.q, hemisphere_align(q))

    def test_blank_lines_are_skipped(self, tmp_path):
        tr = load_trace(write(tmp_path, [TRACE_HEADER, GOOD_ROWS[0], "", GOOD_ROWS[1]]))
        assert len(tr) == 2

    def test_bad_header_names_line_one(self, tmp_path):
        with pytest.raises(ValueError, match="line 1"):
            load_trace(write(tmp_path, ["time,px,py,pz,qw,qx,qy,qz"] + GOOD_ROWS))

    def test_wrong_field_count_names_the_line(self, tmp_path):
        with pytest.raises(ValueError, match="line 3.*fields"):
            load_trace(write(tmp_path, [TRACE_HEADER, GOOD_ROWS[0], "0.01,1,2,3"]))

    def test_non_numeric_field_names_the_line(self, tmp_path):
        bad = "0.02,x,0.2,0.3,1,0,0,0"
        with pytest.raises(ValueError, match="line 4.*non-numeric"):
            load_trace(write(tmp_path, [TRACE_HEADER] + GOOD_ROWS + [bad]))

    def test_non_finite_value_rejected(self, tmp_path):
        bad = "0.02,inf,0.2,0.3,1,0,0,0"
        with pytest.raises(ValueError, match="line 4.*non-finite"):
            load_trace(write(tmp_path, [TRACE_HEADER] + GOOD_ROWS + [bad]))

    def test_non_increasing_timestamp_names_the_line(self, tmp_path):
        bad = "0.01,0.1,0.2,0.3,1,0,0,0"
        with pytest.raises(ValueError, match="line 4.*strictly increasing"):
            load_trace(write(tmp_path, [TRACE_HEADER] + GOOD_ROWS + [bad]))

    def test_off_unit_quaternion_is_renormalized(self, tmp_path):
        row = "0.02,0,0,0,0.9,0,0,0"             # norm 0.9, still usable
        tr = load_trace(write(tmp_path, [TRACE_HEADER] + GOOD_ROWS + [row]))
        assert abs(np.linalg.norm(tr.q[2]) - 1.0) < 1e-12
        assert tr.q[2, 0] == pytest.approx(1.0)

    def test_degenerate_quaternion_rejected(self, tmp_path):
        row = "0.02,0,0,0,0.1,0.1,0,0"
        with pytest.raises(ValueError, match="line 4.*degenerate"):
            load_trace(write(tmp_path, [TRACE_HEADER] + GOOD_ROWS + [row]))

    def test_empty_file_and_header_only(self, tmp_path):
        with pytest.raises(ValueError, match="line 1"):
            load_trace(write(tmp_path, [""]))
        with pytest.raises(ValueError, match="no data rows"):
            load_trace(write(tmp_path, [TRACE_HEADER]))

    def test_loaded_quaternions_are_hemisphere_aligned(self, tmp_path):
        rows = [TRACE_HEADER,
                "0,0,0,0,0.8,0,0,0.6",
                "0.01,0,0,0,-0.8,0,0,-0.61",     # antipodal sign flip
                "0.02,0,0,0,0.79,0,0,0.62"]
        tr = load_trace(write(tmp_path, rows))
        dots = [np.dot(tr.q[i], tr.q[i - 1]) for i in range(1, 3)]
        assert min(dots) > 0.9


class TestSyntheticProfiles:
    def test_sample_count_and_spacing(self):
        tr = generate_synthetic_trace("easy", 1.0, seed=0)
        assert len(tr) == 100
        np.testing.assert_allclose(np.diff(tr.t), 0.01, atol=1e-12)

    def test_same_seed_is_bit_identical(self):
        a = generate_synthetic_trace("hard", 3.0, seed=42)
        b = generate_synthetic_trace("hard", 3.0, seed=42)
        assert np.array_equal(a.p, b.p) and np.array_equal(a.q, b.q)
        c = generate_synthetic_trace("hard", 3.0, seed=43)
        assert not np.array_equal(a.p, c.p)

    def test_profiles_are_desk_scale_unit_and_origin_started(self):
        for profile in ("easy", "medium", "hard"):
            tr = generate_synthetic_trace(profile, 5.0, seed=1)
            norms = np.linalg.norm(tr.q, axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-12)
            assert np.abs(tr.p).max() < 0.5      # desk scale, meters
            np.testing.assert_allclose(tr.p[0], 0.0, atol=1e-15)
            np.testing.assert_allclose(tr.q[0], [1.0, 0, 0, 0], atol=1e-15)

    def test_hard_is_much_faster_than_easy(self):
        def rms_speed(tr):
            return np.sqrt(np.mean(np.sum(np.diff(tr.p, axis=0) ** 2, axis=1))) / 0.01

        for seed in (0, 1, 2):
            easy = rms_speed(generate_synthetic_trace("easy", 10.0, seed=seed))
            hard = rms_speed(generate_synthetic_trace("hard", 10.0, seed=seed))
            assert hard > 5.0 * easy

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="profile"):
            generate_synthetic_trace("extreme", 1.0)
        with pytest.raises(ValueError):
            generate_synthetic_trace("easy", 0.0)
        with pytest.raises(ValueError):
            generate_synthetic_trace("easy", 1.0, sample_hz=0.0)

    @pytest.mark.parametrize("name, value", [
        ("duration_s", "3"), ("duration_s", None), ("sample_hz", "100"), ("sample_hz", b"1"),
    ])
    def test_duration_and_rate_that_are_not_real_numbers_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            generate_synthetic_trace("easy", **{"duration_s": 3.0, name: value})

    @pytest.mark.parametrize("seed", [1.5, 1.9, -1, np.nan, "3", None])
    def test_seed_that_is_not_a_non_negative_whole_number_rejected(self, seed):
        # int() would quietly truncate 1.5 to seed 1, and numpy's own
        # refusal of -1 names no argument
        with pytest.raises(ValueError, match="seed"):
            generate_synthetic_trace("hard", 1.0, seed=seed)

    @pytest.mark.parametrize("seed", [np.int64(3), 3.0, np.float64(3.0)])
    def test_whole_seed_of_any_type_gives_that_seeds_trace(self, seed):
        a = generate_synthetic_trace("hard", 1.0, seed=3)
        b = generate_synthetic_trace("hard", 1.0, seed=seed)
        assert np.array_equal(a.p, b.p) and np.array_equal(a.q, b.q)

    @pytest.mark.parametrize("duration_s, sample_hz", [
        (math.inf, 100.0), (math.nan, 100.0), (1.0, math.inf), (1.0, math.nan),
        (0.001, 100.0),
    ])
    def test_non_finite_or_empty_arguments_rejected(self, duration_s, sample_hz):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite|no sample"):
                generate_synthetic_trace("easy", duration_s, sample_hz=sample_hz)
