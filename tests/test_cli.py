"""Subcommand behavior through the in-process entry point."""

import warnings

import numpy as np
import pytest

from posecast.classifier import ClassifierConfig
from posecast.cli import _experiment_config, build_parser, main
from posecast.experiment import ExperimentConfig
from posecast.preprocess import CHUNK_LEN
from posecast.traces import TRACE_HEADER, load_trace


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code != 0

    def test_rejects_unknown_profile(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["synth", "--profile", "extreme", "--duration", "1",
                  "--out", "x.csv"])
        assert e.value.code != 0

    def test_defaults_come_from_the_configs(self):
        parser = build_parser()
        bench = parser.parse_args(["bench", "--input", "x", "--out", "d"])
        assert _experiment_config(bench) == ExperimentConfig()
        classify = parser.parse_args(["classify", "--input", "x"])
        assert ClassifierConfig(cell_size_pos=classify.cell_pos,
                                cell_size_rot=classify.cell_rot,
                                h_low=classify.h_low,
                                h_high=classify.h_high) == ClassifierConfig()
        assert classify.chunk_len == CHUNK_LEN


class TestDegenerateNumbers:
    """Each input ends in one diagnostic line: no traceback, no warning."""

    @pytest.fixture()
    def one_row_file(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(f"{TRACE_HEADER}\n0,0,0,0,1,0,0,0\n")
        return str(path)

    @pytest.fixture()
    def hard_file(self, tmp_path, capsys):
        path = tmp_path / "hard.csv"
        _run(capsys, "synth", "--profile", "hard", "--duration", "3",
             "--seed", "1", "--out", str(path))
        return str(path)

    @pytest.mark.parametrize("argv, message", [
        (("synth", "--profile", "easy", "--duration", "inf", "--out", "{tmp}/x.csv"),
         "duration and sample rate must be positive and finite"),
        (("synth", "--profile", "easy", "--duration", "0.001", "--out", "{tmp}/x.csv"),
         "0.001 s at 100.0 Hz holds no sample"),
        (("predict", "--input", "{hard}", "--model", "p3o3", "--horizon-ms", "inf"),
         "horizon inf ms is not a finite number of ticks"),
        (("predict", "--input", "{hard}", "--model", "p3o3", "--horizon-ms", "nan"),
         "horizon nan ms is not a finite number of ticks"),
        (("predict", "--input", "{one}", "--model", "p3o3", "--horizon-ms", "100"),
         "median tick interval nan s is not finite and positive"),
        (("bench", "--input", "{one}", "--out", "{tmp}/r"),
         "median tick interval nan s is not finite and positive"),
    ])
    def test_one_error_line(self, tmp_path, capsys, one_row_file, hard_file, argv, message):
        argv = [a.format(tmp=tmp_path, one=one_row_file, hard=hard_file) for a in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, stderr = _run(capsys, *argv)
        assert code == 1
        assert stderr.splitlines() == [f"error: {message}"]
        assert stdout == ""


class TestSynth:
    def test_writes_loadable_trace(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, stdout, _ = _run(capsys, "synth", "--profile", "easy",
                               "--duration", "2", "--seed", "5",
                               "--out", str(out))
        assert code == 0
        assert "200 poses" in stdout
        tr = load_trace(out)
        assert len(tr) == 200
        assert np.allclose(np.linalg.norm(tr.q, axis=1), 1.0, atol=1e-9)

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _run(capsys, "synth", "--profile", "hard", "--duration", "3",
             "--seed", "9", "--out", str(a))
        _run(capsys, "synth", "--profile", "hard", "--duration", "3",
             "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_duration_exits_nonzero(self, tmp_path, capsys):
        code, _, stderr = _run(capsys, "synth", "--profile", "easy",
                               "--duration", "-2", "--out",
                               str(tmp_path / "x.csv"))
        assert code == 1
        assert "error:" in stderr


class TestClassify:
    @pytest.fixture()
    def easy_file(self, tmp_path, capsys):
        path = tmp_path / "easy.csv"
        _run(capsys, "synth", "--profile", "easy", "--duration", "30",
             "--seed", "0", "--out", str(path))
        return path

    def test_easy_trace_labels_easy(self, easy_file, capsys):
        code, stdout, _ = _run(capsys, "classify", "--input", str(easy_file))
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "chunk,t_start,entropy_bits,label"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 15
        assert all(r[3] == "Easy" for r in rows)
        assert [int(r[0]) for r in rows] == list(range(15))

    def test_thresholds_change_labels(self, easy_file, capsys):
        code, stdout, _ = _run(capsys, "classify", "--input", str(easy_file),
                               "--h-low", "0.001", "--h-high", "0.002")
        assert code == 0
        rows = [line.split(",") for line in stdout.splitlines()[1:]]
        assert all(r[3] == "Hard" for r in rows)

    def test_chunk_len_controls_row_count(self, easy_file, capsys):
        code, stdout, _ = _run(capsys, "classify", "--input", str(easy_file),
                               "--chunk-len", "100")
        assert code == 0
        assert len(stdout.splitlines()) == 1 + 30

    def test_missing_file_exits_nonzero(self, capsys):
        code, _, stderr = _run(capsys, "classify", "--input", "no-such.csv")
        assert code == 1
        assert "error:" in stderr

    @pytest.mark.parametrize("flag", ["--cell-pos", "--cell-rot"])
    def test_nan_cell_size_exits_nonzero(self, easy_file, capsys, flag):
        # NaN compares false to every bound, so a grid of NaN cells would
        # put each pose in a cell of its own and label every chunk Hard
        code, stdout, stderr = _run(capsys, "classify", "--input", str(easy_file),
                                    flag, "nan")
        assert code != 0
        assert "cell sizes must be positive" in stderr
        assert "Hard" not in stdout


class TestPredict:
    @pytest.fixture()
    def medium_file(self, tmp_path, capsys):
        path = tmp_path / "med.csv"
        _run(capsys, "synth", "--profile", "medium", "--duration", "10",
             "--seed", "2", "--out", str(path))
        return path

    def test_row_count_and_header(self, medium_file, capsys):
        code, stdout, stderr = _run(capsys, "predict", "--input",
                                    str(medium_file), "--model", "p2o2",
                                    "--horizon-ms", "40")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "t_target,px,py,pz,qw,qx,qy,qz,e_pos_mm,e_ori_deg"
        # ticks 1 .. n-1-n_steps have a future target inside the trace
        assert len(lines) == 1 + (1000 - 1 - 4)
        first = [float(v) for v in lines[1].split(",")]
        assert len(first) == 10
        assert first[0] == pytest.approx(0.05)
        assert "ticks" in stderr

    def test_model_name_case_insensitive(self, medium_file, capsys):
        code, stdout, _ = _run(capsys, "predict", "--input",
                               str(medium_file), "--model", "KF",
                               "--horizon-ms", "20")
        code2, stdout2, _ = _run(capsys, "predict", "--input",
                                 str(medium_file), "--model", "kf",
                                 "--horizon-ms", "20")
        assert code == 0 and code2 == 0
        assert stdout == stdout2

    def test_drop_seed_reproducible(self, medium_file, capsys):
        args = ("predict", "--input", str(medium_file), "--model", "p3o3",
                "--horizon-ms", "60", "--drop-rate", "0.4")
        _, out_a, _ = _run(capsys, *args, "--seed", "7")
        _, out_b, _ = _run(capsys, *args, "--seed", "7")
        _, out_c, _ = _run(capsys, *args, "--seed", "8")
        assert out_a == out_b
        assert out_a != out_c

    def test_unknown_model_exits_nonzero(self, medium_file, capsys):
        code, _, stderr = _run(capsys, "predict", "--input",
                               str(medium_file), "--model", "ukf",
                               "--horizon-ms", "40")
        assert code == 1
        assert "error:" in stderr

    def test_bad_drop_rate_exits_nonzero(self, medium_file, capsys):
        code, _, stderr = _run(capsys, "predict", "--input",
                               str(medium_file), "--model", "KF",
                               "--horizon-ms", "40", "--drop-rate", "1.5")
        assert code == 1
        assert "error:" in stderr


class TestBench:
    def _synth(self, capsys, tmp_path):
        path = tmp_path / "med.csv"
        _run(capsys, "synth", "--profile", "medium", "--duration", "8",
             "--seed", "1", "--out", str(path))
        return path

    def test_end_to_end_outputs(self, tmp_path, capsys):
        trace = self._synth(capsys, tmp_path)
        out = tmp_path / "report"
        code, stdout, _ = _run(capsys, "bench", "--input", str(trace),
                               "--models", "KF,p3o3", "--horizons", "20,60",
                               "--drop-rates", "0,0.5", "--repeats", "2",
                               "--seed", "0", "--out", str(out))
        assert code == 0
        assert "summary.csv" in stdout
        assert (out / "summary.csv").exists()
        assert (out / "samples.csv").exists()
        assert (out / "table.txt").exists()
        header = (out / "summary.csv").read_text().splitlines()[0]
        assert header.startswith("model,class,horizon_ms,drop_rate,pos_mean_mm")

    def test_same_seed_byte_identical_summary(self, tmp_path, capsys):
        trace = self._synth(capsys, tmp_path)
        args = ("bench", "--input", str(trace), "--models", "p2o2",
                "--horizons", "40", "--drop-rates", "0.3", "--repeats", "2",
                "--seed", "5")
        _run(capsys, *args, "--out", str(tmp_path / "a"))
        _run(capsys, *args, "--out", str(tmp_path / "b"))
        assert ((tmp_path / "a" / "summary.csv").read_bytes()
                == (tmp_path / "b" / "summary.csv").read_bytes())

    @pytest.mark.parametrize("flags", [
        ("--models", "nope"),
        ("--drop-rates", "2"),
        ("--horizons", ""),
        ("--repeats", "0"),
    ])
    def test_bad_grid_exits_nonzero(self, tmp_path, capsys, flags):
        trace = self._synth(capsys, tmp_path)
        code, _, stderr = _run(capsys, "bench", "--input", str(trace),
                               "--out", str(tmp_path / "r"), *flags)
        assert code == 1
        assert "error:" in stderr
