"""Subcommand behavior through the in-process entry point."""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from posecast.cli import _experiment_config, build_parser, main
from posecast.experiment import ExperimentConfig, run_experiment
from posecast.filters import MODEL_NAMES
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


def test_import_loads_neither_scipy_signal_nor_stats():
    # each loads about 500 modules, most of a worker's start-up time and
    # memory; run time needs numpy and scipy.special only
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import posecast.cli; "
             "print(sorted(m for m in sys.modules if m.startswith(('scipy.signal', 'scipy.stats'))))")
    out = subprocess.run([sys.executable, "-c", probe, str(src)], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def _loaded_after(tmp_path, *commands):
    """The sorted names of the scipy modules loaded in a fresh interpreter
    after `import posecast.cli`, then after each posecast command in turn
    (argument lists whose "{dir}" is tmp_path), run in that one process."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import contextlib, io, json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import posecast.cli\n"
        "scipy = lambda: sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "seen = [scipy()]\n"
        "for argv in json.loads(sys.argv[2]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert posecast.cli.main(argv) == 0, argv\n"
        "    seen.append(scipy())\n"
        "print(json.dumps(seen))\n")
    argvs = [[a.replace("{dir}", str(tmp_path)) for a in argv] for argv in commands]
    out = subprocess.run([sys.executable, "-c", probe, str(src), json.dumps(argvs)],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_import_and_streaming_commands_load_no_scipy(tmp_path):
    # scipy.special alone is most of a process's start-up time and memory;
    # only bench's summary intervals need it
    seen = _loaded_after(
        tmp_path,
        ["synth", "--profile", "hard", "--duration", "3", "--seed", "1",
         "--out", "{dir}/hard.csv"],
        ["classify", "--input", "{dir}/hard.csv"],
        ["predict", "--input", "{dir}/hard.csv", "--model", "p3o3",
         "--horizon-ms", "100", "--drop-rate", "0.3", "--seed", "1"])
    assert seen == [[]] * 4


def test_bench_loads_scipy_special_for_its_intervals(tmp_path):
    seen = _loaded_after(
        tmp_path,
        ["synth", "--profile", "hard", "--duration", "3", "--seed", "1",
         "--out", "{dir}/hard.csv"],
        ["bench", "--input", "{dir}/hard.csv", "--models", "KF", "--horizons", "100",
         "--drop-rates", "0", "--repeats", "2", "--out", "{dir}/out"])
    assert seen[:2] == [[], []]
    assert "scipy.special" in seen[2]
    assert not [m for m in seen[2] if m.startswith(("scipy.signal", "scipy.stats"))]


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

    @pytest.fixture()
    def short_file(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        _run(capsys, "synth", "--profile", "hard", "--duration", "1.5",
             "--seed", "1", "--out", str(path))
        return str(path)

    @pytest.mark.parametrize("argv, message", [
        (("synth", "--profile", "easy", "--duration", "inf", "--out", "{tmp}/x.csv"),
         "duration and sample rate must be positive and finite"),
        (("synth", "--profile", "easy", "--duration", "0.001", "--out", "{tmp}/x.csv"),
         "0.001 s at 100.0 Hz holds no sample"),
        (("predict", "--input", "{hard}", "--model", "p3o3", "--horizon-ms", "inf"),
         "horizons_ms must be a whole number, got inf"),
        (("predict", "--input", "{hard}", "--model", "p3o3", "--horizon-ms", "nan"),
         "horizons_ms must be a whole number, got nan"),
        (("predict", "--input", "{one}", "--model", "p3o3", "--horizon-ms", "100"),
         "median tick interval nan s is not finite and positive"),
        (("bench", "--input", "{one}", "--out", "{tmp}/r"),
         "median tick interval nan s is not finite and positive"),
        (("classify", "--input", "{one}"),
         "median tick interval nan s is not finite and positive"),
        (("classify", "--input", "{short}"),
         "trace has 150 samples, fewer than one chunk of 200"),
        (("predict", "--input", "{hard}", "--model", "p3o3", "--horizon-ms", "20000"),
         "horizon 20000 ms reaches past the end of a 300-sample trace"),
        (("bench", "--input", "{hard}", "--models", "p3o3", "--horizons", "20,20000",
          "--drop-rates", "0", "--repeats", "1", "--out", "{tmp}/r"),
         "horizon 20000 ms reaches past the end of a 300-sample trace"),
        (("bench", "--input", "{hard}", "--models", "p3o3", "--horizons", "20,24",
          "--drop-rates", "0", "--repeats", "1", "--out", "{tmp}/r"),
         "horizons 20 and 24 ms both round to 2 ticks of 0.01 s"),
        (("synth", "--profile", "easy", "--duration", "1", "--seed", "-1",
          "--out", "{tmp}/x.csv"),
         "seed must be non-negative, got -1"),
    ])
    def test_one_error_line(self, tmp_path, capsys, one_row_file, hard_file, short_file,
                            argv, message):
        argv = [a.format(tmp=tmp_path, one=one_row_file, hard=hard_file, short=short_file)
                for a in argv]
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

    def test_missing_file_exits_nonzero(self, capsys):
        code, _, stderr = _run(capsys, "classify", "--input", "no-such.csv")
        assert code == 1
        assert "error:" in stderr

    def test_labels_the_chunks_bench_scores(self, tmp_path, capsys):
        # the raw trace reads MMMMMMMMMM here; bench prefilters it first
        path = tmp_path / "med.csv"
        _run(capsys, "synth", "--profile", "medium", "--duration", "20",
             "--seed", "901", "--out", str(path))
        code, stdout, _ = _run(capsys, "classify", "--input", str(path))
        assert code == 0
        labels = [line.split(",")[3] for line in stdout.splitlines()[1:]]
        config = ExperimentConfig(models=("ESKF",), horizons_ms=(20,), drop_rates=(0.0,),
                                  repeats=1)
        report = run_experiment(config, [load_trace(path)])
        assert labels == [c.label for c in report.chunk_classes[0]]
        assert "Easy" in labels


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

    def test_errors_match_the_bench_samples(self, tmp_path, capsys):
        path = tmp_path / "med.csv"
        _run(capsys, "synth", "--profile", "medium", "--duration", "4",
             "--seed", "3", "--out", str(path))
        # the full sweep stitches p2o3 from p2o2 and p3o3; predict streams it alone
        code, _, _ = _run(capsys, "bench", "--input", str(path),
                          "--models", ",".join(MODEL_NAMES),
                          "--horizons", "100", "--drop-rates", "0,0.3", "--repeats", "2",
                          "--seed", "4", "--out", str(tmp_path / "r"))
        assert code == 0
        samples = [line.split(",") for line in
                   (tmp_path / "r" / "samples.csv").read_text().splitlines()[1:]]
        for model in MODEL_NAMES:
            for drop in ("0", "0.3"):
                code, stdout, _ = _run(capsys, "predict", "--input", str(path),
                                       "--model", model, "--horizon-ms", "100",
                                       "--drop-rate", drop, "--seed", "4")
                assert code == 0
                rows = [line.split(",")[8:] for line in stdout.splitlines()[1:]]
                bench = sorted((int(r[6]), r[7:]) for r in samples
                               if r[0] == model and r[3] == drop and r[4] == "0")
                assert len(rows) == len(bench) == 400 - 1 - 10
                assert rows == [errors for _, errors in bench]
                assert [k for k, _ in bench] == list(range(1, len(rows) + 1))

    def test_trace_shorter_than_a_chunk_still_streams(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        _run(capsys, "synth", "--profile", "hard", "--duration", "1.5",
             "--seed", "1", "--out", str(path))
        code, stdout, stderr = _run(capsys, "predict", "--input", str(path),
                                    "--model", "p3o3", "--horizon-ms", "100")
        assert code == 0
        assert len(stdout.splitlines()) == 1 + (150 - 1 - 10)
        assert stderr.startswith("139 ticks:")

    def test_streams_without_labelling_chunks(self, medium_file, monkeypatch, capsys):
        # predict prints no class, so it never labels the trace's chunks
        def refuse(filtered):
            raise RuntimeError("predict labelled chunks")
        monkeypatch.setattr("posecast.experiment.label_chunks", refuse)
        code, stdout, stderr = _run(capsys, "predict", "--input", str(medium_file),
                                    "--model", "p3o3", "--horizon-ms", "60")
        assert code == 0
        assert len(stdout.splitlines()) == 1 + (1000 - 1 - 6)
        assert stderr.startswith("993 ticks:")

    def test_horizon_that_is_not_whole_is_refused_as_bench_refuses_it(self, medium_file,
                                                                       tmp_path, capsys):
        # 20.5 ms would round to 2 ticks and be scored as 20 ms
        message = "error: horizons_ms must be a whole number, got 20.5\n"
        code, stdout, stderr = _run(capsys, "predict", "--input", str(medium_file),
                                    "--model", "KF", "--horizon-ms", "20.5")
        assert (code, stdout, stderr) == (1, "", message)
        code, _, bench_err = _run(capsys, "bench", "--input", str(medium_file),
                                  "--models", "KF", "--horizons", "20.5",
                                  "--out", str(tmp_path / "r"))
        assert (code, bench_err) == (1, message)
        # a whole number of ms passes, written as a float too, and a
        # half-tick horizon still rounds up
        _, whole, _ = _run(capsys, "predict", "--input", str(medium_file),
                           "--model", "KF", "--horizon-ms", "100")
        code, as_float, _ = _run(capsys, "predict", "--input", str(medium_file),
                                 "--model", "KF", "--horizon-ms", "100.0")
        assert code == 0 and as_float == whole
        code, stdout, _ = _run(capsys, "predict", "--input", str(medium_file),
                               "--model", "KF", "--horizon-ms", "15")
        assert code == 0
        assert stdout.splitlines()[1].split(",")[0] == "0.03"

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

    def test_spaces_after_the_list_commas_are_ignored(self, tmp_path, capsys):
        trace = self._synth(capsys, tmp_path)
        args = ("bench", "--input", str(trace), "--drop-rates", "0, 0.5",
                "--horizons", "20, 100", "--repeats", "2", "--seed", "3")
        for name, models in (("tight", "KF,p3o3"), ("spaced", "KF, p3o3")):
            code, _, stderr = _run(capsys, *args, "--models", models,
                                   "--out", str(tmp_path / name))
            assert (code, stderr) == (0, "")
        assert ((tmp_path / "tight" / "summary.csv").read_bytes()
                == (tmp_path / "spaced" / "summary.csv").read_bytes())

    _GRID = ("--models", "KF,p3o3", "--horizons", "20", "--drop-rates", "0,0.5",
             "--repeats", "2", "--seed", "0")

    def test_every_cell_failing_exits_one(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        _run(capsys, "synth", "--profile", "hard", "--duration", "1.5", "--out", str(short))
        out = tmp_path / "r"
        code, stdout, stderr = _run(capsys, "bench", "--input", str(short), *self._GRID,
                                    "--out", str(out))
        assert code == 1
        lines = stderr.splitlines()
        # one warning per (model, horizon, drop rate, repeat): 2 x 1 x 2 x 2
        assert len(lines) == 9
        assert all("fewer than one chunk of 200" in line for line in lines[:-1])
        assert [line for line in lines if line.startswith("error:")] == [lines[-1]]
        assert "summary.csv" in stdout
        assert (out / "summary.csv").read_text().count("\n") == 1
        assert (out / "samples.csv").exists() and (out / "table.txt").exists()

    def test_some_cells_failing_exits_zero(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        _run(capsys, "synth", "--profile", "hard", "--duration", "1.5", "--out", str(short))
        good = self._synth(capsys, tmp_path)
        code, _, stderr = _run(capsys, "bench", "--input", str(good), str(short),
                               *self._GRID, "--out", str(tmp_path / "r"))
        assert code == 0
        lines = stderr.splitlines()
        assert len(lines) == 8
        assert all(line.startswith("warning:") and "trace=1" in line for line in lines)

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
