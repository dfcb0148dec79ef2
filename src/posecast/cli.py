"""Command-line entry point: synth, classify, predict, and bench.

synth    writes a synthetic trace file.
classify prints per-chunk entropy and motion class for a trace file.
predict  streams one filter over a trace and prints horizon predictions
         with their errors against the raw future pose.
bench    runs the full sweep over one or more trace files and writes
         summary.csv, samples.csv, and table.txt.

All output tables are CSV with 9-significant-digit floats. Errors exit
nonzero with a one-line diagnostic on stderr.
"""

import argparse
import sys

import numpy as np

from .classifier import ClassifierConfig, classify, discretize_chunk, lz_entropy
from .experiment import ExperimentConfig, emit_report, horizon_steps, run_experiment
from .filters import FilterConfig, make_predictor
from .metrics import orientation_error, position_error
from .preprocess import CHUNK_LEN, chunk_trace
from .traces import PROFILES, generate_synthetic_trace, load_trace, save_trace

_F = "%.9g"


def build_parser():
    classifier = ClassifierConfig()
    sweep = ExperimentConfig()
    parser = argparse.ArgumentParser(
        prog="posecast",
        description="6-DoF pose prediction filters and benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic trace file")
    p.add_argument("--profile", required=True, choices=PROFILES)
    p.add_argument("--duration", required=True, type=float, metavar="S")
    p.add_argument("--seed", type=int, default=0, metavar="N")
    p.add_argument("--out", required=True, metavar="FILE")

    p = sub.add_parser("classify", help="label each chunk of a trace")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--h-low", type=float, default=classifier.h_low, metavar="X")
    p.add_argument("--h-high", type=float, default=classifier.h_high, metavar="Y")
    p.add_argument("--cell-pos", type=float, default=classifier.cell_size_pos, metavar="M")
    p.add_argument("--cell-rot", type=float, default=classifier.cell_size_rot, metavar="R")
    p.add_argument("--chunk-len", type=int, default=CHUNK_LEN, metavar="L")

    p = sub.add_parser("predict", help="stream a filter over a trace")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--model", required=True, metavar="NAME")
    p.add_argument("--horizon-ms", required=True, type=float, metavar="H")
    p.add_argument("--drop-rate", type=float, default=0.0, metavar="D")
    p.add_argument("--seed", type=int, default=0, metavar="N")

    p = sub.add_parser("bench", help="run the model/horizon/drop sweep")
    p.add_argument("--input", required=True, nargs="+", metavar="FILE")
    p.add_argument("--models", default=",".join(sweep.models), metavar="LIST")
    p.add_argument("--horizons", default=",".join(map(str, sweep.horizons_ms)),
                   metavar="LIST")
    p.add_argument("--drop-rates", default=",".join(map(str, sweep.drop_rates)),
                   metavar="LIST")
    p.add_argument("--repeats", type=int, default=sweep.repeats, metavar="K")
    p.add_argument("--seed", type=int, default=sweep.master_seed, metavar="N")
    p.add_argument("--out", required=True, metavar="DIR")
    return parser


def _cmd_synth(args):
    trace = generate_synthetic_trace(args.profile, args.duration, seed=args.seed)
    save_trace(trace, args.out)
    print(f"wrote {len(trace)} poses to {args.out}")
    return 0


def _cmd_classify(args):
    trace = load_trace(args.input)
    config = ClassifierConfig(cell_size_pos=args.cell_pos, cell_size_rot=args.cell_rot,
                              h_low=args.h_low, h_high=args.h_high)
    print("chunk,t_start,entropy_bits,label")
    for i, chunk in enumerate(chunk_trace(trace, args.chunk_len)):
        h = lz_entropy(discretize_chunk(chunk, config))
        label = classify(h, config).label
        print(f"{i},{_F % chunk.t[0]},{_F % h},{label}")
    return 0


def _cmd_predict(args):
    trace = load_trace(args.input)
    dt = trace.median_dt()
    (n_steps,) = horizon_steps((args.horizon_ms,), dt)
    config = FilterConfig(model=args.model, dt=dt, horizon_steps=n_steps)
    pred = make_predictor(config, trace.pose(0))
    rng = np.random.default_rng(args.seed)
    if not 0.0 <= args.drop_rate <= 1.0:
        raise ValueError(f"drop rate must be in [0, 1], got {args.drop_rate}")

    print("t_target,px,py,pz,qw,qx,qy,qz,e_pos_mm,e_ori_deg")
    errs_p, errs_o = [], []
    for k in range(1, len(trace) - n_steps):
        received = bool(rng.random() > args.drop_rate)
        pub = pred.step(trace.pose(k), received=received)
        target = trace.pose(k + n_steps)
        ep = position_error(pub.p, target.p)
        eo = orientation_error(pub.q, target.q)
        errs_p.append(ep)
        errs_o.append(eo)
        row = [target.t, *pub.p, *pub.q, ep, eo]
        print(",".join(_F % v for v in row))
    if errs_p:
        print(f"{len(errs_p)} ticks: pos mean {np.mean(errs_p):.3f} mm, "
              f"median {np.median(errs_p):.3f} mm; ori mean {np.mean(errs_o):.3f} deg, "
              f"median {np.median(errs_o):.3f} deg", file=sys.stderr)
    return 0


def _parse_floats(text, flag):
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise ValueError(f"{flag} expects a comma-separated number list, got '{text}'")


def _experiment_config(args):
    return ExperimentConfig(
        models=tuple(m for m in args.models.split(",") if m.strip() != ""),
        horizons_ms=_parse_floats(args.horizons, "--horizons"),
        drop_rates=_parse_floats(args.drop_rates, "--drop-rates"),
        repeats=args.repeats,
        master_seed=args.seed)


def _cmd_bench(args):
    config = _experiment_config(args)
    traces = [load_trace(path) for path in args.input]
    report = run_experiment(config, traces)
    summary_path = emit_report(report, args.out)
    for f in report.failures:
        print(f"warning: {f.model} h={f.horizon_ms} drop={f.drop_rate} "
              f"repeat={f.repeat} trace={f.trace_index} failed: {f.reason}",
              file=sys.stderr)
    print(f"wrote {summary_path}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "classify": _cmd_classify,
    "predict": _cmd_predict,
    "bench": _cmd_bench,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the stream; not our error
        return 1
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
