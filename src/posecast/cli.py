"""Command-line surface: train, eval, predict, sweep, gradcheck, graph-dump.

Every subcommand is a thin shell over the library. A run config is a YAML
mapping whose ``model`` and ``train`` sections hold the fields of
``ModelConfig`` and ``TrainConfig``; all randomness flows from the single
top-level ``seed``. ``main`` maps failures to exit codes: 0 success,
1 verification failure, 2 configuration error (bad config, arguments or
input files), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np
import yaml

from . import data as data_io
from . import graphs
from . import gradcheck as gc
from .autodiff import DimensionError
from .model import ModelConfig, build_model, config_value, load_checkpoint, save_checkpoint
from .training import (
    EvalReport,
    NumericalError,
    TrainConfig,
    baseline_report,
    check_horizons,
    evaluate,
    train,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


RUN_KEYS = ("seed", "dataset", "skeleton", "output_dir", "windows", "horizons", "model", "train")


def _section(cls, config, key, **overrides):
    """Build ``cls`` from the config section ``key`` and the run seed."""
    try:
        return cls(**{**config.get(key, {}), **overrides}, seed=config.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _mapping(what, value, keys):
    """``value``, checked to be a mapping that holds only ``keys``."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a mapping, got {value!r}")
    unknown = [key for key in value if key not in keys]
    if unknown:
        raise ValueError(f"{what} has unknown key {unknown[0]!r}; expected one of {keys}")
    return value


def load_config(path):
    try:
        with open(path) as f:
            config = yaml.safe_load(f)
    except (OSError, yaml.YAMLError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    return _mapping(f"config {path}", config, RUN_KEYS)


def _load_windows(path, model_config, skeleton, stride=1):
    windows = data_io.make_windows(
        data_io.load_sequences(path),
        model_config.input_frames,
        model_config.output_frames,
        stride=stride,
        skeleton=skeleton,
    )
    if len(windows) == 0:
        raise ValueError(
            f"dataset: no windows of length "
            f"{model_config.input_frames + model_config.output_frames} in {path}"
        )
    return windows


def _check_run(config, **model_overrides):
    """Read and check everything a training run takes from its config, so a
    bad value stops the run before anything trains."""
    skeleton = data_io.skeleton_preset(config_value("skeleton", config.get("skeleton"), "str"))
    model_config = _section(ModelConfig, config, "model", **model_overrides)
    graphs.check_max_hop(skeleton.joint_count, model_config.max_hop)
    train_config = _section(TrainConfig, config, "train")
    horizons = config_value("horizons", config.get("horizons", [model_config.output_frames]),
                            "tuple")
    check_horizons(horizons, model_config.output_frames)
    sampling = _mapping("windows", config.get("windows", {}), ("stride",))
    stride = config_value("windows.stride", sampling.get("stride", 1), "int")
    if stride < 1:
        raise ValueError(f"windows.stride must be >= 1, got {stride}")
    return skeleton, model_config, train_config, horizons, stride


def _start_runs(config, runs):
    """Load the windows that every run of ``runs``, (out_dir, checked run)
    pairs, trains on, then create each out_dir: after every check, so a
    bad input writes nothing, and before the first step trains."""
    skeleton, model_config, _, _, stride = runs[0][1]      # cells differ in L and D only
    windows = _load_windows(config_value("dataset", config.get("dataset"), "str"),
                            model_config, skeleton, stride)
    for out_dir, _ in runs:
        os.makedirs(out_dir, exist_ok=True)
    return windows


def _run_training(windows, out_dir, run, extra_horizons=()):
    """Train and write the run's files; returns the evaluation at the config's
    horizons, which eval_report.txt holds, and at ``extra_horizons``."""
    skeleton, model_config, train_config, horizons, _ = run
    model = build_model(skeleton, model_config)
    log = train(model, windows, train_config)

    save_checkpoint(os.path.join(out_dir, "checkpoint.pckp"), model)
    with open(os.path.join(out_dir, "train_log.jsonl"), "w") as f:
        f.writelines(json.dumps(asdict(record)) + "\n" for record in log)
    report = evaluate(model, windows, tuple(dict.fromkeys((*horizons, *extra_horizons))))
    with open(os.path.join(out_dir, "eval_report.txt"), "w") as f:
        f.write(EvalReport({h: report.horizons[h] for h in horizons}).format_table() + "\n")
    return report


def cmd_train(args):
    config = load_config(args.config)
    out_dir = config_value("output_dir", config.get("output_dir", "runs/default"), "str")
    run = _check_run(config)
    _run_training(_start_runs(config, [(out_dir, run)]), out_dir, run)
    print(f"wrote checkpoint, train_log.jsonl, eval_report.txt to {out_dir}")
    return EXIT_OK


def cmd_eval(args):
    model = load_checkpoint(args.checkpoint)
    horizons = (config_value("--horizons", args.horizons.split(","), "tuple")
                if args.horizons is not None else (model.config.output_frames,))
    windows = _load_windows(args.dataset, model.config, model.skeleton)
    report = evaluate(model, windows, horizons)
    extra = {"baseline": baseline_report(windows, horizons).horizons} if args.baseline else {}
    print(report.format_table(extra_rows=extra))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"horizons": report.horizons, **extra}, f, indent=2)
    return EXIT_OK


def cmd_predict(args):
    """Forecast from the last T frames of every record at least T long, all
    in one ``model.predict`` call, so its chunks run on every core."""
    model = load_checkpoint(args.checkpoint)
    t, v = model.config.input_frames, model.joint_count
    kept, skipped = [], []
    for seq in data_io.load_sequences(args.dataset):
        if len(seq) < t:
            skipped.append(repr(seq.label))
        elif seq.joint_count != v:
            raise DimensionError(f"dataset {args.dataset}, record {seq.label!r}: "
                                 f"{seq.joint_count} joints, the model has V={v}")
        else:
            kept.append(seq)
    x = np.array([seq.frames[-t:] for seq in kept]).reshape(-1, t, v, 3)   # [0, T, V, 3] if none
    outputs = [data_io.PoseSequence(frames=pred, rate=seq.rate, label=seq.label)
               for seq, pred in zip(kept, model.predict(x))]
    data_io.save_sequences(args.out, outputs)
    note = f"; skipped {len(skipped)} shorter than T={t}: {', '.join(skipped)}" if skipped else ""
    print(f"wrote {len(outputs)} predicted sequences to {args.out}{note}")
    return EXIT_OK


def cmd_sweep(args):
    config = load_config(args.config)
    spans = config_value("--spans", args.spans.split(","), "tuple")
    hops = config_value("--hops", args.hops.split(","), "tuple")
    horizon = None if args.horizon is None else config_value("--horizon", args.horizon, "int")
    base_out = config_value("output_dir", config.get("output_dir", "runs/sweep"), "str")
    cells = []              # every cell is checked before the first one trains
    for span in spans:
        for hop in hops:
            run = _check_run(config, span=span, max_hop=hop)
            horizon = run[1].output_frames if horizon is None else horizon  # cells share K
            check_horizons([horizon], run[1].output_frames)
            cells.append((span, hop, os.path.join(base_out, f"L{span}D{hop}"), run))
    windows = _start_runs(config, [cell[2:] for cell in cells])
    rows = [(span, hop, _run_training(windows, out_dir, run, [horizon]).horizons[horizon])
            for span, hop, out_dir, run in cells]
    print(f"L  D  error@{horizon}")
    for span, hop, err in rows:
        print(f"{span}  {hop}  {err:.4f}")
    return EXIT_OK


def cmd_gradcheck(args):
    results = gc.run_suite()
    worst_failures = [r for r in results if not r.passed]
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{r.name:<20} max relative error {r.max_relative_error:.3e}  {status}")
    if worst_failures:
        names = ", ".join(r.name for r in worst_failures)
        print(f"gradient check failed: {names}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_graph_dump(args):
    skeleton = data_io.skeleton_preset(args.skeleton)
    v = skeleton.joint_count
    graphs.check_max_hop(v, args.max_hop)
    try:
        partition = graphs.build_hop_partition(skeleton, args.max_hop)
        multigraph = graphs.build_multigraph(partition, args.frames, args.span)
        paths = graphs.dump_multigraph(multigraph, args.out)
    except MemoryError as exc:
        raise ValueError(f"cannot allocate the operators of V={v}, --frames {args.frames}, "
                         f"--max-hop {args.max_hop}: {exc}") from exc
    print(f"wrote {len(paths)} operator files to {args.out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="posecast", description="Graph-convolutional pose forecasting"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a YAML run config")
    p.add_argument("config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("checkpoint")
    p.add_argument("dataset")
    p.add_argument("--horizons", help="comma-separated frame offsets (default: K)")
    p.add_argument("--baseline", action="store_true",
                   help="include the copy-last-frame baseline row")
    p.add_argument("--out", default=None, help="machine-readable JSON copy")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="forecast from the tail of each sequence")
    p.add_argument("checkpoint")
    p.add_argument("dataset")
    p.add_argument("out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sweep", help="train one model per (L, D) cell")
    p.add_argument("config")
    p.add_argument("--spans", required=True, help="comma-separated L values")
    p.add_argument("--hops", required=True, help="comma-separated D values")
    p.add_argument("--horizon", help="frame offset to compare (default: K)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("graph-dump", help="dump hop operators as text matrices")
    p.add_argument("skeleton")
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--span", type=int, required=True)
    p.add_argument("--max-hop", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_graph_dump)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, NumericalError) as exc:
        # Config values, PoseFormatError, DimensionError and missing files
        # are configuration errors. Every diagnostic is one stderr line.
        kind, code = (("numerical failure", EXIT_NUMERICAL) if isinstance(exc, NumericalError)
                      else ("configuration error", EXIT_CONFIG))
        message = " ".join(line.strip() for line in str(exc).splitlines())
        print(f"{kind}: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
