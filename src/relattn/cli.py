"""Command-line interface.

Exit codes: 0 on success, 1 for usage/validation problems (bad arguments,
an --out that cannot be written, malformed configs or datasets, a dataset
whose class or predicate count differs from the checkpoint's config), 2 for
runtime failures (non-finite loss, unreadable or malformed checkpoints).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .checkpoint import CheckpointError
from .config import ConfigError, RunConfig
from .data import DatasetError, GenSpec, GenerationError, generate_dataset, save_dataset
from .evalkit import write_csv
from .evaluate import DEFAULT_KS, evaluate, load_model, load_split
from .features import class_signatures, scene_volume
from .tensor import no_grad
from .train import TrainingError, train


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="relattn",
                     description="Train and evaluate relationship decoders on synthetic scenes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p_gen.add_argument("--spec", required=True, help="generator spec JSON")
    p_gen.add_argument("--out", required=True, help="output directory for train/test JSON")

    p_train = sub.add_parser("train", help="train a model")
    p_train.add_argument("--config", required=True, help="run configuration JSON")
    p_train.add_argument("--data", required=True, help="dataset directory")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--trace-pgla", action="store_true",
                         help="also write pgla_trace.csv")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True, help="dataset directory")
    p_eval.add_argument("--split", default="test", choices=("train", "test"))
    p_eval.add_argument("--k", type=int, nargs="+", default=list(DEFAULT_KS))
    p_eval.add_argument("--graph-constraint", action="store_true",
                        help="keep only each pair's best predicate before ranking")
    p_eval.add_argument("--out", required=True, help="metrics CSV path")

    p_pts = sub.add_parser("sample-points",
                           help="dump inference-grid representative points for one scene")
    p_pts.add_argument("--checkpoint", required=True)
    p_pts.add_argument("--data", required=True)
    p_pts.add_argument("--split", default="test", choices=("train", "test"))
    p_pts.add_argument("--scene", type=int, default=0)
    p_pts.add_argument("--out", required=True, help="points CSV path")
    return parser


def _cmd_gen_data(args) -> int:
    spec = GenSpec.from_json(args.spec)
    train_ds, test_ds = generate_dataset(spec)
    os.makedirs(args.out, exist_ok=True)
    save_dataset(os.path.join(args.out, "train.json"), train_ds)
    save_dataset(os.path.join(args.out, "test.json"), test_ds)
    n_train = sum(len(s.triplets) for s in train_ds.scenes)
    n_test = sum(len(s.triplets) for s in test_ds.scenes)
    print(f"wrote {len(train_ds.scenes)} train scenes ({n_train} triplets), "
          f"{len(test_ds.scenes)} test scenes ({n_test} triplets) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = RunConfig.from_json(args.config)
    result = train(cfg, args.data, args.out, trace=args.trace_pgla)
    print(f"trained {result.iterations} iterations; checkpoint at {result.checkpoint_path}")
    print(f"final losses: {json.dumps(result.final_losses, sort_keys=True)}")
    return 0


def _check_out(path: str) -> None:
    """Refuse an --out file path that cannot be written, before any work."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise _UsageError(f"--out {path} is a directory, not a file path")
    if not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise _UsageError(f"--out {path}: {folder} is not a writable directory")


def _cmd_eval(args) -> int:
    _check_out(args.out)
    rows = evaluate(args.checkpoint, args.data, split=args.split, ks=tuple(args.k),
                    graph_constraint=args.graph_constraint, out_csv=args.out)
    for _split, _task, metric, k, pred, value in rows:
        if pred is None:
            shown = "na" if value is None else f"{value:.4f}"
            print(f"{metric}@{k}: {shown}")
    print(f"metrics written to {args.out}")
    return 0


def _cmd_sample_points(args) -> int:
    _check_out(args.out)
    model, cfg = load_model(args.checkpoint)
    ds = load_split(cfg, args.data, args.split)
    if not 0 <= args.scene < len(ds.scenes):
        raise _UsageError(f"scene index {args.scene} outside [0, {len(ds.scenes)})")
    scene = ds.scenes[args.scene]
    signatures = class_signatures(ds.seed, cfg.C, cfg.d)
    volume = scene_volume(ds.seed, scene, signatures, cfg.feature_noise_std)
    with no_grad():
        decode = model.forward(scene, volume).decode
    rows = ((e, g, layer, role, *pts[e, g, t])
            for role, layers in zip(("subject", "object"), decode.points)
            for layer, pts in enumerate(layers)
            for e, g, t in np.ndindex(pts.shape[:3]))
    write_csv(args.out, ("entity", "group", "layer", "role", "x", "y", "z"), rows)
    print(f"points for scene {args.scene} written to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    commands = {"gen-data": _cmd_gen_data, "train": _cmd_train, "eval": _cmd_eval,
                "sample-points": _cmd_sample_points}
    try:
        return commands[args.command](args)
    except (_UsageError, ConfigError, DatasetError, GenerationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TrainingError, CheckpointError, FloatingPointError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
