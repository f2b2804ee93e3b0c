"""Checkpoint evaluation: retrieval metrics over a dataset split."""

from __future__ import annotations

import os

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint
from .config import ConfigError, RunConfig
from .data import Dataset, DatasetError, load_dataset
from .evalkit import aggregate_mean_recall, aggregate_recall, per_predicate_mean, \
    per_predicate_recall_at_k, ranked_triplets, recall_at_k, write_metrics_csv, \
    zero_shot_filter
from .features import class_signatures, scene_volume
from .model import RelationModel
from .tensor import no_grad
from .train import resolve_config

DEFAULT_KS = (20, 50, 100)


def load_model(checkpoint_path: str) -> tuple:
    """Rebuild the model recorded in a checkpoint. Returns (model, config).
    A checkpoint whose configuration is invalid, or whose parameters do
    not fit the model it describes, raises CheckpointError."""
    meta, state = load_checkpoint(checkpoint_path)
    if not isinstance(meta.get("config"), dict):
        raise CheckpointError(f"checkpoint {checkpoint_path} records no run configuration")
    try:
        cfg = RunConfig.from_dict(meta["config"])
    except ConfigError as exc:
        raise CheckpointError(
            f"checkpoint {checkpoint_path} records an invalid run configuration: {exc}") from exc
    model = RelationModel(cfg, np.random.default_rng([cfg.seed, 0]))
    try:
        model.registry.load_state_dict(state)
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {checkpoint_path} does not fit its configuration: {exc}") from exc
    return model, cfg


def load_split(cfg: RunConfig, data_dir: str, split: str) -> Dataset:
    """Load a split of a dataset directory; raises DatasetError when the
    file's meta names another split (whose feature stream it would read),
    and ConfigError when its class or predicate count differs from the
    model's config."""
    path = os.path.join(data_dir, f"{split}.json")
    ds = load_dataset(path)
    if ds.meta["split"] != split:
        raise DatasetError(f"{path} holds the {ds.meta['split']!r} split, not {split!r}")
    resolve_config(cfg, ds)
    return ds


def check_ks(ks) -> None:
    """Every K must be a positive candidate budget, each given once."""
    if any(k < 1 for k in ks):
        raise ValueError(f"every K must be >= 1, got {list(ks)}")
    if len(set(ks)) != len(ks):
        raise ValueError(f"every K must be given once, got {list(ks)}")


def evaluate_dataset(model: RelationModel, ds: Dataset, ks=DEFAULT_KS,
                     graph_constraint: bool = False) -> list:
    """Metric rows for one split: recall@K and mean recall@K over all
    ground truth and over the zero-shot subset, plus per-predicate
    recalls. Rows follow the metrics CSV column layout."""
    check_ks(ks)
    cfg = model.config
    signatures = class_signatures(ds.seed, cfg.C, cfg.d)
    split = ds.meta["split"]
    recalls = {k: [] for k in ks}
    zs_recalls = {k: [] for k in ks}
    per_pred = {k: [] for k in ks}
    zs_per_pred = {k: [] for k in ks}
    for scene in ds.scenes:
        volume = scene_volume(ds.seed, scene, signatures, cfg.feature_noise_std)
        with no_grad():
            output = model.forward(scene, volume)
        ranked = ranked_triplets(output.prediction.scores, graph_constraint=graph_constraint)
        classes = [e.class_label for e in scene.entities]
        zs_gt = zero_shot_filter(scene.triplets, classes, ds.seen_triples)
        for k in ks:
            recalls[k].append(recall_at_k(ranked, scene.triplets, k))
            per_pred[k].append(per_predicate_recall_at_k(ranked, scene.triplets, k))
            if zs_gt:
                zs_recalls[k].append(recall_at_k(ranked, zs_gt, k))
                zs_per_pred[k].append(per_predicate_recall_at_k(ranked, zs_gt, k))

    rows = []
    for k in ks:
        rows.append((split, "predcls", "recall", k, None, aggregate_recall(recalls[k])))
        rows.append((split, "predcls", "mean_recall", k, None,
                     aggregate_mean_recall(per_pred[k], cfg.P)))
        rows.append((split, "predcls", "zs_recall", k, None, aggregate_recall(zs_recalls[k])))
        rows.append((split, "predcls", "zs_mean_recall", k, None,
                     aggregate_mean_recall(zs_per_pred[k], cfg.P)))
    for k in ks:
        for p, value in per_predicate_mean(per_pred[k], cfg.P).items():
            rows.append((split, "predcls", "predicate_recall", k, p, float(value)))
    return rows


def evaluate(checkpoint_path: str, data_dir: str, split: str = "test", ks=DEFAULT_KS,
             graph_constraint: bool = False, out_csv: str | None = None) -> list:
    check_ks(ks)
    model, cfg = load_model(checkpoint_path)
    ds = load_split(cfg, data_dir, split)
    rows = evaluate_dataset(model, ds, ks=ks, graph_constraint=graph_constraint)
    if out_csv:
        write_metrics_csv(out_csv, rows)
    return rows
