"""Training harness: one scene per iteration, AdamW, optional logit
adjustment, CSV logging, and a binary checkpoint at the end."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .checkpoint import save_checkpoint
from .config import ConfigError, RunConfig
from .data import Dataset, SceneSample, load_dataset
from .evalkit import write_csv
from .features import class_signatures, scene_volume
from .losses import GroundTruthRelations, focal_bce, margin_ranking_loss, mask_loss, \
    predicate_gammas, rep_point_margin_loss
from .model import ForwardOutput, RelationModel
from .optim import AdamW, lr_scale_at
from .pgla import PglaState, adjust_logits, compute_wb, update_confusion, \
    update_performance
from .relation_head import annealing_temperature
from .sampler import TrainDraw
from .tensor import add, mul


class TrainingError(RuntimeError):
    """Training hit a non-finite value or another unrecoverable state."""


@dataclass
class TrainResult:
    checkpoint_path: str
    log_path: str
    iterations: int
    final_losses: dict


LOG_COLUMNS = ("iteration", "focal_predicate", "mask", "margin_rank",
               "rep_point_margin", "total")
TRACE_COLUMNS = ("iteration", "predicate", "r", "W", "B")


def resolve_config(cfg: RunConfig, ds: Dataset) -> RunConfig:
    """Fill C and P from the dataset, or verify them when set."""
    for name in ("C", "P"):
        have, want = getattr(cfg, name), getattr(ds, name)
        if have is None:
            setattr(cfg, name, want)
        elif have != want:
            raise ConfigError(f"config {name}={have} but dataset has {name}={want}")
    cfg.validate()
    return cfg


class VolumeCache:
    """Per-scene feature volumes, recomputed deterministically and cached
    up to BUDGET_BYTES."""

    BUDGET_BYTES = 256_000_000

    def __init__(self, ds: Dataset, cfg: RunConfig):
        self.ds = ds
        self.cfg = cfg
        self.signatures = class_signatures(ds.seed, cfg.C, cfg.d)
        self._cache: dict = {}

    def volume(self, scene: SceneSample) -> np.ndarray:
        key = (scene.split, scene.index)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        vol = scene_volume(self.ds.seed, scene, self.signatures,
                           self.cfg.feature_noise_std)
        used = sum(v.nbytes for v in self._cache.values())
        if used + vol.nbytes <= self.BUDGET_BYTES:
            self._cache[key] = vol
        return vol


def training_loss(output: ForwardOutput, scene: SceneSample, cfg: RunConfig,
                  gammas: np.ndarray, pgla_state: PglaState | None,
                  rng: np.random.Generator):
    """One scene's total loss. Returns (total tensor, per-term floats,
    updated adjustment state)."""
    gt = GroundTruthRelations.from_triplets(scene.triplets, len(scene.entities), cfg.P)
    boxes = np.array([e.box for e in scene.entities], dtype=np.float64)
    pred = output.prediction
    if pgla_state is not None:
        pgla_state = update_performance(pgla_state, pred.scores, gt)
        pgla_state = update_confusion(pgla_state, pred.predicate_logits.data, gt)
        W, B = compute_wb(pgla_state)
        logits = adjust_logits(pred.predicate_logits, gt, W, B, pgla_state.confusion)
    else:
        logits = pred.predicate_logits

    focal = focal_bce(logits, gt, cfg.alpha, gammas)
    mask = mask_loss(pred.relatedness_logits, gt, cfg.alpha, cfg.gamma_base,
                     cfg.neg_ratio, rng)
    margin = margin_ranking_loss(logits, gt)
    rep = rep_point_margin_loss(output.decode.means[0] + output.decode.means[1],
                                scene.triplets, boxes)
    w = cfg.loss_weights
    total = add(add(mul(focal, w["focal"]), mul(mask, w["mask"])),
                add(mul(margin, w["margin"]), mul(rep, w["rep_point"])))
    # Keyed by the training log's loss columns, in their order.
    breakdown = {name: float(term.data)
                 for name, term in zip(LOG_COLUMNS[1:], (focal, mask, margin, rep, total))}
    return total, breakdown, pgla_state


def train(cfg: RunConfig, data_dir: str, out_dir: str, trace: bool = False) -> TrainResult:
    ds = load_dataset(os.path.join(data_dir, "train.json"))
    cfg = resolve_config(cfg, ds)
    scenes = [s for s in ds.scenes if s.triplets]
    if not scenes:
        raise TrainingError("training split has no scenes with relations")
    os.makedirs(out_dir, exist_ok=True)

    model_rng = np.random.default_rng([cfg.seed, 0])
    run_rng = np.random.default_rng([cfg.seed, 1])
    model = RelationModel(cfg, model_rng)
    opt = AdamW(model.registry, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    gammas = predicate_gammas(ds.priors, cfg.gamma_base)
    pgla_state = PglaState.create(ds.priors, lam=cfg.lam, metric=cfg.pgla_metric) \
        if cfg.pgla else None
    volumes = VolumeCache(ds, cfg)

    log_rows: list = []
    trace_rows: list = []
    order: list = []
    breakdown = {}
    for it in range(cfg.iterations):
        if not order:
            order = list(run_rng.permutation(len(scenes)))
        scene = scenes[order.pop()]
        draw = TrainDraw(run_rng, m=int(run_rng.integers(cfg.points_min, cfg.points_max + 1)),
                         tau=annealing_temperature(it, cfg.iterations))
        output = model.forward(scene, volumes.volume(scene), draw)
        total, breakdown, pgla_state = training_loss(output, scene, cfg, gammas, pgla_state,
                                                     run_rng)
        if not np.isfinite(breakdown["total"]):
            raise TrainingError(f"non-finite loss at iteration {it}: {breakdown}")
        model.registry.zero_grad()
        total.backward()
        bad = opt.step(lr_scale=lr_scale_at(it, cfg.iterations))
        # Free this iteration's tape before the next forward builds one.
        del output, total
        if bad is not None:
            raise TrainingError(f"non-finite values in parameter {bad} after the step"
                                f" at iteration {it}")
        log_rows.append((it, *breakdown.values()))
        if trace and pgla_state is not None:
            W, B = compute_wb(pgla_state)
            for p in range(cfg.P):
                trace_rows.append((it, p, pgla_state.r[p], W[p], B[p]))

    ckpt_path = os.path.join(out_dir, "model.ckpt")
    save_checkpoint(ckpt_path, model.registry.arrays(), meta={"config": cfg.to_dict()})
    log_path = os.path.join(out_dir, "train_log.csv")
    write_csv(log_path, LOG_COLUMNS, log_rows)
    if trace:
        write_csv(os.path.join(out_dir, "pgla_trace.csv"), TRACE_COLUMNS, trace_rows)
    return TrainResult(checkpoint_path=ckpt_path, log_path=log_path,
                       iterations=cfg.iterations, final_losses=breakdown)
