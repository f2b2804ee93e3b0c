"""Multi-scale feature volumes and positional embeddings.

Volumes are 5 x H x W x d: five scale levels over a grid at 1/8 of the
image resolution. Synthetic appearance features place one Gaussian blob
per entity on its scale level; positional embeddings are fixed 2-d
sinusoids shared across levels plus a learnable per-level embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .data import SCALE_LEVELS, SceneSample, grid_shape, scene_feature_rng
from .tensor import Tensor

_PE_CACHE: dict = {}


def sinusoidal_grid(H: int, W: int, d: int) -> np.ndarray:
    """H x W x d sinusoidal position code: the first d/2 channels encode x,
    the rest y, as interleaved sin/cos pairs with geometric wavelengths."""
    if d % 4 != 0:
        raise ConfigError(f"positional channels need d divisible by 4, got {d}")
    key = (H, W, d)
    cached = _PE_CACHE.get(key)
    if cached is not None:
        return cached
    half = d // 2
    pairs = half // 2
    freq = 1.0 / (10000.0 ** (2.0 * np.arange(pairs) / half))

    def encode(pos: np.ndarray) -> np.ndarray:
        ang = pos[:, None] * freq[None, :]
        out = np.empty((pos.size, half), dtype=np.float64)
        out[:, 0::2] = np.sin(ang)
        out[:, 1::2] = np.cos(ang)
        return out

    x_emb = encode(np.arange(W, dtype=np.float64))  # W x half
    y_emb = encode(np.arange(H, dtype=np.float64))  # H x half
    grid = np.empty((H, W, d), dtype=np.float64)
    grid[:, :, :half] = x_emb[None, :, :]
    grid[:, :, half:] = y_emb[:, None, :]
    grid.setflags(write=False)
    _PE_CACHE[key] = grid
    return grid


@dataclass(frozen=True)
class PositionalEmbeddings:
    """The positional code of one scene in factored form.

    The code at (x, y, s) is the sinusoid at (x, y) plus the scale
    embedding at level s. It is never built as a 5 x H x W x d volume:
    `point_sample` is linear in the volume and the sinusoid is the same
    on every level, so sampling features plus code at c equals
    `point_sample(folded, c) + level_weights(c, 5) @ scale`. Nor is the
    scale part formed per sample: GCA takes the level weights and the
    table apart (see `GcaLayer`).
    """

    folded: np.ndarray  # 5 x H x W x d feature volume plus the sinusoid grid
    grid: np.ndarray    # 1 x H x W x d sinusoid grid
    scale: Tensor       # 5 x d learnable scale embeddings


def build_positional_embeddings(volume: np.ndarray, scale_embeds: Tensor) -> PositionalEmbeddings:
    """Factored positional code for a 5 x H x W x d feature volume (an
    array: data, not a tape node), with the cached sinusoid grid folded
    into the volume once per forward."""
    if volume.ndim != 4 or volume.shape[0] != SCALE_LEVELS:
        raise ConfigError(f"feature volume must be {SCALE_LEVELS} x H x W x d, got {volume.shape}")
    _, H, W, d = volume.shape
    if scale_embeds.shape != (SCALE_LEVELS, d):
        raise ConfigError(
            f"scale embeddings must be {(SCALE_LEVELS, d)}, got {scale_embeds.shape}")
    grid = sinusoidal_grid(H, W, d)
    return PositionalEmbeddings(folded=volume + grid, grid=grid[None], scale=scale_embeds)


def class_signatures(dataset_seed: int, C: int, d: int) -> np.ndarray:
    """Deterministic per-class appearance vectors shared by train and eval."""
    rng = np.random.default_rng(np.random.SeedSequence([dataset_seed, 9000]))
    return rng.normal(0.0, 1.0, size=(C, d))


def scene_volume(dataset_seed: int, scene: SceneSample, signatures: np.ndarray,
                 noise_std: float) -> np.ndarray:
    """Feature volume for a stored scene under its canonical noise stream,
    identical between training and evaluation."""
    rng = scene_feature_rng(dataset_seed, scene.split, scene.index)
    return synthesize_features(scene, signatures, noise_std, rng)


def synthesize_features(scene: SceneSample, signatures: np.ndarray, noise_std: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Render a 5 x H x W x d volume for a scene.

    Each entity adds signature * exp(-r^2 / (2 ext^2)) on its scale level,
    where r is the grid distance from the node nearest the box center and
    ext is a quarter of the box diagonal in grid units (floored so a tiny
    box still covers its peak node). The peak node weight is exactly 1.
    i.i.d. Gaussian noise of the given std is added everywhere.
    """
    H, W = grid_shape(scene.image_size)
    d = signatures.shape[1]
    if noise_std > 0:
        V = rng.normal(0.0, noise_std, size=(SCALE_LEVELS, H, W, d))
    else:
        V = np.zeros((SCALE_LEVELS, H, W, d), dtype=np.float64)
    ys = np.arange(H, dtype=np.float64)[:, None]
    xs = np.arange(W, dtype=np.float64)[None, :]
    for ent in scene.entities:
        x0, y0, x1, y1 = ent.box
        cx = round((x0 + x1) / 2.0 * (W - 1))
        cy = round((y0 + y1) / 2.0 * (H - 1))
        diag = math.hypot((x1 - x0) * (W - 1), (y1 - y0) * (H - 1))
        ext = max(0.25 * diag, 0.75)
        weight = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * ext * ext))
        V[ent.scale_level] += weight[:, :, None] * signatures[ent.class_label]
    return V
