"""Stochastic representative-point prediction.

Each entity representation predicts a 3-d Gaussian over coordinate
offsets (x, y, scale). Training draws m reparameterized samples so
gradients reach both the mean and the spread; inference replaces draws
with a deterministic lattice around the mean. Offsets accumulate over
decoder layers onto the initial center points, clamped to the unit cube,
so lattice points past a border land on the same coordinates;
`distinct_lattice_points` finds each distinct point once and counts its
copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ParameterRegistry, xavier
from .tensor import Tensor, add, clamp, exp, mul, relu, reshape, transpose

SIGMA_MIN = 1e-4
SIGMA_MAX = 1.0
LOG_STD_INIT = -1.5


@dataclass(frozen=True)
class TrainDraw:
    """One training forward's generator, sample points per state and
    Gumbel-softmax temperature; a forward without one runs inference."""
    rng: np.random.Generator
    m: int
    tau: float


@dataclass
class OffsetDistribution:
    mu: Tensor     # n x K x 3
    sigma: Tensor  # n x K x 3, in [SIGMA_MIN, SIGMA_MAX]


class GroupOffsetPredictor:
    """Two-layer perceptron applied per representation group: group k sees
    only slice k of the n x K x d query (state plus box embedding) and emits
    3 offset means and 3 log-stds."""

    def __init__(self, registry: ParameterRegistry, prefix: str, d: int, K: int,
                 rng: np.random.Generator, lr_mult: float = 1.0):
        self.w1 = registry.add(f"{prefix}.w1", xavier(rng, d, d, shape=(K, d, d)), lr_mult=lr_mult)
        self.b1 = registry.add(f"{prefix}.b1", np.zeros((K, 1, d)), lr_mult=lr_mult)
        # Offsets should start small relative to the unit cube.
        self.w2 = registry.add(f"{prefix}.w2", 0.1 * xavier(rng, d, 6, shape=(K, d, 6)),
                               lr_mult=lr_mult)
        bias = np.zeros((K, 1, 6))
        bias[:, :, 3:] = LOG_STD_INIT
        self.b2 = registry.add(f"{prefix}.b2", bias, lr_mult=lr_mult)

    def __call__(self, query: Tensor) -> OffsetDistribution:
        x = transpose(query, (1, 0, 2))  # K x n x d
        hidden = relu(add(x @ self.w1, self.b1))
        out = add(hidden @ self.w2, self.b2)  # K x n x 6
        out = transpose(out, (1, 0, 2))  # n x K x 6
        mu = out[:, :, :3]
        sigma = clamp(exp(out[:, :, 3:]), SIGMA_MIN, SIGMA_MAX)
        return OffsetDistribution(mu=mu, sigma=sigma)


def draw_offsets(dist: OffsetDistribution, m: int, rng: np.random.Generator) -> Tensor:
    """m reparameterized offset samples per (entity, group): mu + sigma * eps
    with eps standard normal, drawn from `rng`. Returns n x K x m x 3."""
    if m < 1:
        raise ValueError(f"need at least one sample, got m={m}")
    n, K, _ = dist.mu.shape
    eps = rng.standard_normal((n, K, m, 3))
    mu = reshape(dist.mu, (n, K, 1, 3))
    sigma = reshape(dist.sigma, (n, K, 1, 3))
    return add(mu, mul(sigma, Tensor(eps)))


def grid_steps(range_mult: int, step_mult: int) -> np.ndarray:
    """Integer lattice from -range_mult to +range_mult with stride step_mult."""
    if range_mult < 0 or step_mult < 1:
        raise ValueError("need range_mult >= 0 and step_mult >= 1")
    return np.arange(-range_mult, range_mult + 1, step_mult, dtype=np.float64)


def inference_grid_offsets(dist: OffsetDistribution, range_mult: int, step_mult: int) -> Tensor:
    """Deterministic offsets on the per-dimension lattice
    {mu_dim + j * sigma_dim : j in grid_steps}: the Cartesian product over
    the three dimensions, 343 points per (entity, group) at range_mult 3
    and step_mult 1."""
    steps = grid_steps(range_mult, step_mult)
    jx, jy, js = np.meshgrid(steps, steps, steps, indexing="ij")
    lattice = np.stack([jx.ravel(), jy.ravel(), js.ravel()], axis=-1)  # m' x 3
    n, K, _ = dist.mu.shape
    mu = reshape(dist.mu, (n, K, 1, 3))
    sigma = reshape(dist.sigma, (n, K, 1, 3))
    return add(mu, mul(sigma, Tensor(lattice[None, None, :, :])))


def accumulate_points(prev: Tensor, delta: Tensor) -> Tensor:
    """One accumulation step: add offsets to the previous reference points
    and clamp every coordinate back into the unit cube. This is the one
    border policy: `point_sample` and `level_weights` refuse points
    outside the cube."""
    return clamp(add(prev, delta), 0.0, 1.0)


@dataclass
class LatticePoints:
    """The distinct points of a lattice and how often each occurs, with no
    padding: the N (entity, group) groups in order, each one contiguous
    segment ``points[starts[g]:starts[g + 1]]`` of its distinct points in
    lattice order."""
    points: np.ndarray      # M x 3 distinct points, group by group
    log_counts: np.ndarray  # M log of each point's number of copies
    starts: np.ndarray      # N + 1 row offsets: group g is rows starts[g] to starts[g + 1]


def _run_lengths(values: np.ndarray) -> np.ndarray:
    """The length of each run of equal values along the rows of an N x T
    array, at the run's first position, and 0 elsewhere."""
    N, T = values.shape
    first = np.ones((N, T), dtype=bool)
    first[:, 1:] = values[:, 1:] != values[:, :-1]
    # Position 0 of every row starts a run, so each run ends where the
    # next one in flat order starts.
    starts = np.flatnonzero(first)
    lengths = np.zeros(N * T, dtype=np.intp)
    lengths[starts] = np.diff(starts, append=N * T)
    return lengths.reshape(N, T)


def distinct_lattice_points(points: np.ndarray) -> LatticePoints:
    """The distinct points of n x K x m x 3 lattice points, as
    `inference_grid_offsets` and `accumulate_points` lay them out (then
    snapped or not): m = side^3 points, side per axis. An m that is not a
    cube raises ValueError. Returns the M distinct points of the N = n K
    groups, each group one contiguous segment that starts with its
    lattice point 0 (which starts a run on every axis).

    Each coordinate of a point depends only on its own lattice step, and
    is non-decreasing in it: sigma > 0, and the clamp, the sum over
    layers and the scale snap are all monotone. So equal values along an
    axis form runs, the distinct points are the product of the three
    axes' runs, and a point's number of copies is the product of their
    lengths. No sort over the points is needed. (Were a value to recur
    after another, its runs would stand as separate points with their own
    counts, which attention over them would weigh the same.)"""
    total = points.shape[-2]
    side = round(total ** (1 / 3))
    if side ** 3 != total:
        raise ValueError(f"{total} lattice points per group is not a cube")
    N = math.prod(points.shape[:-2])
    grid = points.reshape(N, side, side, side, 3)
    lx, ly, ls = (_run_lengths(v) for v in
                  (grid[:, :, 0, 0, 0], grid[:, 0, :, 0, 1], grid[:, 0, 0, :, 2]))
    counts = (lx[:, :, None, None] * ly[:, None, :, None] * ls[:, None, None, :]).reshape(N, total)
    distinct = counts > 0
    starts = np.zeros(N + 1, dtype=np.intp)
    np.cumsum(distinct.sum(axis=1), out=starts[1:])
    # Boolean indexing walks the groups in order, each in lattice order.
    return LatticePoints(points=grid.reshape(N, total, 3)[distinct],
                         log_counts=np.log(counts[distinct]), starts=starts)
