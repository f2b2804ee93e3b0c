"""Finite-difference verification of tape gradients."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, no_grad


class GradientCheckError(RuntimeError):
    """A finite-difference probe produced a non-finite value."""


# Step of the central differences.
EPS = 1e-5


def check_parameter_gradients(loss_fn, tensor: Tensor, coords=None) -> float:
    """Compare tape gradients of the scalar ``loss_fn()`` with respect to
    ``tensor`` against central differences at its current data.

    ``loss_fn`` takes no arguments and must rebuild the loss from the
    tensor's current data, so the tensor can be a leaf that other code
    holds references to (a registered parameter). Returns the maximum
    relative error over checked coordinates, where the relative error uses
    denominator max(|analytic|, |numeric|, 1e-8). ``loss_fn`` must be
    deterministic; pass pinned noise through a closure. ``coords``
    optionally restricts the probe to a subset of flat indices.
    """
    tensor.grad = None
    out = loss_fn()
    if out.data.size != 1:
        raise ValueError("gradient check requires a scalar loss")
    if not np.isfinite(out.data).all():
        raise GradientCheckError("non-finite value at the expansion point")
    out.backward()
    analytic = (np.zeros_like(tensor.data) if tensor.grad is None else tensor.grad).reshape(-1)

    flat = tensor.data.reshape(-1)
    indices = range(flat.size) if coords is None else coords
    worst = 0.0
    with no_grad():
        for i in indices:
            orig = flat[i]
            flat[i] = orig + EPS
            hi = float(loss_fn().data)
            flat[i] = orig - EPS
            lo = float(loss_fn().data)
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise GradientCheckError(f"non-finite value at coordinate {i}")
            numeric = (hi - lo) / (2.0 * EPS)
            denom = max(abs(analytic[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst


def check_gradients(fn, x: Tensor) -> float:
    """Like check_parameter_gradients over every coordinate, for a
    scalar-valued ``fn(x)``: the probe runs on a gradient-requiring copy
    of ``x``, so ``x`` is never modified."""
    leaf = Tensor(np.array(x.data, copy=True), requires_grad=True)
    return check_parameter_gradients(lambda: fn(leaf), leaf)
