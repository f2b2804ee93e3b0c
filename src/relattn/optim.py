"""AdamW optimizer with decoupled weight decay (Loshchilov & Hutter, 2019)."""

from __future__ import annotations

import math

import numpy as np

from .params import Parameter, ParameterRegistry

# Elements per pass of the step (256 KB of float64). The moments, the
# weights, the gradient and both scratch buffers of one chunk stay in
# cache while every operation of the update runs over it.
_CHUNK = 32_768

# The moment decay rates and the denominator's offset of every step.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

# `lr_scale_at` drops the rate by LR_DROP_FACTOR from LR_DROP_FRACTION of
# the run on.
LR_DROP_FRACTION, LR_DROP_FACTOR = 0.8, 0.1


class AdamW:
    def __init__(self, registry: ParameterRegistry, lr: float, weight_decay: float):
        self.params: list[Parameter] = registry.parameters()
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.t = 0
        largest = max((p.data.size for p in self.params), default=0)
        a, b = np.empty((2, min(_CHUNK, largest)))
        # Per parameter, one entry per chunk of its flattened values: the
        # span, views of the moments m and v over it, and the two scratch
        # buffers cut to its length.
        self._chunks = []
        for p in self.params:
            m, v = np.zeros(p.data.size), np.zeros(p.data.size)
            chunks = []
            for lo in range(0, p.data.size, _CHUNK):
                hi = min(lo + _CHUNK, p.data.size)
                chunks.append((slice(lo, hi), m[lo:hi], v[lo:hi], a[: hi - lo], b[: hi - lo]))
            self._chunks.append(chunks)

    def step(self, lr_scale: float = 1.0) -> str | None:
        """Apply one update in place. ``lr_scale`` multiplies the base rate,
        on top of each parameter's own multiplier. A parameter without a
        gradient is left alone: no moment decay and no weight decay.

        Returns the name of the first parameter whose updated values are
        not finite, or None."""
        self.t += 1
        b1, b2, eps = BETA1, BETA2, EPS
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        first_bad = None
        for p, chunks in zip(self.params, self._chunks):
            g = p.tensor.grad
            if g is None:
                continue
            w = p.data.reshape(-1, copy=False)
            g = g.ravel()  # a copy only for a non-contiguous gradient
            step_lr = self.lr * lr_scale * p.lr_mult
            decay = step_lr * self.weight_decay
            squares = 0.0
            for span, m, v, a, b in chunks:
                wc, gc = w[span], g[span]
                # The operations and their order are those of
                #   m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
                #   w = w - step_lr*((m/bc1) / (sqrt(v/bc2) + eps)) - (step_lr*wd)*w
                # with ``out`` passed positionally: on desk-sized chunks the
                # keyword costs a noticeable share of each call.
                np.multiply(m, b1, m)
                np.multiply(gc, 1.0 - b1, a)
                np.add(m, a, m)
                np.multiply(v, b2, v)
                np.multiply(gc, 1.0 - b2, a)
                np.multiply(a, gc, a)
                np.add(v, a, v)
                np.divide(v, bc2, a)
                np.sqrt(a, a)
                np.add(a, eps, a)
                np.divide(m, bc1, b)
                np.divide(b, a, b)
                np.multiply(b, step_lr, b)
                np.subtract(wc, b, b)
                np.multiply(wc, decay, a)
                np.subtract(b, a, wc)
                squares += float(np.dot(wc, wc))
            # The sum of squares is finite unless some value is NaN or
            # infinite, or the sum overflows; only then is every value
            # looked at.
            if first_bad is None and not math.isfinite(squares) and not np.isfinite(w).all():
                first_bad = p.name
        return first_bad


def lr_scale_at(iteration: int, total_iterations: int) -> float:
    """Step decay: multiply the rate by LR_DROP_FACTOR for the last
    (1 - LR_DROP_FRACTION) of training."""
    if total_iterations <= 0:
        raise ValueError("total_iterations must be positive")
    return LR_DROP_FACTOR if iteration >= LR_DROP_FRACTION * total_iterations else 1.0
