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
    """Parameters of at least _CHUNK values are stepped one by one, over
    chunks of their flattened values. The smaller ones are stepped in
    groups, one per learning-rate multiplier: a group's values and moments
    live in flat arenas, each parameter's storage being a view into the
    value arena, and a step gathers the gradients of a pack of whole
    parameters, no longer than the scratch buffers, and updates the pack
    at once. Packs are filled first-fit-decreasing by size, so few packs
    hold a group."""

    def __init__(self, registry: ParameterRegistry, lr: float, weight_decay: float):
        self.params: list[Parameter] = registry.parameters()
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.t = 0
        width = min(_CHUNK, max((p.data.size for p in self.params), default=0))
        # Two scratch buffers, each a chunk long or as long as the largest
        # parameter if that is shorter. A pack gathers its gradients into
        # the second, which then serves as scratch.
        self._a, self._b = np.empty((2, width))
        # Per large parameter, one entry per chunk: the span and views of
        # the moments m and v over it.
        self._large = []
        groups: dict[float, list[Parameter]] = {}
        for p in self.params:
            if p.data.size < _CHUNK:
                groups.setdefault(p.lr_mult, []).append(p)
                continue
            m, v = np.zeros(p.data.size), np.zeros(p.data.size)
            self._large.append((p, [(slice(lo, lo + _CHUNK), m[lo:lo + _CHUNK], v[lo:lo + _CHUNK])
                                    for lo in range(0, p.data.size, _CHUNK)]))
        # Per group, its multiplier and its packs: the pack's members with
        # their offsets into it, and views of the values and moments. The
        # packs lie one after another in the group's arena.
        self._groups = []
        for lr_mult, members in groups.items():
            values = np.empty(sum(p.data.size for p in members))
            m, v = np.zeros(values.size), np.zeros(values.size)
            packs, hi = [], 0
            for fill in _first_fit_decreasing(members, width):
                pack, lo = [], hi
                for p in fill:
                    view = values[hi:hi + p.data.size].reshape(p.data.shape)
                    np.copyto(view, p.data)
                    p.tensor.data = view
                    pack.append((p, hi - lo, hi + p.data.size - lo))
                    hi += p.data.size
                packs.append((pack, values[lo:hi], m[lo:hi], v[lo:hi]))
            self._groups.append((lr_mult, packs))

    def step(self, lr_scale: float = 1.0) -> str | None:
        """Apply one update in place. ``lr_scale`` multiplies the base rate,
        on top of each parameter's own multiplier. A parameter without a
        gradient is left alone: no moment decay and no weight decay.

        Returns the name of the first parameter, in registry order, whose
        updated values are not finite, or None."""
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        rate = self.lr * lr_scale
        a, b = self._a, self._b
        # The sum of squares of the updated values is finite unless some
        # value is NaN or infinite, or the sum overflows; only then is
        # every parameter looked at.
        squares = 0.0
        for p, chunks in self._large:
            g = p.tensor.grad
            if g is None:
                continue
            w = p.data.reshape(-1, copy=False)
            g = g.ravel()  # a copy only for a non-contiguous gradient
            step_lr = rate * p.lr_mult
            for span, m, v in chunks:
                n = m.size
                squares += _update(w[span], g[span], m, v, a[:n], b[:n],
                                   step_lr, step_lr * self.weight_decay, bc1, bc2)
        for lr_mult, packs in self._groups:
            step_lr = rate * lr_mult
            for pack, values, m, v in packs:
                for lo, hi, grads in _runs(pack):
                    n = hi - lo
                    gc = np.concatenate(grads, axis=None, out=b[:n])
                    squares += _update(values[lo:hi], gc, m[lo:hi], v[lo:hi], a[:n], gc,
                                       step_lr, step_lr * self.weight_decay, bc1, bc2)
        if math.isfinite(squares):
            return None
        return next((p.name for p in self.params
                     if p.tensor.grad is not None and not np.isfinite(p.data).all()), None)


def _first_fit_decreasing(members: list, width: int) -> list:
    """The members split into packs of at most ``width`` values: each in
    turn, largest first (registry order among equals), goes into the
    first pack with room for it, or opens a new one."""
    packs, room = [], []
    for p in sorted(members, key=lambda p: -p.data.size):
        i = next((i for i, free in enumerate(room) if free >= p.data.size), len(packs))
        if i == len(packs):
            packs.append([])
            room.append(width)
        packs[i].append(p)
        room[i] -= p.data.size
    return packs


def _runs(pack: list):
    """(start, end, gradients) of each run of consecutive pack members
    that have a gradient: the whole pack when every member has one."""
    run: list = []
    for p, lo, hi in pack:
        g = p.tensor.grad
        if g is None:
            if run:
                yield start, end, run
                run = []
            continue
        if not run:
            start = lo
        run.append(g)
        end = hi
    if run:
        yield start, end, run


def _update(w, g, m, v, a, b, step_lr: float, decay: float, bc1: float, bc2: float) -> float:
    """One AdamW update of the values w in place, given their gradient g
    and moments m and v, with a and b as scratch; b may be g itself, which
    is last read before b is first written. Returns the sum of squares of
    the updated values.

    The operations and their order are those of
      m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
      w = w - step_lr*((m/bc1) / (sqrt(v/bc2) + eps)) - (step_lr*wd)*w
    with ``out`` passed positionally: on desk-sized chunks the keyword
    costs a noticeable share of each call."""
    np.multiply(m, BETA1, m)
    np.multiply(g, 1.0 - BETA1, a)
    np.add(m, a, m)
    np.multiply(v, BETA2, v)
    np.multiply(g, 1.0 - BETA2, a)
    np.multiply(a, g, a)
    np.add(v, a, v)
    np.divide(v, bc2, a)
    np.sqrt(a, a)
    np.add(a, EPS, a)
    np.divide(m, bc1, b)
    np.divide(b, a, b)
    np.multiply(b, step_lr, b)
    np.subtract(w, b, b)
    np.multiply(w, decay, a)
    np.subtract(b, a, w)
    return float(np.dot(w, w))


def lr_scale_at(iteration: int, total_iterations: int) -> float:
    """Step decay: multiply the rate by LR_DROP_FACTOR for the last
    (1 - LR_DROP_FRACTION) of training."""
    if total_iterations <= 0:
        raise ValueError("total_iterations must be positive")
    return LR_DROP_FACTOR if iteration >= LR_DROP_FRACTION * total_iterations else 1.0
