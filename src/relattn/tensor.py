"""Dense tensors with reverse-mode automatic differentiation.

A small eager tape: every differentiable operation records its parent
nodes and a backward closure on the output. ``Tensor.backward()`` walks
the graph in reverse topological order and accumulates gradients into
``.grad``. Storage is numpy float64.
"""

from __future__ import annotations

import contextlib

import numpy as np


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block. Used for inference and
    finite-difference probes where the tape would only cost memory."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the shape of the operand."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents = ()
        self._backward = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- autodiff ------------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        # The first gradient is stored, not copied: it may be shared with
        # other nodes, so no code writes into a ``.grad`` in place.
        if self.grad is None:
            self.grad = g if type(g) is np.ndarray and g.dtype == np.float64 \
                else np.asarray(g, dtype=np.float64)
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        """Backpropagate from this node, which must hold a single element."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar output")

        # A depth-first walk in post-order. The stack holds tensors still
        # to visit and, as one-tuples, nodes whose parents have all been
        # pushed; a leaf has no backward, so it is never recorded. The
        # visit order fixes the order in which each gradient's
        # contributions add up.
        topo: list[Tensor] = []
        seen: set[Tensor] = set()
        stack: list = [self]
        while stack:
            node = stack.pop()
            if type(node) is tuple:
                topo.append(node[0])
                continue
            if node in seen:
                continue
            seen.add(node)
            if node._parents:
                stack.append((node,))
                for parent in node._parents:
                    if parent.requires_grad and parent not in seen:
                        stack.append(parent)

        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar --------------------------------------------------

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """The output of an op: recorded on the tape, with its parents and
    backward closure, when some parent requires grad and recording is on.
    Built without `Tensor.__init__`: float64 arrays, which nearly every op
    returns, are taken as they are."""
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray and data.dtype == np.float64 \
        else np.asarray(data, dtype=np.float64)
    out.grad = None
    if _GRAD_ENABLED:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = backward
                return out
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    return out


# -- arithmetic ------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _node(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return _node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Batched matrix product with numpy broadcasting over leading axes."""
    a, b = _coerce(a), _coerce(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul requires >=2-d operands, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _node(data, (a, b), backward)


# -- shape ops ---------------------------------------------------------------


def reshape(a, shape: tuple) -> Tensor:
    a = _coerce(a)
    data = a.data.reshape(shape)
    src_shape = a.data.shape

    def backward(g):
        a._accumulate(g.reshape(src_shape))

    return _node(data, (a,), backward)


def transpose(a, axes: tuple) -> Tensor:
    a = _coerce(a)
    inv = np.argsort(axes)
    data = a.data.transpose(axes)

    def backward(g):
        a._accumulate(g.transpose(inv))

    return _node(data, (a,), backward)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_coerce(t) for t in tensors]
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise DimensionError(str(exc)) from None
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t._accumulate(piece)

    return _node(data, tuple(tensors), backward)


def take(a, idx) -> Tensor:
    """Indexing. Integer-array indices gather along the first axis with
    scatter-add on the backward pass; anything else is basic indexing."""
    a = _coerce(a)
    if isinstance(idx, (list, np.ndarray)) and not isinstance(idx, tuple):
        idx = np.asarray(idx)
        if idx.dtype == bool:
            raise DimensionError("boolean mask indexing is not supported; multiply by a mask instead")
        idx = idx.astype(np.intp)
        data = a.data[idx]

        def backward(g):
            buf = np.zeros_like(a.data)
            np.add.at(buf, idx, g)
            a._accumulate(buf)

        return _node(data, (a,), backward)

    data = a.data[idx]

    def backward_basic(g):
        buf = np.zeros_like(a.data)
        buf[idx] = g
        a._accumulate(buf)

    return _node(data, (a,), backward_basic)


# -- reductions --------------------------------------------------------------


def tsum(a, axis=None) -> Tensor:
    a = _coerce(a)
    data = a.data.sum(axis=axis)
    src_shape = a.data.shape

    def backward(g):
        if axis is not None:
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(ax % len(src_shape) for ax in axes)
            g = g.reshape(tuple(1 if i in axes else s for i, s in enumerate(src_shape)))
        a._accumulate(np.broadcast_to(g, src_shape))

    return _node(data, (a,), backward)


def tmax(a, axis, keepdims=False) -> Tensor:
    """Maximum reduction. Ties split the gradient equally, a valid
    subgradient that keeps the check deterministic."""
    a = _coerce(a)
    data = a.data.max(axis=axis, keepdims=keepdims)
    src_shape = a.data.shape

    def backward(g):
        full = data if keepdims else np.expand_dims(data, axis)
        mask = (a.data == full).astype(a.data.dtype)
        counts = mask.sum(axis=axis, keepdims=True)
        gg = g if keepdims else np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(gg, src_shape) * mask / counts)

    return _node(data, (a,), backward)


# -- elementwise nonlinearities ---------------------------------------------


def exp(a) -> Tensor:
    a = _coerce(a)
    data = np.exp(a.data)

    def backward(g):
        a._accumulate(g * data)

    return _node(data, (a,), backward)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a) -> Tensor:
    a = _coerce(a)
    data = _sigmoid_np(a.data)

    def backward(g):
        a._accumulate(g * data * (1.0 - data))

    return _node(data, (a,), backward)


def relu(a) -> Tensor:
    a = _coerce(a)
    data = np.maximum(a.data, 0.0)

    def backward(g):
        a._accumulate(g * (a.data > 0))

    return _node(data, (a,), backward)


def softplus(a) -> Tensor:
    """log(1 + exp(x)), computed stably for large |x|."""
    a = _coerce(a)
    data = np.logaddexp(0.0, a.data)

    def backward(g):
        a._accumulate(g * _sigmoid_np(a.data))

    return _node(data, (a,), backward)


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes where the input is inside the
    closed interval and is zero outside."""
    a = _coerce(a)
    if lo > hi:
        raise ValueError(f"clamp bounds reversed: [{lo}, {hi}]")
    data = np.clip(a.data, lo, hi)

    def backward(g):
        a._accumulate(g * ((a.data >= lo) & (a.data <= hi)))

    return _node(data, (a,), backward)


# -- fused layers ------------------------------------------------------------


def linear(x, weight, bias) -> Tensor:
    """Affine map over the last axis of a 2-d or wider x: x @ weight + bias,
    as one tape node. Forward and backward run the expressions of
    `add(matmul(x, weight), bias)`, and the parents (x, weight, bias) keep
    that pair's visit order in the backward walk, so values and gradients
    equal the pair's to the bit."""
    x, weight, bias = _coerce(x), _coerce(weight), _coerce(bias)
    if x.ndim < 2:
        raise DimensionError(f"linear input must be 2-d or wider, got {x.shape}")
    if weight.ndim != 2:
        raise DimensionError(f"linear weight must be 2-d, got {weight.shape}")
    if x.data.shape[-1] != weight.data.shape[0]:
        raise DimensionError(
            f"linear input width {x.data.shape[-1]} != weight rows {weight.data.shape[0]}")
    if bias.data.shape != (weight.data.shape[1],):
        raise DimensionError(
            f"linear bias shape {bias.data.shape} != ({weight.data.shape[1]},)")
    data = x.data @ weight.data
    data += bias.data

    def backward(g):
        bias._accumulate(_unbroadcast(g, bias.data.shape))
        x._accumulate(g @ weight.data.T)
        weight._accumulate(_unbroadcast(np.swapaxes(x.data, -1, -2) @ g, weight.data.shape))

    return _node(data, (x, weight, bias), backward)


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax with a fused backward pass."""
    a = _coerce(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    ez = np.exp(shifted)
    data = ez / ez.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        a._accumulate(data * (g - inner))

    return _node(data, (a,), backward)


# Added to the variance before its inverse square root in `layer_norm`.
LAYER_NORM_EPS = 1e-5


def layer_norm(x, gain, shift) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale
    and shift, with a fused backward pass."""
    x, gain, shift = _coerce(x), _coerce(gain), _coerce(shift)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or shift.data.shape != (d,):
        raise DimensionError(
            f"layer_norm gain/shift must have shape ({d},), got {gain.shape} and {shift.shape}")
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * (1.0 / d)
    variance = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / d)
    inv_std = (variance + LAYER_NORM_EPS) ** -0.5
    norm = centered * inv_std
    data = norm * gain.data + shift.data

    def backward(g):
        gain._accumulate(_unbroadcast(g * norm, (d,)))
        shift._accumulate(_unbroadcast(g, (d,)))
        gn = g * gain.data
        x._accumulate(inv_std * (gn - gn.mean(axis=-1, keepdims=True)
                                 - norm * (gn * norm).mean(axis=-1, keepdims=True)))

    return _node(data, (x, gain, shift), backward)


# -- sampling helpers ----------------------------------------------------


def standard_gumbel(rng: np.random.Generator, shape) -> np.ndarray:
    """Draw standard Gumbel noise as -log(-log(u)) with u clipped away
    from {0, 1} so both logs stay finite."""
    u = rng.random(shape)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))


def _straight_through(soft: Tensor, hard_data: np.ndarray) -> Tensor:
    def backward(g):
        soft._accumulate(g)

    return _node(hard_data, (soft,), backward)


def gumbel_softmax(logits, tau: float, rng: np.random.Generator,
                   hard: bool = False) -> Tensor:
    """Sample from softmax((logits + Gumbel noise) / tau) over the last
    axis, with the noise drawn from `rng`.

    With hard=True the output is exactly one-hot at the argmax while the
    gradient is taken from the soft sample (straight-through estimator).
    """
    if tau <= 0:
        raise ValueError(f"gumbel_softmax temperature must be positive, got {tau}")
    logits = _coerce(logits)
    noise = standard_gumbel(rng, logits.data.shape)
    soft = softmax(div(add(logits, Tensor(noise)), tau), axis=-1)
    if not hard:
        return soft
    flat = soft.data.reshape(-1, soft.data.shape[-1])
    hard_data = np.zeros_like(flat)
    hard_data[np.arange(flat.shape[0]), flat.argmax(axis=1)] = 1.0
    return _straight_through(soft, hard_data.reshape(soft.data.shape))


# -- feature volume sampling ---------------------------------------------


def _points(coords: Tensor) -> np.ndarray:
    """The coordinates as an n x 3 array of (x, y, s) points. Raises on a
    last axis other than 3 and on any coordinate outside [0, 1], NaN and
    +-inf included: the samplers have no border policy of their own."""
    if coords.data.shape[-1] != 3:
        raise DimensionError(f"coords must end in 3 (x, y, s), got {coords.shape}")
    pts = coords.data.reshape(-1, 3)
    if pts.size and not (pts.min() >= 0.0 and pts.max() <= 1.0):
        raise DomainError("coords must lie in [0, 1]")
    return pts


def _grid_cells(pts: np.ndarray, sizes: np.ndarray) -> tuple:
    """Lower grid index and fraction of points in [0, 1] on grids of the
    given sizes, one size per column. Each coordinate u maps to the
    continuous index u * (size - 1); the lower index stops at size - 2,
    so a point on the far border has fraction 1."""
    cont = pts * (sizes - 1.0)
    lo = np.minimum(np.floor(cont).astype(np.intp), (sizes - 2).clip(min=0).astype(np.intp))
    return lo, cont - lo


# Elements per block of `point_sample` (256 KB of float64). A block of
# about _BLOCK // d points is gathered and blended corner by corner while
# its output rows and its corner buffer stay in cache.
_BLOCK = 32_768


def point_sample(volume: np.ndarray, coords) -> Tensor:
    """Sample a constant feature volume at fractional 3-d points.

    volume: S x H x W x d numpy array, data rather than a tape node, so
    only the coordinates are differentiated; a `Tensor` raises TypeError
    instead of losing its gradient. coords: [... x 3] points in [0,1]^3
    ordered (x, y, s). x spans the W axis, y the H axis, s the scale
    axis; each coordinate maps to a continuous index u * (size - 1) and
    the eight surrounding corners blend trilinearly. A coordinate outside
    [0,1], NaN and +-inf included, raises DomainError. Returns [... x d]
    features.

    The points are walked in blocks of B = max(2, _BLOCK // d), the last
    block taking a lone remaining point. Each block gathers its eight
    corners one after another through one block-sized buffer, weights
    them and adds them into its rows of the output, in the order of
    summing an 8 x n x d stack over its first axis, without building the
    stack. Every output element sees the same operations in the same
    order whatever the block size, so the result is the same to the bit.
    """
    if not isinstance(volume, np.ndarray):
        raise TypeError(f"volume must be a numpy array, got {type(volume).__name__}")
    if volume.ndim != 4:
        raise DimensionError(f"volume must be S x H x W x d, got {volume.shape}")
    coords = _coerce(coords)
    pts = _points(coords)
    S, H, W, d = volume.shape
    lead = coords.data.shape[:-1]
    n = pts.shape[0]

    lo, frac = _grid_cells(pts, np.array([W, H, S], dtype=np.float64))
    x0, y0, s0 = lo[:, 0], lo[:, 1], lo[:, 2]
    x1 = np.minimum(x0 + 1, W - 1)
    y1 = np.minimum(y0 + 1, H - 1)
    s1 = np.minimum(s0 + 1, S - 1)
    fx, fy, fs = frac[:, 0], frac[:, 1], frac[:, 2]

    corner_lin = []
    corner_w = []
    for ds, sidx in ((0, s0), (1, s1)):
        ws = (1.0 - fs) if ds == 0 else fs
        for dy, yidx in ((0, y0), (1, y1)):
            wy = (1.0 - fy) if dy == 0 else fy
            for dx, xidx in ((0, x0), (1, x1)):
                wx = (1.0 - fx) if dx == 0 else fx
                corner_lin.append((sidx * H + yidx) * W + xidx)
                corner_w.append(ws * wy * wx)
    weights = np.stack(corner_w, axis=0)  # 8 x n
    lin = np.stack(corner_lin, axis=0)  # 8 x n flat voxel indices
    flat = volume.reshape(-1, d)
    # No block holds a single row unless n is 1: given one row, numpy's
    # einsum (coordinate backward) sums a row longer than its 8,192-element
    # buffer in one piece; given more, in buffer-sized pieces.
    rows = max(2, _BLOCK // max(d, 1))
    cuts = [*range(0, n - 1, rows), n] if n > 1 else [0, n]
    blocks = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    width = max(b.stop - b.start for b in blocks)

    # Indices are in range; mode="clip" lets take write into `out` without
    # an intermediate buffer.
    out_flat = np.empty((n, d), dtype=flat.dtype)
    corner = np.empty((width, d), dtype=flat.dtype)
    for b in blocks:
        out_b, corner_b = out_flat[b], corner[: b.stop - b.start]
        np.take(flat, lin[0, b], axis=0, out=out_b, mode="clip")
        out_b *= weights[0, b, None]
        for k in range(1, 8):
            np.take(flat, lin[k, b], axis=0, out=corner_b, mode="clip")
            corner_b *= weights[k, b, None]
            out_b += corner_b
    data = out_flat.reshape(lead + (d,))

    def backward(g):
        # d/du of trilinear interpolation: the corner-difference form
        # along each axis, scaled by (size - 1). The row dot products
        # g . corner are taken per block; each row's sum runs the same way
        # in a block as in one call over all n rows.
        gf = g.reshape(n, d)
        gcorner = np.empty((8, n), dtype=np.result_type(gf, flat))
        buf = np.empty((width, d), dtype=flat.dtype)
        for b in blocks:
            buf_b = buf[: b.stop - b.start]
            for k in range(8):
                np.take(flat, lin[k, b], axis=0, out=buf_b, mode="clip")
                gcorner[k, b] = np.einsum("nd,nd->n", gf[b], buf_b)
        ws0, ws1 = 1.0 - fs, fs
        wy0, wy1 = 1.0 - fy, fy
        wx0, wx1 = 1.0 - fx, fx
        # order: index bit pattern s*4 + y*2 + x
        c000, c001, c010, c011, c100, c101, c110, c111 = gcorner
        d_dx = (ws0 * (wy0 * (c001 - c000) + wy1 * (c011 - c010))
                + ws1 * (wy0 * (c101 - c100) + wy1 * (c111 - c110)))
        d_dy = (ws0 * (wx0 * (c010 - c000) + wx1 * (c011 - c001))
                + ws1 * (wx0 * (c110 - c100) + wx1 * (c111 - c101)))
        d_ds = (wy0 * (wx0 * (c100 - c000) + wx1 * (c101 - c001))
                + wy1 * (wx0 * (c110 - c010) + wx1 * (c111 - c011)))
        gc = np.stack([d_dx * (W - 1), d_dy * (H - 1), d_ds * (S - 1)], axis=-1)
        coords._accumulate(gc.reshape(lead + (3,)))

    return _node(data, (coords,), backward)


def level_weights(coords, levels: int) -> Tensor:
    """Linear-interpolation weights of points over the levels of a scale
    axis.

    coords: [... x 3] points ordered (x, y, s); levels: the number of
    levels S. Only s is read, and it maps as in `point_sample`; every
    coordinate must lie in [0, 1], as there.
    Returns [... x S]: each row holds 1 - f on the lower level and f on
    the next (1 on one level when they coincide), so it sums to one, and
    the row times an S x d table equals `point_sample` of that table
    broadcast over any H x W grid, up to rounding. The gradient reaches
    the s coordinate only; the x and y gradients are zero.
    """
    coords = _coerce(coords)
    if levels < 1:
        raise DimensionError(f"levels must be at least 1, got {levels}")
    lead = coords.data.shape[:-1]
    s = _points(coords)[:, 2:]
    n = s.shape[0]
    lo, frac = _grid_cells(s, np.array([levels], dtype=np.float64))
    s0, fs = lo[:, 0], frac[:, 0]
    s1 = np.minimum(s0 + 1, levels - 1)
    rows = np.arange(n)
    blend = np.zeros((n, levels), dtype=coords.data.dtype)
    blend[rows, s0] += 1.0 - fs
    blend[rows, s1] += fs

    def backward(g):
        gb = g.reshape(n, levels)
        gc = np.zeros((n, 3), dtype=coords.data.dtype)
        gc[:, 2] = (gb[rows, s1] - gb[rows, s0]) * (levels - 1)
        coords._accumulate(gc.reshape(lead + (3,)))

    return _node(blend.reshape(lead + (levels,)), (coords,), backward)


def sample_attention(queries, feats, blend, table) -> tuple:
    """Softmax attention of each state's queries over the state's own
    samples x = feats + blend . table, without forming x.

    queries: h x N x d, h queries for each of N states, heads first as
    `decoder.split_heads` lays them out, already scaled; feats: N x m x d
    samples; blend: N x m x S their level weights; table: S x d. x enters
    only through two products,

    - scores = queries . xT = queries . featsT + (queries . tableT) . blendT,
    - pooled = w . x = w . feats + (w . blend) . table,

    with w the softmax of the scores over the m samples. Returns the
    h x N x d pooled samples, heads first like the queries, one tape node
    with the gradients of all four inputs, and the N x h x m weights w as
    a constant tensor. Every state has the same m samples: a training
    draw's. `segment_attention` is the inference form over segments of
    any length.
    """
    queries, feats, blend, table = (_coerce(t) for t in (queries, feats, blend, table))
    # The products run state first: scores are taken as (N, m, h) products
    # against contiguous (N, d, h) keys, the fastest layout for numpy's
    # batched matmul here.
    q = queries.data.transpose(1, 0, 2)  # N,h,d
    k = np.ascontiguousarray(np.swapaxes(q, 1, 2))
    table_k = table.data @ k  # N,S,h
    scores = feats.data @ k
    scores += blend.data @ table_k
    scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=1, keepdims=True)
    w = np.ascontiguousarray(np.swapaxes(scores, 1, 2))  # N,h,m
    w_blend = w @ blend.data  # N,h,S
    pooled = w @ feats.data
    pooled += w_blend @ table.data

    def backward(g):
        g = g.transpose(1, 0, 2)  # N,h,d
        g_blend = g @ table.data.T  # N,h,S
        gw = g @ np.swapaxes(feats.data, 1, 2)
        gw += g_blend @ np.swapaxes(blend.data, 1, 2)
        gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True))  # score gradient, N,h,m
        gs_blend = gs @ blend.data  # N,h,S
        wt, gst = np.swapaxes(w, 1, 2), np.swapaxes(gs, 1, 2)
        if queries.requires_grad:
            queries._accumulate((gs @ feats.data + gs_blend @ table.data).transpose(1, 0, 2))
        if feats.requires_grad:
            feats._accumulate(wt @ g + gst @ q)
        if blend.requires_grad:
            blend._accumulate(wt @ g_blend + gst @ np.swapaxes(table_k, 1, 2))
        if table.requires_grad:
            table._accumulate(np.einsum("nhs,nhd->sd", w_blend, g)
                              + np.einsum("nhs,nhd->sd", gs_blend, q))

    return _node(pooled.transpose(1, 0, 2), (queries, feats, blend, table), backward), Tensor(w)


def segment_attention(queries, feats, blend, table, log_counts, starts) -> tuple:
    """`sample_attention` over segments of unequal length, forward only:
    the inference form, over each state's distinct lattice points.

    queries: h x N x d, as there; feats: M x d samples and blend: their
    M x S level weights, state g's samples the rows starts[g] to
    starts[g + 1] (starts: N + 1 offsets, from 0 to M); table: S x d;
    log_counts: the M constant logs of each sample's number of copies,
    added to its scores. The softmax over all the copies equals the
    softmax over the distinct samples with log c added, and so does the
    pooled sum, up to rounding. Each segment takes the products of
    `sample_attention` in the same order, so with log counts of 0 a
    state's weights and pooled sample equal, to the bit, those of
    `sample_attention` over its segment alone. Returns the h x N x d pooled samples, heads first, and the M x h
    weights as a constant tensor.

    It has no backward pass: one that reaches it raises, rather than
    leaving the gradients of its inputs silently at zero.
    """
    queries, feats, blend, table = (_coerce(t) for t in (queries, feats, blend, table))
    q = queries.data.transpose(1, 0, 2)  # N,h,d
    k = np.ascontiguousarray(np.swapaxes(q, 1, 2))
    table_k = table.data @ k  # N,S,h
    N, h, d = q.shape
    pooled = np.empty((N, h, d))
    weights = np.empty((len(log_counts), h))
    for g, rows in enumerate(map(slice, starts[:-1], starts[1:])):
        f, b = feats.data[rows], blend.data[rows]
        scores = f @ k[g]  # m_g,h
        scores += b @ table_k[g]
        scores += log_counts[rows, None]
        scores -= scores.max(axis=0)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=0)
        weights[rows] = scores
        w = np.ascontiguousarray(scores.T)  # h,m_g
        pooled[g] = w @ f
        pooled[g] += (w @ b) @ table.data

    def backward(grad):
        raise RuntimeError("segment_attention is forward only; "
                           "a training forward attends through sample_attention")

    return _node(pooled.transpose(1, 0, 2), (queries, feats, blend, table), backward), \
        Tensor(weights)
