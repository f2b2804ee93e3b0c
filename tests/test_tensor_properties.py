"""Property tests of the tape ops on drawn shapes: each op's gradient
against central differences (``gradcheck``), for the shape patterns the
model uses and for broadcasting. Examples are derandomized, so every run
checks the same cases."""

import numpy as np
from hypothesis import given, settings, strategies as st

from relattn.gradcheck import check_gradients
from relattn.tensor import Tensor, add, matmul, mul, reshape, take, transpose, tsum

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)
TOL = 1e-6

dims = st.integers(min_value=1, max_value=4)
shapes = st.lists(dims, min_size=1, max_size=4).map(tuple)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def op_error(op, x, rng):
    """Worst gradient error of op at x, through a scalar loss that weighs
    op's output with fixed random weights, so every output entry carries
    a distinct share of the gradient."""
    w = Tensor(rng.standard_normal(op(x).shape))
    return check_gradients(lambda t: tsum(mul(op(t), w)), x)


def both_operands(op, a, b, rng):
    """Worst gradient error of op(a, b) with respect to each operand."""
    return max(op_error(lambda t: op(t, b), a, rng), op_error(lambda t: op(a, t), b, rng))


@st.composite
def broadcast_pair(draw):
    """A shape and a second shape that broadcasts against it: some axes
    set to 1, some leading axes dropped, either operand first."""
    full = draw(shapes)
    ones = draw(st.lists(st.booleans(), min_size=len(full), max_size=len(full)))
    other = tuple(1 if one else s for s, one in zip(full, ones))
    other = other[draw(st.integers(min_value=0, max_value=len(full) - 1)):]
    return (other, full) if draw(st.booleans()) else (full, other)


class TestMatmul:
    @PROPERTY
    @given(h=dims, N=dims, dh=dims, d=dims, seed=seeds)
    def test_head_batched_weight_product(self, h, N, dh, d, seed):
        """(h, N, dh) @ (h, dh, d): queries times a per-head weight view."""
        rng = np.random.default_rng(seed)
        a, b = Tensor(rng.standard_normal((h, N, dh))), Tensor(rng.standard_normal((h, dh, d)))
        assert both_operands(matmul, a, b, rng) < TOL

    @PROPERTY
    @given(n=dims, K=dims, h=dims, d=dims, m=dims, seed=seeds)
    def test_state_batched_score_product(self, n, K, h, d, m, seed):
        """(n, K, h, d) @ (n, K, d, m): per-state scores over samples."""
        rng = np.random.default_rng(seed)
        a, b = Tensor(rng.standard_normal((n, K, h, d))), Tensor(rng.standard_normal((n, K, d, m)))
        assert both_operands(matmul, a, b, rng) < TOL


class TestElementwise:
    @PROPERTY
    @given(pair=broadcast_pair(), seed=seeds)
    def test_broadcast_add(self, pair, seed):
        rng = np.random.default_rng(seed)
        a, b = (Tensor(rng.standard_normal(s)) for s in pair)
        assert both_operands(add, a, b, rng) < TOL

    @PROPERTY
    @given(pair=broadcast_pair(), seed=seeds)
    def test_broadcast_mul(self, pair, seed):
        rng = np.random.default_rng(seed)
        a, b = (Tensor(rng.standard_normal(s)) for s in pair)
        assert both_operands(mul, a, b, rng) < TOL


class TestShapeOps:
    @PROPERTY
    @given(shape=shapes, data=st.data())
    def test_reshape(self, shape, data):
        """To a shape with the same element count: its sizes are the
        input's sizes regrouped, in a drawn order."""
        rng = np.random.default_rng(data.draw(seeds))
        sizes = data.draw(st.permutations(shape))
        cut = data.draw(st.integers(min_value=0, max_value=len(sizes)))
        target = (int(np.prod(sizes[:cut])),) + tuple(sizes[cut:])
        x = Tensor(rng.standard_normal(shape))
        assert op_error(lambda t: reshape(t, target), x, rng) < TOL

    @PROPERTY
    @given(shape=shapes, data=st.data())
    def test_transpose(self, shape, data):
        rng = np.random.default_rng(data.draw(seeds))
        axes = tuple(data.draw(st.permutations(range(len(shape)))))
        x = Tensor(rng.standard_normal(shape))
        assert op_error(lambda t: transpose(t, axes), x, rng) < TOL

    @PROPERTY
    @given(shape=shapes, data=st.data())
    def test_take_gathers_with_repeats(self, shape, data):
        """Integer indices along axis 0, repeats allowed: the backward
        pass scatter-adds."""
        rng = np.random.default_rng(data.draw(seeds))
        idx = data.draw(st.lists(st.integers(min_value=0, max_value=shape[0] - 1),
                                 min_size=1, max_size=6))
        x = Tensor(rng.standard_normal(shape))
        assert op_error(lambda t: take(t, np.array(idx)), x, rng) < TOL

    @PROPERTY
    @given(shape=shapes, data=st.data())
    def test_take_basic_slice(self, shape, data):
        rng = np.random.default_rng(data.draw(seeds))
        start = data.draw(st.integers(min_value=0, max_value=shape[-1] - 1))
        x = Tensor(rng.standard_normal(shape))
        assert op_error(lambda t: take(t, (..., slice(start, None))), x, rng) < TOL


class TestReduction:
    @PROPERTY
    @given(shape=shapes, data=st.data())
    def test_tsum(self, shape, data):
        """Over all axes, or over a drawn set of axes, some counted from
        the end, with or without keepdims."""
        rng = np.random.default_rng(data.draw(seeds))
        axes = data.draw(st.none() | st.sets(
            st.integers(min_value=0, max_value=len(shape) - 1), min_size=1))
        if axes is not None:
            axes = tuple(a - len(shape) if data.draw(st.booleans()) else a for a in axes)
        keepdims = data.draw(st.booleans())
        x = Tensor(rng.standard_normal(shape))
        assert op_error(lambda t: tsum(t, axis=axes, keepdims=keepdims), x, rng) < TOL
