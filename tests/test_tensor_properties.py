"""Property tests of the tape ops on drawn shapes: each op's gradient
against central differences (``gradcheck``), for the shape patterns the
model uses and for broadcasting. Examples are derandomized, so every run
checks the same cases."""

import numpy as np
from hypothesis import given, settings, strategies as st

from relattn.gradcheck import check_gradients
from relattn.tensor import Tensor, add, level_weights, matmul, mul, reshape, sample_attention, \
    softmax, swap_last, take, transpose, tsum

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


class TestLevelWeights:
    @PROPERTY
    @given(lead=st.lists(dims, min_size=0, max_size=3).map(tuple),
           levels=st.integers(min_value=1, max_value=6), seed=seeds)
    def test_convex_rows_and_scale_gradient(self, lead, levels, seed):
        """Rows are convex blends of at most two neighboring levels, and
        the gradient matches central differences on s and is zero on x
        and y, for points inside [0, 1], each at least 0.05 cells from a
        level and x and y at least 0.05 from the border."""
        rng = np.random.default_rng(seed)
        cells = max(levels - 1, 1)
        pts = rng.uniform(0.05, 0.95, lead + (3,))
        pts[..., 2] = (rng.integers(0, cells, lead) + rng.uniform(0.05, 0.95, lead)) / cells
        blend = level_weights(Tensor(pts), levels).data
        assert blend.shape == lead + (levels,)
        assert np.all(np.abs(blend.sum(axis=-1) - 1.0) <= 1e-15) and np.all(blend >= 0.0)
        assert np.all((blend > 0.0).sum(axis=-1) <= 2)
        x = Tensor(pts)
        assert op_error(lambda t: level_weights(t, levels), x, rng) < TOL
        coords = Tensor(pts, requires_grad=True)
        tsum(mul(level_weights(coords, levels), Tensor(rng.standard_normal(blend.shape)))) \
            .backward()
        assert np.all(coords.grad[..., :2] == 0.0)


class TestSampleAttention:
    @PROPERTY
    @given(N=dims, h=dims, m=dims, d=dims, S=dims, seed=seeds)
    def test_matches_composed_tape_ops(self, N, h, m, d, S, seed):
        """The fused op equals the same attention built from matmul, add,
        swap_last and softmax, whose gradients are checked against central
        differences on their own: pooled samples, weights, and the
        gradients of the queries, samples, level weights and table, to
        rounding. (A direct central-difference check of the fused op on
        such random draws is not conditioned well: where the softmax
        saturates, gradient entries near 1e-8 carry relative errors far
        above the tolerance on either form.)"""
        rng = np.random.default_rng(seed)
        data = [rng.standard_normal(shape) for shape in ((N, h, d), (N, m, d), (N, m, S), (S, d))]
        g = rng.standard_normal((N, h, d))
        fused = [Tensor(x, requires_grad=True) for x in data]
        pooled, weights = sample_attention(*fused)
        pooled.backward(g)
        q, feats, blend, table = composed = [Tensor(x, requires_grad=True) for x in data]
        keys = swap_last(q)
        scores = add(matmul(feats, keys), matmul(blend, matmul(table, keys)))
        w = swap_last(softmax(scores, axis=1))
        want = add(matmul(w, feats), matmul(matmul(w, blend), table))
        want.backward(g)
        np.testing.assert_allclose(weights.data, w.data, rtol=0, atol=1e-13)
        np.testing.assert_allclose(pooled.data, want.data, rtol=0, atol=1e-12)
        for a, b in zip(fused, composed):
            np.testing.assert_allclose(a.grad, b.grad, rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(b.grad).max()))

    @PROPERTY
    @given(N=dims, h=dims, m=dims, pad=st.integers(min_value=0, max_value=2), d=dims, S=dims,
           seed=seeds)
    def test_log_counts_stand_for_repeated_samples(self, N, h, m, pad, d, S, seed):
        """Attention over m distinct samples with log c_j added to their
        scores, plus `pad` padding samples at -inf, equals attention over
        each state's samples with sample j repeated c_j times, to
        rounding: the pooled samples, the weights (summed over a sample's
        copies), the gradients of the queries and the table, and the
        gradients of the samples and their level weights, summed over the
        copies. The padding samples get weight 0 and zero gradients, and
        their values change nothing."""
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 4, (N, m))
        log_counts = np.concatenate([np.log(counts), np.full((N, pad), -np.inf)], axis=1)
        q, table = rng.standard_normal((N, h, d)), rng.standard_normal((S, d))
        feats, blend = rng.standard_normal((N, m + pad, d)), rng.standard_normal((N, m + pad, S))
        g = rng.standard_normal((N, h, d))
        distinct = [Tensor(x, requires_grad=True) for x in (q, feats, blend, table)]
        pooled, weights = sample_attention(*distinct, log_counts)
        pooled.backward(g)
        table_grad = np.zeros_like(table)
        for i in range(N):
            copies = np.repeat(np.arange(m), counts[i])
            each = [Tensor(x, requires_grad=True)
                    for x in (q[i:i + 1], feats[i:i + 1, copies], blend[i:i + 1, copies], table)]
            want, w = sample_attention(*each)
            want.backward(g[i:i + 1])
            table_grad += each[3].grad
            tol = 1e-12 * max(1.0, np.abs(want.data).max())
            np.testing.assert_allclose(pooled.data[i], want.data[0], rtol=0, atol=tol)
            summed = np.zeros((h, m))
            np.add.at(summed, (slice(None), copies), w.data[0])
            np.testing.assert_allclose(weights.data[i, :, :m], summed, rtol=0, atol=1e-13)
            np.testing.assert_allclose(distinct[0].grad[i], each[0].grad[0], rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(each[0].grad).max()))
            for got, full in ((distinct[1].grad, each[1].grad), (distinct[2].grad, each[2].grad)):
                folded = np.zeros((m, full.shape[-1]))
                np.add.at(folded, copies, full[0])
                np.testing.assert_allclose(got[i, :m], folded, rtol=0,
                                           atol=1e-12 * max(1.0, np.abs(folded).max()))
        np.testing.assert_allclose(distinct[3].grad, table_grad, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(table_grad).max()))
        assert np.all(weights.data[:, :, m:] == 0.0)
        assert np.all(distinct[1].grad[:, m:] == 0.0) and np.all(distinct[2].grad[:, m:] == 0.0)
        other = feats.copy(), blend.copy()
        other[0][:, m:] = rng.standard_normal((N, pad, d))
        other[1][:, m:] = rng.standard_normal((N, pad, S))
        repadded, _ = sample_attention(q, *other, table, log_counts)
        np.testing.assert_array_equal(repadded.data, pooled.data)
