"""Tensor core: forward values against numpy, gradients against finite
differences, and the error contract."""

import numpy as np
import pytest

from relattn.tensor import (
    DimensionError,
    DomainError,
    Tensor,
    add,
    clamp,
    concat,
    div,
    exp,
    grad_enabled,
    gumbel_softmax,
    layer_norm,
    linear,
    log,
    matmul,
    mul,
    no_grad,
    relu,
    reshape,
    sigmoid,
    softmax,
    softplus,
    sqrt,
    standard_gumbel,
    sub,
    swap_last,
    take,
    tanh,
    tmax,
    transpose,
    tsum,
)
from relattn.gradcheck import check_gradients


def leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


class TestForward:
    def test_elementwise_matches_numpy(self):
        """Each unary op agrees with the numpy reference on random input."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4))
        cases = [
            (exp, np.exp(x)),
            (tanh, np.tanh(x)),
            (sigmoid, 1.0 / (1.0 + np.exp(-x))),
            (relu, np.maximum(x, 0.0)),
            (softplus, np.logaddexp(0.0, x)),
        ]
        for op, want in cases:
            np.testing.assert_allclose(op(Tensor(x)).data, want, rtol=1e-12)

    def test_binary_broadcasting(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((3, 1))
        np.testing.assert_allclose(add(Tensor(a), Tensor(b)).data, a + b)
        np.testing.assert_allclose(mul(Tensor(a), Tensor(b)).data, a * b)
        np.testing.assert_allclose(sub(Tensor(a), Tensor(b)).data, a - b)
        np.testing.assert_allclose(div(Tensor(a), Tensor(b)).data, a / b)

    def test_matmul_and_shapes(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 2, 3))
        b = rng.standard_normal((5, 3, 4))
        np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).data, a @ b)
        np.testing.assert_allclose(
            reshape(Tensor(a), 5, 6).data, a.reshape(5, 6))
        np.testing.assert_allclose(
            transpose(Tensor(a), 1, 0, 2).data, a.transpose(1, 0, 2))
        np.testing.assert_allclose(
            swap_last(Tensor(a)).data, np.swapaxes(a, -1, -2))

    def test_reductions(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 4, 5))
        np.testing.assert_allclose(tsum(Tensor(x)).data, x.sum())
        np.testing.assert_allclose(
            tsum(Tensor(x), axis=1).data, x.sum(axis=1))
        np.testing.assert_allclose(
            tmax(Tensor(x), axis=-1).data, x.max(axis=-1))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 7)) * 30.0
        y = softmax(Tensor(x), axis=-1).data
        np.testing.assert_allclose(y.sum(axis=-1), np.ones(6), atol=1e-12)
        assert np.all(y > 0)

    def test_concat_and_take(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 5))
        np.testing.assert_allclose(
            concat([Tensor(a), Tensor(b)], axis=-1).data,
            np.concatenate([a, b], axis=-1))
        x = rng.standard_normal((6, 3))
        idx = np.array([4, 0, 4, 2])
        np.testing.assert_allclose(take(Tensor(x), idx).data, x[idx])

    def test_clamp_keeps_bounds(self):
        x = Tensor(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]))
        np.testing.assert_allclose(
            clamp(x, -1.0, 1.0).data, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_layer_norm_standardizes(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 8)) * 5 + 3
        gain = Tensor(np.ones(8))
        shift = Tensor(np.zeros(8))
        y = layer_norm(Tensor(x), gain, shift).data
        np.testing.assert_allclose(y.mean(axis=-1), np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(y.std(axis=-1), np.ones(4), atol=1e-4)

    def test_layer_norm_matches_numpy_bit_for_bit(self):
        """The fused forward takes the operations in this order: both means
        as a sum times 1/d, then (var + eps) ** -0.5."""
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 4, 8)) * 5 + 3
        gain, shift = rng.standard_normal(8), rng.standard_normal(8)
        centered = x - x.sum(axis=-1, keepdims=True) * (1.0 / 8)
        var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / 8)
        want = centered * (var + 1e-5) ** -0.5 * gain + shift
        got = layer_norm(Tensor(x), Tensor(gain), Tensor(shift)).data
        np.testing.assert_array_equal(got, want)

    def test_linear_applies_weight_then_bias(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 3))
        w = rng.standard_normal((3, 4))
        b = rng.standard_normal(4)
        got = linear(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(got, x @ w + b, rtol=1e-12)

    def test_sigmoid_stable_at_extremes(self):
        x = Tensor(np.array([-800.0, 800.0]))
        y = sigmoid(x).data
        assert np.isfinite(y).all()
        np.testing.assert_allclose(y, [0.0, 1.0], atol=1e-300)

    def test_softplus_stable_at_extremes(self):
        y = softplus(Tensor(np.array([-800.0, 800.0]))).data
        assert np.isfinite(y).all()
        np.testing.assert_allclose(y[1], 800.0)


class TestErrors:
    def test_log_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            log(Tensor(np.array([1.0, 0.0])))

    def test_sqrt_rejects_negative(self):
        with pytest.raises(DomainError):
            sqrt(Tensor(np.array([-1.0])))

    def test_matmul_rejects_mismatched_inner(self):
        with pytest.raises(DimensionError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_linear_rejects_one_dimensional_input(self):
        with pytest.raises(DimensionError):
            linear(Tensor(np.ones(3)), Tensor(np.ones((3, 2))), Tensor(np.zeros(2)))

    def test_concat_rejects_mismatched_offaxis(self):
        with pytest.raises(DimensionError):
            concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], axis=1)

    def test_take_rejects_boolean_mask(self):
        with pytest.raises((TypeError, DimensionError)):
            take(Tensor(np.ones((3, 2))), np.array([True, False, True]))

    def test_clamp_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            clamp(Tensor(np.zeros(3)), 1.0, -1.0)

    def test_gumbel_softmax_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            gumbel_softmax(Tensor(np.zeros(3)), tau=0.0,
                           rng=np.random.default_rng(0))


class TestAutodiff:
    def test_no_grad_suppresses_taping(self):
        x = Tensor(np.ones(3), requires_grad=True)
        assert grad_enabled()
        with no_grad():
            assert not grad_enabled()
            y = mul(x, x)
        assert y.requires_grad is False

    def test_broadcast_gradient_accumulates(self):
        """Gradient of a broadcast operand sums over the expanded axes."""
        rng = np.random.default_rng(8)
        a = leaf(rng, 4, 3)
        b = leaf(rng, 3)
        tsum(mul(a, b)).backward()
        np.testing.assert_allclose(b.grad, a.data.sum(axis=0), rtol=1e-12)

    def test_take_accumulates_repeated_rows(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        idx = np.array([1, 1, 0])
        tsum(take(x, idx)).backward()
        np.testing.assert_allclose(x.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])

    def test_tmax_splits_gradient_across_ties(self):
        x = Tensor(np.array([[1.0, 3.0, 3.0]]), requires_grad=True)
        tsum(tmax(x, axis=1)).backward()
        np.testing.assert_allclose(x.grad, [[0.0, 0.5, 0.5]])

    def test_clamp_passes_gradient_at_bounds(self):
        """Values exactly at a clamp bound still propagate gradient."""
        x = Tensor(np.array([-1.0, 0.0, 1.0, 2.0]), requires_grad=True)
        tsum(clamp(x, -1.0, 1.0)).backward()
        np.testing.assert_allclose(x.grad, [1.0, 1.0, 1.0, 0.0])

    @pytest.mark.parametrize("op", [
        exp, tanh, sigmoid, softplus, lambda t: mul(mul(t, t), t),
        lambda t: softmax(t, axis=-1), lambda t: mul(tsum(t, axis=0), 0.25),
        lambda t: clamp(t, -0.5, 0.5),
    ])
    def test_single_op_gradients(self, op):
        rng = np.random.default_rng(9)
        x = leaf(rng, 4, 5)
        w = rng.standard_normal(op(x).data.shape)
        err = check_gradients(lambda t: tsum(mul(op(t), Tensor(w))), x)
        assert err < 1e-6

    def test_log_sqrt_gradients_on_positive_input(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.uniform(0.5, 2.0, (3, 3)), requires_grad=True)
        assert check_gradients(lambda t: tsum(log(t)), x) < 1e-6
        assert check_gradients(lambda t: tsum(sqrt(t)), x) < 1e-6

    def test_composite_expression_gradient(self):
        """A deep mixed expression matches finite differences."""
        rng = np.random.default_rng(11)
        x = leaf(rng, 3, 4)
        w = rng.standard_normal((4, 4))

        def f(t):
            h = tanh(matmul(t, Tensor(w)))
            s = softmax(h, axis=-1)
            return tsum(mul(s, sigmoid(t)))

        assert check_gradients(f, x) < 1e-6

    def test_layer_norm_gradient(self):
        rng = np.random.default_rng(12)
        x = leaf(rng, 2, 6)
        w = rng.standard_normal((2, 6))
        assert check_gradients(
            lambda t: tsum(mul(layer_norm(t, Tensor(np.ones(6)),
                                          Tensor(np.zeros(6))),
                               Tensor(w))), x) < 1e-6

    def test_layer_norm_gradient_all_inputs(self):
        """x, a random gain and the shift on a 3-d input, each against
        finite differences."""
        rng = np.random.default_rng(14)
        x, gain, shift = leaf(rng, 2, 3, 6), leaf(rng, 6), leaf(rng, 6)
        w = Tensor(rng.standard_normal((2, 3, 6)))
        assert check_gradients(
            lambda t: tsum(mul(layer_norm(t, gain, shift), w)), x) < 1e-6
        assert check_gradients(
            lambda t: tsum(mul(layer_norm(x, t, shift), w)), gain) < 1e-6
        assert check_gradients(
            lambda t: tsum(mul(layer_norm(x, gain, t), w)), shift) < 1e-6

    def test_second_backward_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = mul(x, x)
        y.backward()
        first = x.grad.copy()
        y2 = mul(x, x)
        y2.backward()
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_shared_first_gradient_stays_correct(self):
        """add hands one gradient array to both leaves, uncopied; a second
        contribution to one leaf leaves the other's gradient as it was."""
        rng = np.random.default_rng(9)
        a, b = leaf(rng, 3, 4), leaf(rng, 3, 4)
        w, v = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        both = add(a, b)
        add(tsum(mul(both, Tensor(w))), tsum(mul(a, Tensor(v)))).backward()
        assert b.grad is both.grad
        np.testing.assert_array_equal(b.grad, w)
        np.testing.assert_array_equal(a.grad, w + v)
        np.testing.assert_array_equal(both.grad, w)


class TestGumbel:
    def test_standard_gumbel_moments(self):
        """Samples follow the Gumbel law: mean near the Euler constant."""
        rng = np.random.default_rng(13)
        g = standard_gumbel(rng, (200000,))
        np.testing.assert_allclose(g.mean(), 0.5772, atol=0.01)
        np.testing.assert_allclose(g.var(), np.pi ** 2 / 6, atol=0.05)

    def test_gumbel_softmax_is_simplex(self):
        rng = np.random.default_rng(14)
        logits = Tensor(rng.standard_normal((5, 4)))
        y = gumbel_softmax(logits, tau=1.0, rng=np.random.default_rng(0)).data
        np.testing.assert_allclose(y.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_hard_mode_returns_exact_one_hot(self):
        rng = np.random.default_rng(15)
        logits = Tensor(rng.standard_normal(6))
        y = gumbel_softmax(logits, tau=1.0, rng=np.random.default_rng(1),
                           hard=True).data
        assert set(np.unique(y)) <= {0.0, 1.0}
        assert y.sum() == 1.0

    def test_pinned_noise_reproduces(self):
        logits = Tensor(np.array([0.3, -0.2, 1.0]))
        noise = standard_gumbel(np.random.default_rng(2), (3,))
        a = gumbel_softmax(logits, tau=0.7, noise=noise).data
        b = gumbel_softmax(logits, tau=0.7, noise=noise).data
        np.testing.assert_array_equal(a, b)

    def test_hard_sample_passes_gradient_straight_through(self):
        """The hard sample is one-hot at the soft sample's argmax, and an
        upstream gradient reaches the logits through it exactly as it would
        through the soft sample."""
        rng = np.random.default_rng(17)
        logits = rng.standard_normal((3, 5))
        noise = standard_gumbel(rng, (3, 5))
        upstream = rng.standard_normal((3, 5))

        def sample_and_grad(hard):
            x = Tensor(logits, requires_grad=True)
            y = gumbel_softmax(x, tau=0.6, hard=hard, noise=noise)
            y.backward(upstream)
            return y.data, x.grad

        soft, soft_grad = sample_and_grad(False)
        hard, hard_grad = sample_and_grad(True)
        np.testing.assert_array_equal(hard, np.eye(5)[soft.argmax(axis=-1)])
        np.testing.assert_array_equal(hard_grad, soft_grad)

    def test_soft_sample_gradient(self):
        noise = standard_gumbel(np.random.default_rng(3), (4,))
        x = Tensor(np.random.default_rng(16).standard_normal(4),
                   requires_grad=True)
        err = check_gradients(
            lambda t: tsum(mul(gumbel_softmax(t, tau=0.8, noise=noise),
                               Tensor(np.array([1.0, 2.0, 3.0, 4.0])))), x)
        assert err < 1e-6
