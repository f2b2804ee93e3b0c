"""Parameter registry, initialization, and the optimizer update rule."""

import numpy as np
import pytest

from relattn.params import Parameter, ParameterRegistry, xavier
from relattn.optim import _CHUNK, AdamW, lr_scale_at
from relattn.tensor import Tensor, mul, tsum

from helpers import parameter
from oracles import adamw_oracle


def optimizer(*specs, **kwargs):
    """An AdamW over a registry of (name, initial values[, lr_mult])
    parameters. Returns it and the parameters, in order."""
    reg = ParameterRegistry()
    for spec in specs:
        reg.add(*spec)
    return AdamW(reg, **kwargs), reg.parameters()


class TestRegistry:
    def test_add_returns_trainable_tensor(self):
        reg = ParameterRegistry()
        t = reg.add("w", np.zeros((2, 3)))
        assert isinstance(t, Tensor)
        assert t.requires_grad
        assert parameter(reg, "w").tensor is t

    def test_duplicate_name_rejected(self):
        reg = ParameterRegistry()
        reg.add("w", np.zeros(3))
        with pytest.raises(ValueError):
            reg.add("w", np.zeros(3))

    def test_state_dict_round_trip(self):
        rng = np.random.default_rng(30)
        reg = ParameterRegistry()
        reg.add("a", rng.standard_normal((2, 2)))
        reg.add("b", rng.standard_normal(4))
        state = {name: arr.copy() for name, arr in reg.arrays().items()}

        other = ParameterRegistry()
        other.add("a", np.zeros((2, 2)))
        other.add("b", np.zeros(4))
        other.load_state_dict(state)
        for name in ("a", "b"):
            np.testing.assert_array_equal(parameter(other, name).data,
                                          parameter(reg, name).data)

    def test_load_writes_into_the_live_arrays(self):
        """A load copies values into each parameter's existing array, so
        anything holding that array (the tape, the optimizer) sees them."""
        reg = ParameterRegistry()
        reg.add("a", np.zeros((2, 3)))
        before = parameter(reg, "a").data
        values = np.arange(6.0).reshape(2, 3)
        reg.load_state_dict({"a": values})
        assert parameter(reg, "a").data is before
        np.testing.assert_array_equal(before, values)

    def test_arrays_are_live(self):
        reg = ParameterRegistry()
        reg.add("a", np.ones(3))
        assert reg.arrays()["a"] is parameter(reg, "a").data

    def test_load_rejects_missing_extra_and_shape(self):
        reg = ParameterRegistry()
        reg.add("a", np.zeros((2, 2)))
        with pytest.raises(ValueError):
            reg.load_state_dict({})
        with pytest.raises(ValueError):
            reg.load_state_dict({"a": np.zeros((2, 2)), "b": np.zeros(1)})
        with pytest.raises(ValueError):
            reg.load_state_dict({"a": np.zeros((3, 2))})

    def test_name_mismatch_message_is_short(self):
        """A name mismatch gives counts and at most two names per side, not
        every parameter name."""
        reg = ParameterRegistry()
        for i in range(50):
            reg.add(f"p{i:02d}", np.zeros(1))
        with pytest.raises(ValueError) as info:
            reg.load_state_dict({"x": np.zeros(1)})
        assert str(info.value) == \
            "parameter name mismatch: 50 missing ['p00', 'p01'], 1 unexpected ['x']"

    def test_zero_grad_clears(self):
        reg = ParameterRegistry()
        t = reg.add("w", np.ones(3))
        tsum(mul(t, t)).backward()
        assert t.grad is not None
        reg.zero_grad()
        assert t.grad is None

    def test_xavier_scale(self):
        """Variance follows 2 / (fan_in + fan_out)."""
        rng = np.random.default_rng(31)
        w = xavier(rng, 400, 600, (400, 600))
        np.testing.assert_allclose(w.std(), np.sqrt(2.0 / 1000), rtol=0.05)


class TestAdamW:
    def test_two_steps_match_hand_computation(self):
        """The update reproduces the bias-corrected moment formula."""
        beta1, beta2, eps, wd, lr = 0.9, 0.999, 1e-8, 0.01, 0.1
        x0 = np.array([1.0, -2.0])
        g1 = np.array([0.5, 1.0])
        g2 = np.array([-0.25, 0.5])

        x, m, v = x0.copy(), np.zeros(2), np.zeros(2)
        for t, g in ((1, g1), (2, g2)):
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            mh = m / (1 - beta1 ** t)
            vh = v / (1 - beta2 ** t)
            x = x - lr * mh / (np.sqrt(vh) + eps) - lr * wd * x

        opt, (p,) = optimizer(("w", x0.copy()), lr=lr, weight_decay=wd)
        for g in (g1, g2):
            p.tensor.grad = g.copy()
            opt.step()
        np.testing.assert_allclose(p.data, x, rtol=1e-12)

    def test_weight_decay_is_decoupled(self):
        """Decay shrinks the weight even when the gradient is zero-moment
        free, independent of the adaptive denominator."""
        opt, (p,) = optimizer(("w", np.array([4.0])), lr=0.5, weight_decay=0.1)
        p.tensor.grad = np.array([0.0])
        opt.step()
        np.testing.assert_allclose(p.data, [4.0 - 0.5 * 0.1 * 4.0])

    def test_skips_parameters_without_gradient(self):
        opt, (a, b) = optimizer(("a", np.array([1.0])), ("b", np.array([1.0])),
                                lr=0.1, weight_decay=0.0)
        a.tensor.grad = np.array([1.0])
        opt.step()
        assert a.data[0] != 1.0
        assert b.data[0] == 1.0

    def test_lr_mult_scales_update(self):
        opt, (a, b) = optimizer(("a", np.array([0.0])), ("b", np.array([0.0]), 0.1),
                                lr=0.1, weight_decay=0.0)
        a.tensor.grad = np.array([1.0])
        b.tensor.grad = np.array([1.0])
        opt.step()
        np.testing.assert_allclose(b.data, a.data * 0.1, rtol=1e-12)

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError):
            AdamW(ParameterRegistry(), lr=0.0, weight_decay=1e-4)

    def test_bit_equal_to_out_of_place_formula(self):
        """Several steps over a mix of parameters: one spanning more than
        two chunks with a reduced rate, one that never gets a gradient,
        one with a transposed gradient and one with a zero-stride
        broadcast gradient. Every value equals the out-of-place oracle
        bit for bit, and no gradient array is written to."""
        rng = np.random.default_rng(60)
        shapes = [(2 * _CHUNK + 77,), (5, 4), (3,), (6, 7), (4, 9)]
        lr_mults = [0.1, 1.0, 1.0, 1.0, 0.5]
        init = [rng.standard_normal(s) for s in shapes]
        opt, params = optimizer(*((f"p{i}", w.copy(), mult)
                                  for i, (w, mult) in enumerate(zip(init, lr_mults))),
                                lr=0.01, weight_decay=0.05)
        scales = [1.0, 1.0, 0.1, 0.1]
        grad_steps = []
        for _ in scales:
            grad_steps.append([
                rng.standard_normal(shapes[0]),
                rng.standard_normal(shapes[1]),
                None,
                rng.standard_normal((7, 6)).T,
                np.broadcast_to(rng.standard_normal(9), (4, 9)),
            ])
        originals = [[None if g is None else g.copy() for g in grads]
                     for grads in grad_steps]
        for grads, scale in zip(grad_steps, scales):
            for p, g in zip(params, grads):
                p.tensor.grad = g
            assert opt.step(lr_scale=scale) is None
        want = adamw_oracle(init, grad_steps, 0.01, lr_mults, scales,
                            weight_decay=0.05)
        for p, w in zip(params, want):
            assert np.array_equal(p.data, w), p.name
        np.testing.assert_array_equal(params[2].data, init[2])
        for grads, copies in zip(grad_steps, originals):
            for g, c in zip(grads, copies):
                if g is not None:
                    assert np.array_equal(g, c)

    def test_updates_the_parameter_array_in_place(self):
        opt, (p,) = optimizer(("w", np.ones((3, 2))), lr=0.1, weight_decay=1e-4)
        before = p.tensor.data
        p.tensor.grad = np.ones((3, 2))
        opt.step()
        assert p.tensor.data is before
        assert np.all(before < 1.0)

    def test_parameter_from_non_contiguous_array_updates(self):
        """A parameter owns C-contiguous writeable storage, so a transposed
        or read-only source is copied once and the step still lands."""
        source = np.arange(1.0, 7.0).reshape(2, 3).T
        frozen = np.broadcast_to(np.ones(3), (2, 3))
        opt, (a, b) = optimizer(("a", source), ("b", frozen), lr=0.1, weight_decay=1e-4)
        assert a.data.flags.c_contiguous and b.data.flags.writeable
        a.tensor.grad = np.ones((3, 2))
        b.tensor.grad = np.ones((2, 3))
        opt.step()
        assert np.all(a.data < source)
        assert np.all(b.data < 1.0)
        np.testing.assert_array_equal(source, np.arange(1.0, 7.0).reshape(2, 3).T)

    def test_contiguous_float_storage_is_not_copied(self):
        data = np.zeros((4, 5))
        assert Parameter("w", data).data is data

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_reports_first_non_finite_parameter(self, bad):
        """A NaN or infinite gradient reaches the updated weight; the step
        names the first such parameter and still updates the others."""
        opt, params = optimizer(("a", np.ones(4)), ("b", np.ones(_CHUNK + 10)),
                                ("c", np.ones(4)), lr=0.1, weight_decay=1e-4)
        for p in params:
            p.tensor.grad = np.ones(p.data.size)
        assert opt.step() is None
        for p in params:
            p.tensor.grad = np.ones(p.data.size)
        params[1].tensor.grad[_CHUNK + 3] = bad
        params[2].tensor.grad[0] = bad
        with np.errstate(invalid="ignore"):
            assert opt.step() == "b"
        assert np.isfinite(params[0].data).all()
        assert not np.isfinite(params[1].data[_CHUNK + 3])


class TestSchedule:
    def test_drop_at_fraction(self):
        assert lr_scale_at(0, 100) == 1.0
        assert lr_scale_at(79, 100) == 1.0
        assert lr_scale_at(80, 100) == 0.1
        assert lr_scale_at(99, 100) == 0.1

    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            lr_scale_at(0, 0)
