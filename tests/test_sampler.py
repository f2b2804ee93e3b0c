"""Stochastic representative-point sampling."""

import numpy as np
import pytest

from relattn.params import ParameterRegistry
from relattn.sampler import (
    LOG_STD_INIT,
    SIGMA_MAX,
    SIGMA_MIN,
    GroupOffsetPredictor,
    OffsetDistribution,
    accumulate_points,
    draw_offsets,
    grid_steps,
    inference_grid_offsets,
)
from relattn.tensor import Tensor, add, tsum, mul
from relattn.gradcheck import check_parameter_gradients

from helpers import parameter


def make_predictor(d=8, K=2, seed=60):
    reg = ParameterRegistry()
    pred = GroupOffsetPredictor(reg, "s", d, K, np.random.default_rng(seed))
    return reg, pred


class TestPredictor:
    def test_fresh_predictor_emits_small_spread(self):
        """At init the mean offsets are zero for zero input and the spread
        sits at exp of the log-std bias."""
        _, pred = make_predictor()
        state = Tensor(np.zeros((3, 2, 8)))
        box = Tensor(np.zeros((3, 1, 8)))
        dist = pred(add(state, box))
        np.testing.assert_allclose(dist.mu.data, np.zeros((3, 2, 3)))
        np.testing.assert_allclose(dist.sigma.data,
                                   np.full((3, 2, 3), np.exp(LOG_STD_INIT)),
                                   rtol=1e-12)

    def test_sigma_respects_clamp(self):
        _, pred = make_predictor()
        rng = np.random.default_rng(61)
        state = Tensor(rng.standard_normal((4, 2, 8)) * 50)
        box = Tensor(rng.standard_normal((4, 1, 8)) * 50)
        sigma = pred(add(state, box)).sigma.data
        assert np.all(sigma >= SIGMA_MIN)
        assert np.all(sigma <= SIGMA_MAX)

    def test_groups_are_independent(self):
        """Group k of the state only influences group k of the output."""
        _, pred = make_predictor()
        rng = np.random.default_rng(62)
        base = rng.standard_normal((2, 2, 8))
        box = Tensor(np.zeros((2, 1, 8)))
        bumped = base.copy()
        bumped[:, 0, :] += 1.0
        a = pred(add(Tensor(base), box)).mu.data
        b = pred(add(Tensor(bumped), box)).mu.data
        assert not np.allclose(a[:, 0], b[:, 0])
        np.testing.assert_array_equal(a[:, 1], b[:, 1])

    def test_gradients_reach_both_mlp_layers(self):
        reg, pred = make_predictor(d=4, K=2)
        rng = np.random.default_rng(63)
        state = Tensor(rng.standard_normal((2, 2, 4)))
        box = Tensor(rng.standard_normal((2, 1, 4)))
        eps = rng.standard_normal((2, 2, 3, 3))
        w = rng.standard_normal((2, 2, 3, 3))

        def loss():
            dist = pred(add(state, box))
            return tsum(mul(draw_offsets(dist, 3, eps=eps), Tensor(w)))

        for name in ("s.w1", "s.b1", "s.w2", "s.b2"):
            t = parameter(reg, name).tensor
            err = check_parameter_gradients(loss, t)
            assert err < 1e-6, name


class TestDrawOffsets:
    def dist(self):
        mu = Tensor(np.array([[[0.1, 0.2, 0.3]], [[0.0, -0.1, 0.4]]]))
        sigma = Tensor(np.full((2, 1, 3), 0.05))
        return OffsetDistribution(mu=mu, sigma=sigma)

    def test_reparameterization_formula(self):
        rng = np.random.default_rng(64)
        eps = rng.standard_normal((2, 1, 4, 3))
        out = draw_offsets(self.dist(), 4, eps=eps).data
        want = self.dist().mu.data[:, :, None, :] + 0.05 * eps
        np.testing.assert_allclose(out, want, rtol=1e-12)

    def test_rng_draws_are_deterministic(self):
        a = draw_offsets(self.dist(), 5, rng=np.random.default_rng(1)).data
        b = draw_offsets(self.dist(), 5, rng=np.random.default_rng(1)).data
        np.testing.assert_array_equal(a, b)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            draw_offsets(self.dist(), 0, rng=np.random.default_rng(0))

    def test_rejects_missing_rng(self):
        with pytest.raises(ValueError):
            draw_offsets(self.dist(), 3)

    def test_rejects_wrong_eps_shape(self):
        with pytest.raises(ValueError):
            draw_offsets(self.dist(), 3, eps=np.zeros((2, 1, 2, 3)))


class TestInferenceGrid:
    def test_default_grid_has_343_points(self):
        steps = grid_steps(3, 1)
        np.testing.assert_array_equal(steps, [-3, -2, -1, 0, 1, 2, 3])
        mu = Tensor(np.zeros((1, 1, 3)))
        sigma = Tensor(np.full((1, 1, 3), 0.1))
        grid = inference_grid_offsets(OffsetDistribution(mu, sigma))
        assert grid.shape == (1, 1, 343, 3)

    def test_grid_scales_with_sigma_around_mu(self):
        mu = Tensor(np.array([[[0.5, 0.5, 0.5]]]))
        sigma = Tensor(np.array([[[0.1, 0.2, 0.3]]]))
        grid = inference_grid_offsets(OffsetDistribution(mu, sigma),
                                      range_mult=1, step_mult=1).data[0, 0]
        assert grid.shape == (27, 3)
        np.testing.assert_allclose(grid.min(axis=0), [0.4, 0.3, 0.2],
                                   rtol=1e-12)
        np.testing.assert_allclose(grid.max(axis=0), [0.6, 0.7, 0.8],
                                   rtol=1e-12)
        np.testing.assert_allclose(grid[13], [0.5, 0.5, 0.5], rtol=1e-12)

    def test_coarser_step_thins_the_lattice(self):
        np.testing.assert_array_equal(grid_steps(3, 3), [-3, 0, 3])
        mu = Tensor(np.zeros((2, 1, 3)))
        sigma = Tensor(np.full((2, 1, 3), 0.1))
        grid = inference_grid_offsets(OffsetDistribution(mu, sigma),
                                      range_mult=3, step_mult=3)
        assert grid.shape == (2, 1, 27, 3)


class TestAccumulate:
    def test_offsets_add_and_clamp(self):
        prev = Tensor(np.array([[[0.9, 0.5, 0.1]]]))
        delta = Tensor(np.array([[[0.3, -0.2, -0.4]]]))
        out = accumulate_points(prev, delta).data
        np.testing.assert_allclose(out, [[[1.0, 0.3, 0.0]]])

    def test_gradient_flows_through_interior(self):
        prev = Tensor(np.array([[[0.5, 0.5, 0.5]]]))
        delta = Tensor(np.array([[[0.1, -0.1, 0.0]]]), requires_grad=True)
        tsum(accumulate_points(prev, delta)).backward()
        np.testing.assert_allclose(delta.grad, [[[1.0, 1.0, 1.0]]])
