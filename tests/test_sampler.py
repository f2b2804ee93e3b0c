"""Stochastic representative-point sampling."""

import copy

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
    distinct_lattice_points,
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
        draws = copy.deepcopy(rng)  # the offsets' noise is rng's next draw
        rng.standard_normal((2, 2, 3, 3))
        w = rng.standard_normal((2, 2, 3, 3))

        def loss():
            dist = pred(add(state, box))
            return tsum(mul(draw_offsets(dist, 3, copy.deepcopy(draws)), Tensor(w)))

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
        eps = np.random.default_rng(64).standard_normal((2, 1, 4, 3))
        out = draw_offsets(self.dist(), 4, np.random.default_rng(64)).data
        want = self.dist().mu.data[:, :, None, :] + 0.05 * eps
        np.testing.assert_allclose(out, want, rtol=1e-12)

    def test_rng_draws_are_deterministic(self):
        a = draw_offsets(self.dist(), 5, rng=np.random.default_rng(1)).data
        b = draw_offsets(self.dist(), 5, rng=np.random.default_rng(1)).data
        np.testing.assert_array_equal(a, b)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            draw_offsets(self.dist(), 0, rng=np.random.default_rng(0))


class TestInferenceGrid:
    def test_default_grid_has_343_points(self):
        steps = grid_steps(3, 1)
        np.testing.assert_array_equal(steps, [-3, -2, -1, 0, 1, 2, 3])
        mu = Tensor(np.zeros((1, 1, 3)))
        sigma = Tensor(np.full((1, 1, 3), 0.1))
        grid = inference_grid_offsets(OffsetDistribution(mu, sigma), 3, 1)
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


class TestDistinctLatticePoints:
    @pytest.mark.parametrize("side", [1, 2, 4, 7, 15])
    def test_side_follows_the_point_count(self, side):
        """A lattice of side^3 distinct points per group keeps them all,
        each once, in lattice order."""
        steps = np.arange(side) / side
        jx, jy, js = np.meshgrid(steps, steps, steps + 0.5 / side, indexing="ij")
        lattice = np.stack([jx.ravel(), jy.ravel(), js.ravel()], axis=-1)
        points = np.broadcast_to(lattice, (2, 1, side ** 3, 3))
        got = distinct_lattice_points(points)
        np.testing.assert_array_equal(got.points, points.reshape(-1, 3))
        np.testing.assert_array_equal(got.log_counts, np.zeros(2 * side ** 3))
        np.testing.assert_array_equal(got.starts, [0, side ** 3, 2 * side ** 3])

    def test_groups_are_contiguous_segments(self):
        """Each (entity, group) is one segment of its distinct points, with
        no padding: the segments tile the rows in group order, each starts
        with its group's lattice point 0, and its counts add up to the
        side^3 lattice points. An entity past the far corner folds to a
        one-row segment."""
        mu = Tensor(np.array([[[0.5, 0.5, 0.5], [0.0, 1.0, 0.02]],
                              [[2.0, 2.0, 2.0], [0.3, 0.6, 0.9]]]))
        sigma = Tensor(np.full((2, 2, 3), 0.1))
        offsets = inference_grid_offsets(OffsetDistribution(mu, sigma), 3, 1)
        points = accumulate_points(Tensor(np.zeros((2, 2, 1, 3))), offsets).data
        got = distinct_lattice_points(points)
        groups = points.reshape(4, 343, 3)
        distinct = [len(np.unique(group, axis=0)) for group in groups]
        assert distinct[:3] == [343, 80, 1]
        M = sum(distinct)
        assert got.points.shape == (M, 3) and got.log_counts.shape == (M,)
        assert got.starts[0] == 0 and got.starts[-1] == M
        assert np.all(np.diff(got.starts) >= 0)
        np.testing.assert_array_equal(np.diff(got.starts), distinct)
        for g, group in enumerate(groups):
            rows = slice(got.starts[g], got.starts[g + 1])
            np.testing.assert_array_equal(got.points[rows][0], group[0])
            assert np.rint(np.exp(got.log_counts[rows])).sum() == 343
        np.testing.assert_array_equal(got.points[got.starts[2]], [1.0, 1.0, 1.0])

    def test_no_groups_give_empty_segments(self):
        got = distinct_lattice_points(np.zeros((0, 2, 27, 3)))
        assert got.points.shape == (0, 3) and got.log_counts.shape == (0,)
        np.testing.assert_array_equal(got.starts, [0])

    @pytest.mark.parametrize("m", [2, 26, 28, 342])
    def test_rejects_a_point_count_that_is_not_a_cube(self, m):
        with pytest.raises(ValueError, match="not a cube"):
            distinct_lattice_points(np.zeros((1, 2, m, 3)))
