"""Training objectives: frozen spot values, brute-force oracles, and
gradient checks."""

import numpy as np
import pytest

from relattn.losses import (
    GroundTruthRelations,
    focal_bce,
    margin_ranking_loss,
    mask_loss,
    predicate_gammas,
    rep_point_margin_loss,
    union_enclosing_boxes,
)
from relattn.tensor import Tensor
from relattn.gradcheck import check_gradients

from oracles import rep_point_margin_oracle, union_enclosing_boxes_oracle


def sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def gt_for(triplets, n, P):
    return GroundTruthRelations.from_triplets(triplets, n, P)


def assert_exact_zero(loss):
    """A loss without supervision: exactly 0, and off the tape."""
    assert loss.data == 0.0 and not loss.requires_grad and loss._parents == ()


class TestGammas:
    def test_uniform_priors_give_zero(self):
        np.testing.assert_array_equal(
            predicate_gammas(np.full(4, 0.25), 2.0), np.zeros(4))

    def test_head_gets_base_tail_gets_zero(self):
        priors = np.array([0.5, 0.3, 0.2])
        g = predicate_gammas(priors, 2.0)
        np.testing.assert_allclose(g[0], 2.0)
        np.testing.assert_allclose(g[2], 0.0)
        np.testing.assert_allclose(g[1], 2.0 * (0.3 - 0.2) / (0.5 - 0.2))

    def test_rejects_bad_priors(self):
        with pytest.raises(ValueError):
            predicate_gammas(np.array([0.5, 0.0, 0.5]), 2.0)
        with pytest.raises(ValueError):
            predicate_gammas(np.array([0.5, 0.3]), 2.0)


class TestFocalBce:
    def test_spot_value_single_positive(self):
        """One positive at logit 0 with gamma 2 and alpha 0.75:
        0.75 * (1 - sigmoid(0))^2 * -log sigmoid(0) = 0.75 * 0.25 * log 2,
        and each negative at logit 0 adds 0.25 * 0.25 * log 2."""
        gt = gt_for([(0, 0, 1)], 2, 1)
        logits = Tensor(np.zeros((1, 2, 2)))
        loss = focal_bce(logits, gt, alpha=0.75, gammas=np.array([2.0]))
        want = 0.75 * 0.25 * np.log(2.0) + 0.25 * 0.25 * np.log(2.0)
        np.testing.assert_allclose(loss.data, want, rtol=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(90)
        P, n = 3, 4
        gt = gt_for([(0, 0, 1), (1, 1, 2), (2, 2, 0), (0, 2, 3)], n, P)
        x = rng.standard_normal((P, n, n)) * 2
        gammas = np.array([2.0, 1.0, 0.0])
        loss = focal_bce(Tensor(x), gt, alpha=0.75, gammas=gammas)

        g = gammas[:, None, None]
        off = (1.0 - np.eye(n))[None]
        pos = (1 - sig(x)) ** g * -np.log(sig(x))
        neg = sig(x) ** g * -np.log(1 - sig(x))
        want = (0.75 * pos * gt.targets * off
                + 0.25 * neg * (1 - gt.targets) * off).sum()
        want /= gt.num_positive
        np.testing.assert_allclose(loss.data, want, rtol=1e-10)

    def test_diagonal_never_contributes(self):
        gt = gt_for([(0, 0, 1)], 3, 2)
        base = np.zeros((2, 3, 3))
        spiked = base.copy()
        spiked[:, np.arange(3), np.arange(3)] = 17.0
        a = focal_bce(Tensor(base), gt, 0.75, np.zeros(2))
        b = focal_bce(Tensor(spiked), gt, 0.75, np.zeros(2))
        np.testing.assert_allclose(a.data, b.data, rtol=1e-12)

    def test_no_positives_skips(self):
        gt = gt_for([], 3, 2)
        loss = focal_bce(Tensor(np.ones((2, 3, 3)), requires_grad=True), gt, 0.75,
                         np.zeros(2))
        assert_exact_zero(loss)

    def test_stable_at_extreme_logits(self):
        gt = gt_for([(0, 0, 1)], 2, 1)
        loss = focal_bce(Tensor(np.full((1, 2, 2), -500.0)), gt, 0.75,
                            np.array([2.0]))
        assert np.isfinite(loss.data)

    def test_gradient(self):
        rng = np.random.default_rng(91)
        gt = gt_for([(0, 0, 1), (2, 1, 0)], 3, 2)
        x = Tensor(rng.standard_normal((2, 3, 3)), requires_grad=True)
        err = check_gradients(
            lambda t: focal_bce(t, gt, 0.75, np.array([2.0, 0.5])), x)
        assert err < 1e-6


class TestMaskLoss:
    def test_subsampling_caps_negatives(self):
        """With ratio 1 and one positive pair, exactly one negative pair
        enters the loss."""
        gt = gt_for([(0, 0, 1)], 4, 1)
        x = np.zeros((4, 4))
        loss = mask_loss(Tensor(x), gt, alpha=0.75, gamma=2.0,
                         neg_ratio=1, rng=np.random.default_rng(0))
        want = 0.75 * 0.25 * np.log(2.0) + 0.25 * 0.25 * np.log(2.0)
        np.testing.assert_allclose(loss.data, want, rtol=1e-12)

    def test_quota_clips_to_available(self):
        gt = gt_for([(0, 0, 1)], 2, 1)  # only one negative off-diagonal pair
        loss = mask_loss(Tensor(np.zeros((2, 2))), gt, 0.75, 2.0,
                            neg_ratio=10, rng=np.random.default_rng(0))
        assert np.isfinite(loss.data)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(92)
        gt = gt_for([(0, 0, 1), (2, 1, 3)], 6, 2)
        x = rng.standard_normal((6, 6))
        a = mask_loss(Tensor(x), gt, 0.75, 2.0, 10,
                         np.random.default_rng(7))
        b = mask_loss(Tensor(x), gt, 0.75, 2.0, 10,
                         np.random.default_rng(7))
        np.testing.assert_array_equal(a.data, b.data)

    def test_gradient(self):
        rng = np.random.default_rng(93)
        gt = gt_for([(0, 0, 1), (2, 1, 3)], 5, 2)
        x = Tensor(rng.standard_normal((5, 5)), requires_grad=True)
        err = check_gradients(
            lambda t: mask_loss(t, gt, 0.75, 2.0, 10,
                                np.random.default_rng(3)), x)
        assert err < 1e-6


class TestMarginRanking:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(94)
        P, n = 3, 4
        triplets = [(0, 0, 1), (1, 0, 2), (2, 1, 0), (3, 1, 2)]
        gt = gt_for(triplets, n, P)
        x = rng.standard_normal((P, n, n))
        loss = margin_ranking_loss(Tensor(x), gt)

        s = sig(x)
        total, count = 0.0, 0
        for p in range(P):
            positives = [s[p, i, j] for i in range(n) for j in range(n)
                         if gt.targets[p, i, j] == 1.0]
            if not positives:
                continue
            floor = min(positives)
            for i in range(n):
                for j in range(n):
                    if i == j or gt.targets[p, i, j] == 1.0:
                        continue
                    total += max(0.0, s[p, i, j] - floor)
                    count += 1
        np.testing.assert_allclose(loss.data, total / count, rtol=1e-10)

    def test_predicates_without_positives_are_ignored(self):
        """A predicate with no positive in the scene contributes no
        negatives either."""
        gt = gt_for([(0, 0, 1)], 3, 2)
        x = np.zeros((2, 3, 3))
        x[1] = 50.0  # would dominate if predicate 1 were eligible
        loss = margin_ranking_loss(Tensor(x), gt)
        s0 = sig(0.0)
        # predicate 0: floor is the single positive, all five negatives tie.
        np.testing.assert_allclose(loss.data, 0.0, atol=1e-12)

    def test_separated_scene_has_zero_loss(self):
        gt = gt_for([(0, 0, 1)], 2, 1)
        x = np.full((1, 2, 2), -8.0)
        x[0, 0, 1] = 8.0
        loss = margin_ranking_loss(Tensor(x), gt)
        np.testing.assert_allclose(loss.data, 0.0, atol=1e-12)

    def test_no_positive_skips(self):
        gt = gt_for([], 3, 2)
        loss = margin_ranking_loss(Tensor(np.ones((2, 3, 3)), requires_grad=True), gt)
        assert_exact_zero(loss)

    def test_gradient(self):
        rng = np.random.default_rng(95)
        gt = gt_for([(0, 0, 1), (2, 1, 0)], 3, 2)
        x = Tensor(rng.standard_normal((2, 3, 3)), requires_grad=True)
        err = check_gradients(lambda t: margin_ranking_loss(t, gt), x)
        assert err < 1e-6


class TestRepPointMargin:
    def boxes(self):
        return np.array([
            [0.1, 0.1, 0.3, 0.3],
            [0.5, 0.5, 0.8, 0.9],
            [0.0, 0.6, 0.2, 0.8],
        ])

    def test_union_enclosing_boxes(self):
        triplets = [(0, 0, 1), (1, 0, 2)]
        enc, involved = union_enclosing_boxes(triplets, self.boxes())
        assert involved.all()
        # Entity 1 participates in both triplets; its enclosure spans the
        # union of both pair unions.
        np.testing.assert_allclose(enc[1], [0.0, 0.1, 0.8, 0.9])
        np.testing.assert_allclose(enc[0], [0.1, 0.1, 0.8, 0.9])

    def test_points_inside_cost_nothing(self):
        triplets = [(0, 0, 1)]
        pts = Tensor(np.array([[[0.2, 0.2, 0.9]], [[0.6, 0.7, 0.1]]]), requires_grad=True)
        loss = rep_point_margin_loss([pts], triplets, self.boxes()[:2])
        assert loss.requires_grad  # taken, not skipped
        np.testing.assert_allclose(loss.data, 0.0, atol=1e-12)

    def test_outside_distance_is_averaged(self):
        """One point 0.2 beyond the right edge of a [0.1, 0.9] enclosure:
        the hinge averages over involved * K * 2 coordinates."""
        triplets = [(0, 0, 1)]
        boxes = np.array([[0.1, 0.1, 0.9, 0.9], [0.2, 0.2, 0.8, 0.8]])
        pts = np.array([[[1.1, 0.5, 0.0]], [[0.5, 0.5, 0.0]]])
        loss = rep_point_margin_loss([Tensor(pts)], triplets, boxes)
        np.testing.assert_allclose(loss.data, 0.2 / (2 * 1 * 2), rtol=1e-12)

    def test_uninvolved_entities_are_free(self):
        triplets = [(0, 0, 1)]
        pts = np.zeros((3, 1, 3))
        pts[0] = [0.2, 0.2, 0.0]
        pts[1] = [0.6, 0.7, 0.0]
        pts[2] = [5.0, -3.0, 0.5]  # entity 2 has no relations
        loss = rep_point_margin_loss([Tensor(pts)], triplets, self.boxes())
        np.testing.assert_allclose(loss.data, 0.0, atol=1e-12)

    def test_scale_coordinate_unconstrained(self):
        triplets = [(0, 0, 1)]
        pts = np.array([[[0.2, 0.2, 99.0]], [[0.6, 0.7, -99.0]]])
        loss = rep_point_margin_loss([Tensor(pts)], triplets,
                                        self.boxes()[:2])
        np.testing.assert_allclose(loss.data, 0.0, atol=1e-12)

    def test_layers_sum(self):
        triplets = [(0, 0, 1)]
        boxes = np.array([[0.1, 0.1, 0.9, 0.9], [0.2, 0.2, 0.8, 0.8]])
        pts = Tensor(np.array([[[1.1, 0.5, 0.0]], [[0.5, 0.5, 0.0]]]))
        single = rep_point_margin_loss([pts], triplets, boxes)
        double = rep_point_margin_loss([pts, pts], triplets, boxes)
        np.testing.assert_allclose(double.data, 2 * single.data, rtol=1e-12)

    def test_empty_triplets_skip(self):
        loss = rep_point_margin_loss(
            [Tensor(np.zeros((2, 1, 3)), requires_grad=True)], [], self.boxes()[:2])
        assert_exact_zero(loss)

    def test_gradient(self):
        rng = np.random.default_rng(96)
        triplets = [(0, 0, 1), (1, 0, 2)]
        pts = Tensor(rng.uniform(-0.3, 1.3, (3, 2, 3)), requires_grad=True)
        err = check_gradients(
            lambda t: rep_point_margin_loss([t], triplets, self.boxes()),
            pts)
        assert err < 1e-5

    def scene(self):
        """P=50 predicates over n=25 entities, some in no triplet, and two
        point sets of K=4 means, many outside their boxes."""
        rng = np.random.default_rng(97)
        triplets = [(int(s), int(rng.integers(50)), int(o))
                    for s, o in rng.integers(25, size=(12, 2)) if s != o]
        corners = rng.uniform(0.0, 1.0, (25, 2, 2))
        boxes = np.concatenate([corners.min(axis=1), corners.max(axis=1)], axis=1)
        points = [rng.uniform(-0.3, 1.3, (25, 4, 3)) for _ in range(2)]
        return triplets, boxes, points

    def test_union_enclosing_boxes_matches_oracle(self):
        triplets, boxes, _ = self.scene()
        enc, involved = union_enclosing_boxes(triplets, boxes)
        want_enc, want_involved = union_enclosing_boxes_oracle(triplets, boxes)
        assert not want_involved.all()  # some entities stay unconstrained
        np.testing.assert_array_equal(involved, want_involved)
        np.testing.assert_array_equal(enc, want_enc)

    def test_matches_per_set_oracle(self):
        triplets, boxes, points = self.scene()
        leaves = [Tensor(p, requires_grad=True) for p in points]
        loss = rep_point_margin_loss(leaves, triplets, boxes)
        loss.backward()
        want, want_grads = rep_point_margin_oracle(points, triplets, boxes)
        assert want > 0
        np.testing.assert_allclose(loss.data, want, rtol=0, atol=1e-12)
        for leaf, g in zip(leaves, want_grads):
            np.testing.assert_allclose(leaf.grad, g, rtol=0, atol=1e-12)

    def test_mixed_point_set_shapes_raise(self):
        triplets, boxes, points = self.scene()
        with pytest.raises(ValueError):
            rep_point_margin_loss([Tensor(points[0]), Tensor(points[1][:, :2])],
                                  triplets, boxes)
