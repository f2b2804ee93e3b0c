"""Performance-guided logit adjustment: weight/bias formula, per-instance
adjustment, budgeted performance measurement, and confusion tracking."""

import dataclasses

import numpy as np
import pytest

from relattn.evalkit import ranked_triplets, recall_at_k
from relattn.losses import GroundTruthRelations
from relattn.pgla import (
    PglaState,
    adjust_logits,
    batch_performance,
    compute_wb,
    update_confusion,
    update_performance,
)
from relattn.tensor import Tensor

from oracles import budget_precision_oracle, budget_recall_oracle, \
    confusion_oracle, recall_at_k_oracle


def state_with(priors, r=None, lam=1.0, metric="recall", confusion=None):
    st = PglaState.create(np.asarray(priors, dtype=np.float64), lam=lam,
                          metric=metric)
    if r is not None:
        st = dataclasses.replace(st, r=np.asarray(r, dtype=np.float64))
    if confusion is not None:
        st = dataclasses.replace(st, confusion=np.asarray(confusion,
                                                          dtype=np.float64))
    return st


def gt_for(triplets, n, P):
    return GroundTruthRelations.from_triplets(triplets, n, P)


class TestComputeWb:
    def test_uniform_estimate_recovers_logit_adjustment(self):
        priors = np.array([0.5, 0.3, 0.2])
        st = state_with(priors, r=[0.4, 0.4, 0.4])
        W, B = compute_wb(st)
        np.testing.assert_array_equal(W, np.ones(3))
        np.testing.assert_allclose(B, np.log(priors), atol=1e-12)

    def test_frozen_spot_value(self):
        """A predicate half a unit above the mean estimate among fifty
        predicates with prior 0.1 lands at W = 0.53788..., B = -0.49477...
        (frozen from a direct high-precision evaluation)."""
        P = 50
        priors = np.full(P, 0.9 / 49)
        priors[0] = 0.1
        r = np.zeros(P)
        r[0] = 0.5 * P / (P - 1)  # centers to dr[0] = 0.5
        st = state_with(priors, r=r)
        W, B = compute_wb(st)
        np.testing.assert_allclose(W[0], 0.5378828427399902, rtol=1e-12)
        np.testing.assert_allclose(B[0], -0.49477214258983104, rtol=1e-9)
        np.testing.assert_allclose(W[0], 0.5379, atol=5e-5)
        np.testing.assert_allclose(B[0], -0.4948, atol=5e-5)

    def test_weight_bounds_and_centering(self):
        rng = np.random.default_rng(100)
        priors = np.full(8, 0.125)
        st = state_with(priors, r=rng.uniform(0, 1, 8))
        W, B = compute_wb(st)
        assert np.all(W > 0.0) and np.all(W < 2.0)
        dr = st.r - st.r.mean()
        np.testing.assert_allclose(dr.mean(), 0.0, atol=1e-15)

    def test_saturated_estimate_limits(self):
        """Far above the mean, W collapses toward 0 and B rises toward
        log prior + log P."""
        priors = np.array([0.5, 0.5])
        st = state_with(priors, r=[60.0, -60.0])
        W, B = compute_wb(st)
        np.testing.assert_allclose(W[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(B[0], np.log(0.5) + np.log(2), atol=1e-9)

    def test_larger_lambda_pulls_bias_toward_plain_adjustment(self):
        """|B(lam2) - log prior| <= |B(lam1) - log prior| for lam2 > lam1."""
        rng = np.random.default_rng(101)
        priors = np.array([0.4, 0.3, 0.2, 0.1])
        r = rng.uniform(0, 1, 4)
        gaps = []
        for lam in (0.5, 1.0, 5.0):
            _, B = compute_wb(state_with(priors, r=r, lam=lam))
            gaps.append(np.abs(B - np.log(priors)))
        assert np.all(gaps[1] <= gaps[0] + 1e-15)
        assert np.all(gaps[2] <= gaps[1] + 1e-15)


class TestAdjustLogits:
    def test_identity_when_neutral(self):
        rng = np.random.default_rng(102)
        gt = gt_for([(0, 0, 1), (1, 1, 2)], 3, 2)
        x = rng.standard_normal((2, 3, 3))
        out = adjust_logits(Tensor(x), gt, np.ones(2), np.zeros(2),
                            np.zeros((2, 2)))
        np.testing.assert_allclose(out.data, x, rtol=1e-12)

    def test_negative_pairs_pass_through(self):
        rng = np.random.default_rng(103)
        gt = gt_for([(0, 0, 1)], 3, 2)
        x = rng.standard_normal((2, 3, 3))
        W = np.array([0.5, 1.5])
        B = np.array([-1.0, 2.0])
        D = rng.uniform(0, 1, (2, 2))
        np.fill_diagonal(D, 0.0)
        out = adjust_logits(Tensor(x), gt, W, B, D).data
        pair = gt.pair_targets
        for i in range(3):
            for j in range(3):
                if pair[i, j] == 0:
                    np.testing.assert_array_equal(out[:, i, j], x[:, i, j])

    def test_single_positive_row_formula(self):
        """A pair annotated with predicate p alone maps to
        W * logits + B + confusion[p, :]."""
        rng = np.random.default_rng(104)
        gt = gt_for([(0, 1, 1)], 2, 3)
        x = rng.standard_normal((3, 2, 2))
        W = rng.uniform(0.5, 1.5, 3)
        B = rng.standard_normal(3)
        D = rng.uniform(0, 1, (3, 3))
        np.fill_diagonal(D, 0.0)
        out = adjust_logits(Tensor(x), gt, W, B, D).data
        want = W * x[:, 0, 1] + B + D[1, :]
        np.testing.assert_allclose(out[:, 0, 1], want, rtol=1e-12)

    def test_multi_positive_takes_rowwise_max(self):
        gt = gt_for([(0, 0, 1), (0, 2, 1)], 2, 3)
        x = np.zeros((3, 2, 2))
        D = np.array([[0.0, 0.3, 0.1],
                      [0.0, 0.0, 0.0],
                      [0.5, 0.2, 0.0]])
        out = adjust_logits(Tensor(x), gt, np.ones(3), np.zeros(3), D).data
        want = np.maximum(D[0], D[2])
        np.testing.assert_allclose(out[:, 0, 1], want, rtol=1e-12)

    def test_uniform_estimate_reproduces_logit_adjustment(self):
        """End to end: a fresh state adjusts positives by exactly
        logits + log priors."""
        rng = np.random.default_rng(105)
        priors = np.array([0.6, 0.3, 0.1])
        st = PglaState.create(priors)
        W, B = compute_wb(st)
        gt = gt_for([(0, 1, 1), (1, 0, 2)], 3, 3)
        x = rng.standard_normal((3, 3, 3))
        out = adjust_logits(Tensor(x), gt, W, B, st.confusion).data
        for i, j in ((0, 1), (1, 2)):
            np.testing.assert_allclose(out[:, i, j],
                                       x[:, i, j] + np.log(priors),
                                       atol=1e-12)


class TestRanking:
    """Budgets are filled from the evaluation ranker."""

    def test_tie_break_is_lexicographic(self):
        scores = np.zeros((2, 3, 3))
        ranked = ranked_triplets(scores)
        want = [(p, i, j) for p in range(2) for i in range(3)
                for j in range(3) if i != j]
        np.testing.assert_array_equal(ranked, np.array(want))

    def test_descending_by_score_first(self):
        scores = np.zeros((1, 3, 3))
        scores[0, 2, 1] = 5.0
        scores[0, 0, 2] = 3.0
        ranked = ranked_triplets(scores)
        np.testing.assert_array_equal(ranked[0], [0, 2, 1])
        np.testing.assert_array_equal(ranked[1], [0, 0, 2])


class TestBatchPerformance:
    def test_top_ranked_single_truth(self):
        scores = np.zeros((2, 2, 2))
        scores[1, 0, 1] = 9.0
        gt = gt_for([(0, 1, 1)], 2, 2)
        values, updated = batch_performance(scores, gt,
                                            np.array([0.9, 0.1]))
        assert updated[1] and not updated[0]
        np.testing.assert_array_equal(values, [0.0, 1.0])

    def test_hand_traced_budgets(self):
        """Two predicates with one truth each, both ranked below their
        budgets (1 and 2), measure zero recall."""
        priors = np.array([0.7, 0.3])
        scores = np.zeros((2, 2, 2))
        scores[0, 1, 0] = 4.0   # non-truth candidates occupy the top ranks
        scores[1, 0, 1] = 3.0
        scores[0, 0, 1] = 2.0   # truth of predicate 0: rank 3
        scores[1, 1, 0] = 1.0   # truth of predicate 1: rank 4
        gt = gt_for([(0, 0, 1), (1, 1, 0)], 2, 2)
        values, updated = batch_performance(scores, gt, priors)
        assert updated.all()
        np.testing.assert_array_equal(values, [0.0, 0.0])

    def test_matches_recall_oracle_on_random_scenes(self):
        rng = np.random.default_rng(106)
        for _ in range(60):
            P = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            priors = rng.dirichlet(np.ones(P) * 2)
            scores = rng.standard_normal((P, n, n))
            triplets = []
            for i in range(n):
                for j in range(n):
                    if i != j and rng.random() < 0.3:
                        triplets.append((i, int(rng.integers(0, P)), j))
            gt = gt_for(triplets, n, P)
            values, updated = batch_performance(scores, gt, priors)
            want, present = budget_recall_oracle(scores, triplets, priors)
            np.testing.assert_array_equal(updated, present)
            np.testing.assert_array_equal(values, want)

    def test_matches_precision_oracle_on_random_scenes(self):
        rng = np.random.default_rng(107)
        for _ in range(60):
            P = int(rng.integers(2, 6))
            n = int(rng.integers(2, 6))
            priors = rng.dirichlet(np.ones(P) * 2)
            scores = rng.standard_normal((P, n, n))
            triplets = []
            for i in range(n):
                for j in range(n):
                    if i != j and rng.random() < 0.35:
                        triplets.append((i, int(rng.integers(0, P)), j))
            gt = gt_for(triplets, n, P)
            values, updated = batch_performance(scores, gt, priors,
                                                metric="precision")
            want, present = budget_precision_oracle(scores, triplets, priors)
            np.testing.assert_array_equal(updated, present)
            np.testing.assert_array_equal(values, want)

    def test_matches_oracles_at_visual_genome_size(self):
        """P=50 predicates over n=25 entities (30,000 candidates): the
        shared ranker agrees with the exhaustive oracles on budgeted
        recall and precision, and on recall@K with and without the graph
        constraint. Truths score about four points higher, so they fill
        the budgets, and every score is rounded to an integer, so the
        budgets and top-K lists cut through tie groups."""
        rng = np.random.default_rng(109)
        P, n = 50, 25
        priors = 1.0 / np.arange(1, P + 1) ** 1.2
        priors = rng.permutation(priors / priors.sum())
        triplets = [(i, int(rng.choice(P, p=priors)), j)
                    for i in range(n) for j in range(n)
                    if i != j and rng.random() < 0.1]
        gt = gt_for(triplets, n, P)
        scores = np.round(rng.standard_normal((P, n, n)) + 4.0 * gt.targets)
        for metric, oracle in (("recall", budget_recall_oracle),
                               ("precision", budget_precision_oracle)):
            values, updated = batch_performance(scores, gt, priors,
                                                metric=metric)
            want, present = oracle(scores, triplets, priors)
            np.testing.assert_array_equal(updated, present)
            np.testing.assert_array_equal(values, want)
        ones = np.ones((n, n))
        for graph_constraint in (False, True):
            ranked = ranked_triplets(scores, graph_constraint=graph_constraint)
            for k in (20, 50, 100):
                assert recall_at_k(ranked, triplets, k) == recall_at_k_oracle(
                    scores, ones, triplets, k, graph_constraint=graph_constraint)

    def test_precision_skips_when_never_predicted(self):
        """A predicate whose budget contains no candidate of its own kind
        reports no value."""
        priors = np.array([0.9, 0.1])
        scores = np.zeros((2, 2, 2))
        scores[0, 0, 1] = 5.0
        scores[0, 1, 0] = 4.0   # predicate 0 fills every top slot
        gt = gt_for([(0, 1, 1)], 2, 2)  # predicate 1 has budget 1
        values, updated = batch_performance(scores, gt, priors,
                                            metric="precision")
        assert not updated[1]


class TestEma:
    def test_momentum_follows_priors(self):
        priors = np.array([0.5, 0.3, 0.2])
        st = PglaState.create(priors)
        np.testing.assert_allclose(st.rho, 0.9999 ** (-np.log(priors)),
                                   rtol=1e-12)
        assert np.all(st.rho > 0) and np.all(st.rho < 1)
        assert st.rho[0] > st.rho[2]  # frequent predicates move slower

    def test_update_keeps_estimate_in_unit_interval(self):
        rng = np.random.default_rng(108)
        priors = np.array([0.6, 0.4])
        st = state_with(priors, r=[0.8, 0.1])
        for _ in range(50):
            scores = rng.standard_normal((2, 3, 3))
            gt = gt_for([(0, int(rng.integers(0, 2)), 1)], 3, 2)
            st = update_performance(st, scores, gt)
            assert np.all(st.r >= 0.0) and np.all(st.r <= 1.0)

    def test_absent_predicates_keep_their_estimate(self):
        priors = np.array([0.6, 0.4])
        st = state_with(priors, r=[0.5, 0.7])
        scores = np.zeros((2, 2, 2))
        scores[0, 0, 1] = 1.0
        gt = gt_for([(0, 0, 1)], 2, 2)
        out = update_performance(st, scores, gt)
        assert out.r[1] == 0.7
        assert out.r[0] != 0.5


class TestConfusion:
    def test_zero_when_truth_dominates(self):
        priors = np.array([0.5, 0.3, 0.2])
        st = PglaState.create(priors)
        logits = np.full((3, 3, 3), -2.0)
        logits[1, 0, 2] = 4.0
        gt = gt_for([(0, 1, 2)], 3, 3)
        out = update_confusion(st, logits, gt)
        np.testing.assert_array_equal(out.confusion, np.zeros((3, 3)))

    def test_rarer_columns_are_gated_off(self):
        """Confusion toward less frequent predicates never registers."""
        priors = np.array([0.7, 0.3])
        st = PglaState.create(priors)
        logits = np.zeros((2, 2, 2))
        logits[1, 0, 1] = 10.0  # rare predicate outscores the frequent GT
        gt = gt_for([(0, 0, 1)], 2, 2)
        out = update_confusion(st, logits, gt)
        np.testing.assert_array_equal(out.confusion, np.zeros((2, 2)))

    def test_frozen_spot_case(self):
        """Truth logit 1 against a twenty-times-more-frequent rival at 3:
        the batch entry is 2 * tanh(log 20), folded once by the EMA."""
        priors = np.array([1.0 / 21.0, 20.0 / 21.0])
        st = PglaState.create(priors)
        logits = np.zeros((2, 2, 2))
        logits[0, 0, 1] = 1.0
        logits[1, 0, 1] = 3.0
        gt = gt_for([(0, 0, 1)], 2, 2)
        out = update_confusion(st, logits, gt)
        batch = 2.0 * np.tanh(np.log(20.0))
        fold = 1.0 - st.rho[0]
        np.testing.assert_allclose(out.confusion[0, 1], fold * batch,
                                   rtol=1e-12)
        assert out.confusion[1, 0] == 0.0

    def test_diagonal_stays_zero_and_entries_nonnegative(self):
        rng = np.random.default_rng(109)
        priors = np.array([0.5, 0.3, 0.2])
        st = PglaState.create(priors)
        for _ in range(20):
            logits = rng.standard_normal((3, 4, 4)) * 3
            triplets = [(0, int(rng.integers(0, 3)), 1),
                        (2, int(rng.integers(0, 3)), 3)]
            st = update_confusion(st, logits, gt_for(triplets, 4, 3))
        assert np.all(st.confusion >= 0.0)
        np.testing.assert_array_equal(np.diag(st.confusion), np.zeros(3))

    def test_matches_loop_oracle_at_visual_genome_size(self):
        """P=50 predicates over n=25 entities, several folds with many
        instances per predicate: the vectorized fold equals the
        per-instance loop bit for bit."""
        rng = np.random.default_rng(110)
        P, n = 50, 25
        priors = 1.0 / np.arange(1, P + 1) ** 1.2
        priors = rng.permutation(priors / priors.sum())
        st = PglaState.create(priors)
        for _ in range(4):
            triplets = [(i, int(rng.choice(P, p=priors)), j)
                        for i in range(n) for j in range(n)
                        if i != j and rng.random() < 0.1]
            gt = gt_for(triplets, n, P)
            logits = rng.standard_normal((P, n, n)) * 3
            want = confusion_oracle(st.confusion, st.priors, st.rho, logits,
                                    gt.targets)
            st = update_confusion(st, logits, gt)
            assert np.array_equal(st.confusion, want)
        assert np.count_nonzero(st.confusion) > P

    def test_instances_average_within_batch(self):
        priors = np.array([1.0 / 21.0, 20.0 / 21.0])
        st = PglaState.create(priors)
        logits = np.zeros((2, 3, 3))
        logits[0, 0, 1] = 1.0
        logits[1, 0, 1] = 3.0   # surplus 2
        logits[0, 1, 2] = 1.0
        logits[1, 1, 2] = 5.0   # surplus 4
        gt = gt_for([(0, 0, 1), (1, 0, 2)], 3, 2)
        out = update_confusion(st, logits, gt)
        batch = 3.0 * np.tanh(np.log(20.0))  # mean of 2 and 4
        np.testing.assert_allclose(out.confusion[0, 1],
                                   (1.0 - st.rho[0]) * batch, rtol=1e-12)


class TestStateValidation:
    def test_create_rejects_bad_priors(self):
        with pytest.raises(ValueError):
            PglaState.create(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            PglaState.create(np.array([1.0, 0.0]))

    def test_create_rejects_bad_lambda_and_metric(self):
        with pytest.raises(ValueError):
            PglaState.create(np.array([0.5, 0.5]), lam=0.0)
        with pytest.raises(ValueError):
            PglaState.create(np.array([0.5, 0.5]), metric="accuracy")
