"""Relationship head: logits, pair grouping, reduction, and scores."""

import copy

import numpy as np
import pytest

from relattn.config import ConfigError
from relattn.decoder import queries
from relattn.params import ParameterRegistry
from relattn.relation_head import (
    TAU_END,
    TAU_START,
    RelationHead,
    annealing_temperature,
    final_scores,
)
from relattn.tensor import Tensor, gumbel_softmax


def make_head(d=8, heads=4, head_dim=4, P=3, seed=80):
    reg = ParameterRegistry()
    head = RelationHead(reg, d=d, heads=heads, head_dim=head_dim,
                        num_predicates=P, rng=np.random.default_rng(seed))
    return reg, head


def states(rng, n=3, K=2, d=8):
    """Subject and object states and their box embeddings."""
    return (Tensor(rng.standard_normal((n, K, d))),
            Tensor(rng.standard_normal((n, K, d))),
            Tensor(rng.standard_normal((n, 1, d))),
            Tensor(rng.standard_normal((n, 1, d))))


class TestAnnealing:
    def test_exact_endpoints(self):
        assert annealing_temperature(0, 1000) == TAU_START == 10.0
        assert annealing_temperature(300, 1000) == TAU_END == 0.5
        assert annealing_temperature(999, 1000) == 0.5

    def test_linear_in_between(self):
        mid = annealing_temperature(150, 1000)
        np.testing.assert_allclose(mid, (10.0 + 0.5) / 2.0, rtol=1e-12)

    def test_monotone_nonincreasing(self):
        taus = [annealing_temperature(i, 200) for i in range(200)]
        assert all(a >= b for a, b in zip(taus, taus[1:]))

    def test_rejects_empty_run(self):
        with pytest.raises(ConfigError):
            annealing_temperature(0, 0)


class TestAttentionLogits:
    def test_shape_and_bias(self):
        rng = np.random.default_rng(81)
        _, head = make_head()
        sub, obj, sbox, obox = states(rng)
        query = queries((sub, obj), (sbox, obox))
        logits = head.attention_logits(*query)
        assert logits.shape == (4, 6, 6)
        head.head_bias.data[:] = np.array([1.0, -2.0, 0.0, 3.0])
        shifted = head.attention_logits(*query)
        want = np.broadcast_to(
            np.array([1.0, -2.0, 0.0, 3.0])[:, None, None], (4, 6, 6))
        np.testing.assert_allclose(shifted.data - logits.data, want,
                                   atol=1e-12)

    def test_bilinear_in_subject_states(self):
        """Without the bias, logits are linear in the (shifted) query side:
        scaling both the subject states and boxes scales the logits."""
        rng = np.random.default_rng(82)
        _, head = make_head()
        sub, obj, sbox, obox = states(rng)
        base = head.attention_logits(*queries((sub, obj), (sbox, obox))).data
        doubled = head.attention_logits(*queries((Tensor(sub.data * 2), obj),
                                                 (Tensor(sbox.data * 2), obox))).data
        np.testing.assert_allclose(doubled, base * 2, rtol=1e-10)


class TestGrouping:
    def test_group_pairs_matches_index_arithmetic(self):
        """Entry (p, i, j, k_s * K + k_o) must equal predicate p's linear
        map of the head logits at row i * K + k_s, column j * K + k_o, and
        the relatedness entry (i, j, k_s * K + k_o) likewise."""
        rng = np.random.default_rng(83)
        n, K, P = 3, 2, 4
        _, head = make_head(P=P)
        for lin in (head.to_predicates, head.to_relatedness):
            lin.bias.data[:] = rng.standard_normal(lin.bias.shape)
        logits = rng.standard_normal((head.heads, n * K, n * K))
        g_pred, g_rel = head.group_pairs(Tensor(logits), n, K)
        assert g_pred.shape == (P, n, n, K * K)
        assert g_rel.shape == (n, n, K * K)
        w_pred, b_pred = head.to_predicates.weight.data, head.to_predicates.bias.data
        w_rel, b_rel = head.to_relatedness.weight.data, head.to_relatedness.bias.data
        for i in range(n):
            for j in range(n):
                for ks in range(K):
                    for ko in range(K):
                        slot = ks * K + ko
                        heads = logits[:, i * K + ks, j * K + ko]
                        np.testing.assert_allclose(
                            g_pred.data[:, i, j, slot],
                            heads @ w_pred + b_pred, rtol=1e-12, atol=1e-12)
                        np.testing.assert_allclose(
                            g_rel.data[i, j, slot], heads @ w_rel[:, 0] + b_rel[0],
                            rtol=1e-12, atol=1e-12)


class TestReduce:
    def grouped(self, rng, P=3, n=2, K=2):
        pred = Tensor(rng.standard_normal((P, n, n, K * K)))
        rel = Tensor(rng.standard_normal((n, n, K * K)))
        return pred, rel

    def test_infer_takes_max(self):
        rng = np.random.default_rng(84)
        _, head = make_head()
        pred, rel = self.grouped(rng)
        out_pred, out_rel = head.reduce_pairs(pred, rel, "infer")
        np.testing.assert_array_equal(out_pred.data, pred.data.max(axis=-1))
        np.testing.assert_array_equal(out_rel.data, rel.data.max(axis=-1))

    def test_train_weighs_by_gumbel_softmax(self):
        rng = np.random.default_rng(85)
        _, head = make_head()
        pred, rel = self.grouped(rng)
        draws = np.random.default_rng(5)
        out_pred, out_rel = head.reduce_pairs(pred, rel, "train", tau=1.0,
                                              rng=copy.deepcopy(draws))
        weights = gumbel_softmax(pred, 1.0, draws)
        np.testing.assert_allclose(weights.data.sum(axis=-1),
                                   np.ones(weights.shape[:-1]), atol=1e-12)
        np.testing.assert_allclose(
            out_pred.data, (weights.data * pred.data).sum(axis=-1),
            rtol=1e-12)
        # Relatedness still reduces by max in train mode.
        np.testing.assert_array_equal(out_rel.data, rel.data.max(axis=-1))

    def test_hard_mode_picks_single_slot(self):
        rng = np.random.default_rng(86)
        _, head = make_head()
        pred, rel = self.grouped(rng)
        draws = np.random.default_rng(6)
        out_pred, _ = head.reduce_pairs(pred, rel, "train", tau=0.7, rng=copy.deepcopy(draws),
                                        hard=True)
        weights = gumbel_softmax(pred, 0.7, draws, hard=True)
        w = weights.data
        assert set(np.unique(w)) <= {0.0, 1.0}
        np.testing.assert_allclose(w.sum(axis=-1),
                                   np.ones(w.shape[:-1]), atol=1e-12)
        picked = (w * pred.data).sum(axis=-1)
        np.testing.assert_array_equal(out_pred.data, picked)

    def test_train_requires_temperature(self):
        """Training needs a temperature and a generator for the Gumbel
        noise; an unknown mode raises too."""
        rng = np.random.default_rng(87)
        _, head = make_head()
        pred, rel = self.grouped(rng)
        with pytest.raises(ValueError):
            head.reduce_pairs(pred, rel, "train", rng=rng)
        with pytest.raises(ValueError, match="rng"):
            head.reduce_pairs(pred, rel, "train", tau=1.0)
        with pytest.raises(ValueError):
            head.reduce_pairs(pred, rel, "blend")


class TestScores:
    def test_geometric_mean_with_zero_diagonal(self):
        rng = np.random.default_rng(88)
        P, n = 3, 4
        pred = rng.standard_normal((P, n, n))
        rel = rng.standard_normal((n, n))
        s = final_scores(pred, rel)
        sig = lambda x: 1.0 / (1.0 + np.exp(-x))
        want = np.sqrt(sig(pred) * sig(rel)[None])
        want *= (1.0 - np.eye(n))[None]
        np.testing.assert_allclose(s, want, rtol=1e-12)
        assert np.all(s >= 0.0) and np.all(s <= 1.0)

    def test_forward_shapes_both_modes(self):
        rng = np.random.default_rng(89)
        _, head = make_head()
        sub, obj, sbox, obox = states(rng)
        query = queries((sub, obj), (sbox, obox))
        out = head.forward(*query, mode="infer")
        assert out.predicate_logits.shape == (3, 3, 3)
        assert out.relatedness_logits.shape == (3, 3)
        assert out.scores.shape == (3, 3, 3)
        tr = head.forward(*query, mode="train", tau=2.0, rng=np.random.default_rng(0))
        assert tr.predicate_logits.shape == (3, 3, 3)
        np.testing.assert_array_equal(np.diagonal(tr.scores,
                                                  axis1=1, axis2=2), 0.0)
