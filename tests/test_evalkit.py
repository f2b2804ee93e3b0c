"""Retrieval metrics: candidate ranking, recall aggregation, zero-shot
filtering, and metrics CSV output."""

import numpy as np

from relattn.evalkit import (
    aggregate_mean_recall,
    aggregate_recall,
    format_value,
    per_predicate_recall_at_k,
    ranked_triplets,
    recall_at_k,
    write_metrics_csv,
    zero_shot_filter,
)

from oracles import recall_at_k_oracle


class TestRanking:
    def test_excludes_diagonal(self):
        rng = np.random.default_rng(120)
        ranked = ranked_triplets(rng.standard_normal((3, 4, 4)))
        assert ranked.shape == (3 * 4 * 3, 3)
        assert (ranked[:, 1] != ranked[:, 2]).all()

    def test_orders_by_score_descending(self):
        rng = np.random.default_rng(121)
        scores = rng.standard_normal((2, 3, 3))
        ranked = ranked_triplets(scores)
        vals = scores[ranked[:, 0], ranked[:, 1], ranked[:, 2]].tolist()
        assert vals == sorted(vals, reverse=True)

    def test_tie_break_is_lexicographic(self):
        ranked = ranked_triplets(np.zeros((2, 3, 3)))
        want = [(p, i, j) for p in range(2) for i in range(3)
                for j in range(3) if i != j]
        assert ranked.tolist() == [list(t) for t in want]

    def test_graph_constraint_keeps_one_predicate_per_pair(self):
        rng = np.random.default_rng(122)
        scores = rng.standard_normal((4, 3, 3))
        ranked = ranked_triplets(scores, graph_constraint=True)
        assert len(ranked) == 3 * 2
        pairs = {(s, o) for _p, s, o in ranked.tolist()}
        assert len(pairs) == 6
        for p, s, o in ranked.tolist():
            assert p == int(scores[:, s, o].argmax())

    def test_graph_constraint_tie_takes_lowest_predicate(self):
        scores = np.zeros((3, 2, 2))
        ranked = ranked_triplets(scores, graph_constraint=True)
        assert (ranked[:, 0] == 0).all()


class TestRecall:
    def test_perfect_when_k_covers_all_candidates(self):
        rng = np.random.default_rng(123)
        scores = rng.standard_normal((3, 4, 4))
        ranked = ranked_triplets(scores)
        gt = [(0, 1, 2), (3, 2, 1), (1, 0, 3)]
        assert recall_at_k(ranked, gt, len(ranked)) == 1.0

    def test_counts_only_top_k(self):
        scores = np.zeros((2, 3, 3))
        scores[1, 2, 0] = 5.0
        scores[0, 1, 2] = 4.0
        ranked = ranked_triplets(scores)
        gt = [(2, 1, 0), (0, 0, 1)]
        assert recall_at_k(ranked, gt, 1) == 0.5
        assert recall_at_k(ranked, gt, 2) == 0.5

    def test_empty_ground_truth_gives_none(self):
        ranked = ranked_triplets(np.zeros((2, 2, 2)))
        assert recall_at_k(ranked, [], 5) is None

    def test_matches_oracle_on_random_scenes(self):
        rng = np.random.default_rng(124)
        for _ in range(40):
            P = int(rng.integers(2, 6))
            n = int(rng.integers(2, 6))
            scores = rng.standard_normal((P, n, n))
            rel = rng.uniform(0.1, 1.0, (n, n))
            combined = scores * rel
            gt = [(i, int(rng.integers(0, P)), j)
                  for i in range(n) for j in range(n)
                  if i != j and rng.random() < 0.4]
            if not gt:
                continue
            k = int(rng.integers(1, P * n * n))
            ranked = ranked_triplets(combined)
            want = recall_at_k_oracle(scores, rel, gt, k)
            np.testing.assert_allclose(recall_at_k(ranked, gt, k), want,
                                       rtol=1e-12)

    def test_per_predicate_split(self):
        scores = np.zeros((2, 3, 3))
        scores[0, 0, 1] = 3.0
        scores[1, 1, 2] = 2.0
        ranked = ranked_triplets(scores)
        gt = [(0, 0, 1), (1, 0, 2), (1, 1, 2)]
        rec = per_predicate_recall_at_k(ranked, gt, 2, 2)
        assert rec[0] == 0.5   # (0,0,1) ranked first, (1,0,2) scored 0
        assert rec[1] == 1.0

    def test_per_predicate_only_present(self):
        ranked = ranked_triplets(np.zeros((3, 2, 2)))
        rec = per_predicate_recall_at_k(ranked, [(0, 1, 1)], 2, 3)
        assert set(rec) == {1}


class TestAggregation:
    def test_recall_skips_empty_images(self):
        assert aggregate_recall([0.5, None, 1.0]) == 0.75
        assert aggregate_recall([None, None]) is None

    def test_mean_recall_averages_within_then_across(self):
        per_image = [{0: 1.0, 1: 0.0}, {0: 0.0}]
        got = aggregate_mean_recall(per_image, 3)
        np.testing.assert_allclose(got, (0.5 + 0.0) / 2)

    def test_mean_recall_ignores_absent_predicates(self):
        got = aggregate_mean_recall([{2: 0.25}], 5)
        np.testing.assert_allclose(got, 0.25)
        assert aggregate_mean_recall([], 5) is None


class TestZeroShot:
    def test_filters_seen_combinations(self):
        seen = {(1, 0, 2), (3, 1, 3)}
        classes = [1, 2, 3]
        gt = [(0, 0, 1), (0, 1, 2), (1, 0, 2)]
        kept = zero_shot_filter(gt, classes, seen)
        assert kept == [(0, 1, 2), (1, 0, 2)]

    def test_empty_seen_keeps_everything(self):
        gt = [(0, 0, 1), (1, 1, 0)]
        assert zero_shot_filter(gt, [4, 4], set()) == gt


class TestCsv:
    def test_format_value(self):
        assert format_value(None) == "na"
        assert format_value(0.5) == "0.5"
        assert format_value(np.float64(1) / 3) == repr(1 / 3)

    def test_written_file_layout(self, tmp_path):
        path = tmp_path / "metrics.csv"
        rows = [
            ("test", "predcls", "recall", 20, None, 0.5),
            ("test", "predcls", "mean_recall", 50, None, None),
            ("test", "predcls", "recall", 20, 3, 1 / 3),
        ]
        write_metrics_csv(path, rows)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "split,task,metric,k,predicate,value"
        assert lines[1] == "test,predcls,recall,20,,0.5"
        assert lines[2] == "test,predcls,mean_recall,50,,na"
        assert lines[3] == f"test,predcls,recall,20,3,{1 / 3!r}"

    def test_identical_rows_give_identical_bytes(self, tmp_path):
        rows = [("train", "predcls", "recall", 100, None, 0.123456789012345)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(a, rows)
        write_metrics_csv(b, rows)
        assert a.read_bytes() == b.read_bytes()
