"""Scene records, serialization, and the synthetic generator."""

import json

import numpy as np
import pytest

from relattn.data import (
    DatasetError,
    EntityDetection,
    GenSpec,
    GenerationError,
    SceneSample,
    _build_rules,
    _choose_holdout,
    generate_dataset,
    load_dataset,
    position_bucket,
    save_dataset,
    scale_from_box,
    scene_feature_rng,
    zipf_masses,
)


def small_spec(**kw):
    base = dict(num_scenes=30, C=5, P=4, entities_min=3, entities_max=4,
                zipf_exponent=1.5, seed=7, test_scenes=10,
                holdout_fraction=0.2, image_size=(128, 128))
    base.update(kw)
    return GenSpec(**base)


class TestRecords:
    def test_entity_rejects_degenerate_box(self):
        with pytest.raises(DatasetError):
            EntityDetection(box=(0.5, 0.1, 0.5, 0.4), scale_level=0,
                            class_label=1)

    def test_entity_rejects_out_of_range_scale(self):
        with pytest.raises(DatasetError):
            EntityDetection(box=(0.1, 0.1, 0.4, 0.4), scale_level=5,
                            class_label=0)

    def test_scene_validation_catches_bad_triplets(self):
        ents = [EntityDetection((0.1, 0.1, 0.3, 0.3), 0, 0),
                EntityDetection((0.5, 0.5, 0.8, 0.8), 0, 1)]
        good = SceneSample((64, 64), ents, [(0, 1, 1)])
        good.validate(C=3, P=2)
        for bad in ([(0, 1, 0)],            # self relation
                    [(0, 1, 2)],            # missing entity
                    [(0, 5, 1)],            # predicate out of range
                    [(0, 1, 1), (0, 1, 1)]):  # duplicate
            with pytest.raises(DatasetError):
                SceneSample((64, 64), ents, bad).validate(C=3, P=2)

    def test_scale_from_box_doubles_per_level(self):
        size = (256, 256)
        # 32 px diagonal sits at the bottom level, 64 at the next, and so on.
        for level in range(5):
            diag = 32.0 * (2 ** level) * 1.01
            side = diag / np.sqrt(2) / 256
            box = (0.0, 0.0, side, side)
            assert scale_from_box(box, size) == level

    def test_scale_from_box_clamps(self):
        assert scale_from_box((0.0, 0.0, 0.02, 0.02), (256, 256)) == 0
        assert scale_from_box((0.0, 0.0, 1.0, 1.0), (4096, 4096)) == 4

    def test_position_buckets(self):
        s = (0.5, 0.5)
        assert position_bucket(s, (0.9, 0.5), 4) == 0   # right
        assert position_bucket(s, (0.1, 0.5), 4) == 1   # left
        assert position_bucket(s, (0.5, 0.9), 4) == 2   # below
        assert position_bucket(s, (0.5, 0.1), 4) == 3   # above
        assert position_bucket(s, (0.1, 0.9), 2) == 1
        assert position_bucket(s, (0.1, 0.9), 1) == 0


class TestZipf:
    def test_masses_normalized_and_monotone(self):
        m = zipf_masses(10, 1.5)
        np.testing.assert_allclose(m.sum(), 1.0, atol=1e-12)
        assert np.all(np.diff(m) < 0)

    def test_head_to_tail_ratio(self):
        """With exponent 2 the k-th mass falls as 1/k^2, so the first and
        fifth differ by a factor of 25."""
        m = zipf_masses(5, 2.0)
        np.testing.assert_allclose(m[0] / m[4], 25.0, rtol=1e-12)

    def test_exponent_zero_is_uniform(self):
        np.testing.assert_allclose(zipf_masses(4, 0.0), np.full(4, 0.25))


class TestGenerator:
    def test_split_sizes_and_priors(self):
        train, test = generate_dataset(small_spec())
        assert len(train.scenes) == 30
        assert len(test.scenes) == 10
        assert train.P == 4 and train.C == 5
        np.testing.assert_allclose(train.priors.sum(), 1.0, atol=1e-12)
        assert np.all(train.priors > 0)

    def test_triplet_histogram_is_long_tailed(self):
        train, _ = generate_dataset(small_spec(num_scenes=200,
                                               zipf_exponent=1.5))
        counts = np.zeros(4)
        for sc in train.scenes:
            for _, p, _ in sc.triplets:
                counts[p] += 1
        assert counts[0] > counts[-1]
        assert np.all(counts > 0)

    def test_every_scene_validates(self):
        train, test = generate_dataset(small_spec())
        for ds in (train, test):
            for sc in ds.scenes:
                sc.validate(ds.C, ds.P)
                assert len(sc.triplets) >= 1

    def test_holdout_creates_zero_shot_triples(self):
        spec = small_spec(num_scenes=150, test_scenes=80,
                          holdout_fraction=0.3, seed=3)
        train, test = generate_dataset(spec)

        def combos(ds):
            out = set()
            for sc in ds.scenes:
                for s, p, o in sc.triplets:
                    out.add((sc.entities[s].class_label, p,
                             sc.entities[o].class_label))
            return out

        assert train.seen_triples == combos(train)
        unseen = combos(test) - train.seen_triples
        assert unseen, "test split should contain zero-shot combos"
        # Every predicate still has at least one combo visible in train.
        seen_predicates = {p for _, p, _ in train.seen_triples}
        assert seen_predicates == set(range(train.P))

    def test_regeneration_is_bit_identical(self, tmp_path):
        a_train, a_test = generate_dataset(small_spec())
        b_train, b_test = generate_dataset(small_spec())
        for a, b in ((a_train, b_train), (a_test, b_test)):
            pa, pb = tmp_path / "a.json", tmp_path / "b.json"
            save_dataset(pa, a)
            save_dataset(pb, b)
            assert pa.read_bytes() == pb.read_bytes()

    def test_impossible_spec_raises(self):
        with pytest.raises(GenerationError):
            small_spec(C=1, P=30).validate()

    def test_from_dict_aliases(self):
        spec = GenSpec.from_dict({
            "num_scenes": 10, "C": 4, "P": 3,
            "entities_per_scene": [2, 5],
            "triplet_rules": {"buckets": 2, "noise": 0.1,
                              "pair_fraction": 0.5},
            "image_size": [64, 48],
        })
        assert (spec.entities_min, spec.entities_max) == (2, 5)
        assert spec.image_size == (64, 48)
        assert spec.buckets == 2
        assert spec.rule_noise == 0.1
        assert spec.pair_fraction == 0.5

    def test_from_dict_rejects_unknown(self):
        """An unknown key is refused at the top level and inside
        triplet_rules."""
        with pytest.raises(GenerationError, match="'shape'"):
            GenSpec.from_dict({"num_scenes": 1, "C": 2, "P": 1, "shape": 3})
        with pytest.raises(GenerationError, match="'triplet_rules.bucket'"):
            GenSpec.from_dict({"num_scenes": 1, "C": 2, "P": 1,
                               "triplet_rules": {"bucket": 2}})


class TestGeneratorRules:
    def test_every_predicate_owns_a_rule(self):
        """Four keys under Zipf 2 floor to rule counts [3, 1, 0, 0]; the
        empty predicates take rules from the largest owners."""
        spec = GenSpec(num_scenes=1, C=2, P=4, buckets=1, zipf_exponent=2.0)
        rules = _build_rules(spec, np.random.default_rng(0))
        assert len(rules) == 4
        assert sorted(rules.values()) == [0, 1, 2, 3]

    def test_holdout_zero_holds_nothing_out(self):
        spec = GenSpec(num_scenes=1, C=3, P=2, buckets=1)
        rules = _build_rules(spec, np.random.default_rng(0))
        assert _choose_holdout(rules, 0.0, np.random.default_rng(0)) == set()

    def test_holdout_keeps_one_combination_per_predicate(self):
        """Asked to hold out nearly every combination, the holdout still
        leaves each predicate one visible (subject class, object class)."""
        spec = GenSpec(num_scenes=1, C=3, P=2, buckets=1)
        rules = _build_rules(spec, np.random.default_rng(0))
        combos = {(cs, p, co) for (cs, co, _b), p in rules.items()}
        held = _choose_holdout(rules, 0.99, np.random.default_rng(0))
        assert held and held < combos
        for p in range(spec.P):
            assert any(c[1] == p for c in combos - held), p

    @pytest.mark.parametrize("noise", [0.0, 1.0])
    def test_rule_noise_relabels_predicates(self, noise):
        """Without noise every triplet's predicate is the rule for its
        classes and relative position; at noise 1 every predicate is drawn
        anew, so some depart from the rule table."""
        spec = small_spec(rule_noise=noise, holdout_fraction=0.0)
        rules = _build_rules(spec, np.random.default_rng(spec.seed))
        _, test = generate_dataset(spec)
        departed = 0
        for sc in test.scenes:
            for s, p, o in sc.triplets:
                sub, obj = sc.entities[s], sc.entities[o]
                b = position_bucket(sub.center, obj.center, spec.buckets)
                departed += p != rules[(sub.class_label, obj.class_label, b)]
        assert (departed > 0) == (noise > 0)


class TestSerialization:
    def test_round_trip_preserves_everything(self, tmp_path):
        train, _ = generate_dataset(small_spec())
        path = tmp_path / "train.json"
        save_dataset(path, train)
        loaded = load_dataset(path)
        assert len(loaded.scenes) == len(train.scenes)
        np.testing.assert_array_equal(loaded.priors, train.priors)
        assert loaded.seen_triples == train.seen_triples
        for a, b in zip(loaded.scenes, train.scenes):
            assert a.triplets == b.triplets
            assert a.image_size == b.image_size
            for ea, eb in zip(a.entities, b.entities):
                assert ea == eb

    def test_save_emits_stable_json(self, tmp_path):
        train, _ = generate_dataset(small_spec())
        p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
        save_dataset(p1, train)
        save_dataset(p2, train)
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert text.endswith("\n")
        json.loads(text)

    def test_load_reports_scene_index(self, tmp_path):
        train, _ = generate_dataset(small_spec())
        path = tmp_path / "bad.json"
        save_dataset(path, train)
        doc = json.loads(path.read_text())
        doc["scenes"][3]["triplets"].append(doc["scenes"][3]["triplets"][0])
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="3"):
            load_dataset(path)

    @pytest.mark.parametrize("field, value", [
        ("class", 1.9), ("class", 2.0), ("scale", True), ("triplets", [0.0, "1", 1]),
        ("image_size", [256.0, 256]), ("image_size", [256, 256, 3])])
    def test_load_requires_integer_scene_fields(self, tmp_path, field, value):
        """Entity classes and scales, image sizes and triplets load only as
        JSON integers, never as floats, strings or booleans coerced by
        int(); the error names the scene and the key."""
        train, _ = generate_dataset(small_spec())
        path = tmp_path / "bad.json"
        save_dataset(path, train)
        doc = json.loads(path.read_text())
        i = next(i for i, scene in enumerate(doc["scenes"]) if scene["triplets"])
        scene = doc["scenes"][i]
        if field in ("class", "scale"):
            scene["entities"][0][field] = value
        elif field == "triplets":
            scene["triplets"][0] = value
        else:
            scene[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match=f"scene {i}: key '{field}'"):
            load_dataset(path)

    @pytest.mark.parametrize("box", [[0, 0, True, True], [0.1, 0.1, 0.5], "0 0 1 1"],
                             ids=["bools", "three_values", "string"])
    def test_load_requires_four_number_box(self, tmp_path, box):
        """An entity box loads only as a list of four JSON numbers, never
        with booleans standing in for 0 and 1; the error names the scene
        and the key."""
        train, _ = generate_dataset(small_spec())
        path = tmp_path / "bad.json"
        save_dataset(path, train)
        doc = json.loads(path.read_text())
        doc["scenes"][0]["entities"][0]["box"] = box
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="scene 0: key 'box'"):
            load_dataset(path)

    @pytest.mark.parametrize("triple", [[0, True, 1], [0, 1], [0.0, 1, 1]])
    def test_load_requires_integer_seen_triples(self, tmp_path, triple):
        train, _ = generate_dataset(small_spec())
        path = tmp_path / "bad.json"
        save_dataset(path, train)
        doc = json.loads(path.read_text())
        doc["seen_triples"].append(triple)
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="key 'seen_triples'"):
            load_dataset(path)

    @pytest.mark.parametrize("split", [["test"], "val", "", None, 1],
                             ids=["list", "unknown", "empty", "null", "number"])
    def test_load_requires_train_or_test_split(self, tmp_path, split):
        """meta.split is "train" or "test"; any other value raises a
        DatasetError naming the key, where a list used to fail deep in
        evaluation as unhashable and an unknown string drew features from
        a stream of its own."""
        _, test = generate_dataset(small_spec())
        path = tmp_path / "bad.json"
        save_dataset(path, test)
        doc = json.loads(path.read_text())
        doc["meta"]["split"] = split
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="key 'split'"):
            load_dataset(path)

    def test_absent_split_loads_as_train(self, tmp_path):
        """A dataset whose meta names no split is a training split, in its
        meta and in every scene, so its features and its evaluation rows
        agree."""
        _, test = generate_dataset(small_spec())
        path = tmp_path / "test.json"
        save_dataset(path, test)
        doc = json.loads(path.read_text())
        del doc["meta"]["split"]
        path.write_text(json.dumps(doc))
        loaded = load_dataset(path)
        assert loaded.meta["split"] == "train"
        assert {scene.split for scene in loaded.scenes} == {"train"}

    def test_load_rejects_bad_priors(self, tmp_path):
        train, _ = generate_dataset(small_spec())
        path = tmp_path / "bad.json"
        save_dataset(path, train)
        doc = json.loads(path.read_text())
        doc["priors"] = [0.5] * len(doc["priors"])
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError):
            load_dataset(path)


class TestFeatureRng:
    def test_streams_are_split_and_index_specific(self):
        a = scene_feature_rng(1, "train", 0).standard_normal(4)
        b = scene_feature_rng(1, "train", 1).standard_normal(4)
        c = scene_feature_rng(1, "test", 0).standard_normal(4)
        d = scene_feature_rng(1, "train", 0).standard_normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        np.testing.assert_array_equal(a, d)
