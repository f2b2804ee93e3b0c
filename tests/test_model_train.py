"""End-to-end model behavior: forward shapes, gradient coverage, training
determinism, and checkpoint round trips."""

import dataclasses
import hashlib
import math
import os
from pathlib import Path

import numpy as np
import pytest

from relattn.config import ConfigError, RunConfig
from relattn.data import (
    Dataset,
    GenSpec,
    SceneSample,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from relattn.evaluate import evaluate, evaluate_dataset, load_model
from relattn.features import class_signatures, scene_volume
from relattn.losses import predicate_gammas
from relattn.model import RelationModel
from relattn.optim import AdamW
from relattn.pgla import PglaState
from relattn.sampler import TrainDraw
from relattn import tensor
from relattn.tensor import no_grad
from relattn.train import TrainingError, resolve_config, train, training_loss

from helpers import metric_value


def tiny_config(**overrides):
    base = dict(C=3, P=2, K=2, d=16, L_d=1, h_G=2, d_G=8, h_R=2, d_R=8,
                h_A=4, d_A=8, points_min=1, points_max=4, iterations=12,
                learning_rate=1e-4, seed=7)
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_data")
    spec = GenSpec(num_scenes=8, C=3, P=2, entities_min=3, entities_max=4,
                   zipf_exponent=1.0, seed=5, test_scenes=3)
    train_ds, test_ds = generate_dataset(spec)
    save_dataset(root / "train.json", train_ds)
    save_dataset(root / "test.json", test_ds)
    return str(root), train_ds, test_ds


class TestForward:
    def test_shapes_in_both_modes(self, tiny_data):
        _, train_ds, _ = tiny_data
        cfg = resolve_config(tiny_config(), train_ds)
        rng = np.random.default_rng(3)
        model = RelationModel(cfg, rng)
        scene = next(s for s in train_ds.scenes if s.triplets)
        n = len(scene.entities)
        sigs = class_signatures(train_ds.seed, cfg.C, cfg.d)
        volume = scene_volume(train_ds.seed, scene, sigs, cfg.feature_noise_std)
        out = model.forward(scene, volume, TrainDraw(rng, m=3, tau=2.0))
        assert out.prediction.predicate_logits.data.shape == (cfg.P, n, n)
        assert out.prediction.relatedness_logits.data.shape == (n, n)
        assert out.prediction.scores.shape == (cfg.P, n, n)
        with no_grad():
            inf = model.forward(scene, volume)
        assert inf.prediction.scores.shape == (cfg.P, n, n)
        np.testing.assert_array_equal(np.diagonal(inf.prediction.scores,
                                                  axis1=1, axis2=2), 0.0)

    def test_inference_is_deterministic(self, tiny_data):
        _, train_ds, _ = tiny_data
        cfg = resolve_config(tiny_config(), train_ds)
        model = RelationModel(cfg, np.random.default_rng(3))
        scene = train_ds.scenes[0]
        sigs = class_signatures(train_ds.seed, cfg.C, cfg.d)
        volume = scene_volume(train_ds.seed, scene, sigs, cfg.feature_noise_std)
        with no_grad():
            a = model.forward(scene, volume).prediction.scores
            b = model.forward(scene, volume).prediction.scores
        np.testing.assert_array_equal(a, b)

    def test_empty_scene_returns_empty_prediction(self):
        cfg = tiny_config()
        model = RelationModel(cfg, np.random.default_rng(0))
        scene = SceneSample(image_size=(256, 256), entities=[], triplets=[])
        out = model.forward(scene, np.zeros(1))
        assert out.prediction.scores.shape == (cfg.P, 0, 0)

    def test_construction_requires_resolved_sizes(self):
        with pytest.raises(ConfigError):
            RelationModel(RunConfig(C=None, P=2), np.random.default_rng(0))


class TestGradientCoverage:
    def test_every_parameter_learns_from_one_scene(self, tiny_data):
        """A full forward and loss backward must reach all registered
        parameters with at least one nonzero gradient entry."""
        _, train_ds, _ = tiny_data
        cfg = resolve_config(tiny_config(), train_ds)
        rng = np.random.default_rng(11)
        model = RelationModel(cfg, rng)
        scene = max(train_ds.scenes, key=lambda s: (len(s.triplets),
                                                    len(s.entities)))
        sigs = class_signatures(train_ds.seed, cfg.C, cfg.d)
        volume = scene_volume(train_ds.seed, scene, sigs, cfg.feature_noise_std)
        out = model.forward(scene, volume, TrainDraw(rng, m=3, tau=2.0))
        gammas = predicate_gammas(train_ds.priors, cfg.gamma_base)
        state = PglaState.create(train_ds.priors, lam=1.0, metric="recall")
        total, breakdown, _ = training_loss(out, scene, cfg, gammas, state, rng)
        model.registry.zero_grad()
        total.backward()
        dead = [p.name for p in model.registry.parameters()
                if p.tensor.grad is None or not np.any(p.tensor.grad)]
        assert dead == []

    def test_loss_breakdown_keys_and_finiteness(self, tiny_data):
        _, train_ds, _ = tiny_data
        cfg = resolve_config(tiny_config(), train_ds)
        rng = np.random.default_rng(12)
        model = RelationModel(cfg, rng)
        scene = next(s for s in train_ds.scenes if s.triplets)
        sigs = class_signatures(train_ds.seed, cfg.C, cfg.d)
        volume = scene_volume(train_ds.seed, scene, sigs, cfg.feature_noise_std)
        out = model.forward(scene, volume, TrainDraw(rng, m=2, tau=1.0))
        gammas = predicate_gammas(train_ds.priors, cfg.gamma_base)
        total, breakdown, state = training_loss(out, scene, cfg, gammas, None, rng)
        assert state is None
        assert set(breakdown) == {"focal_predicate", "mask", "margin_rank",
                                  "rep_point_margin", "total"}
        assert np.isfinite(breakdown["total"])
        np.testing.assert_allclose(
            breakdown["total"],
            sum(breakdown[k] for k in breakdown if k != "total"), rtol=1e-12)


def tape_nodes(root) -> int:
    """Tape nodes, tensors made by a differentiable operation, reachable
    from root through their parents. Leaves and constants are not
    counted."""
    seen, stack, count = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += node._backward is not None
        stack.extend(node._parents)
    return count


class TestTapeSize:
    @staticmethod
    def desk_training_loss(train_ds):
        """The total loss of one desk-config training step."""
        cfg = resolve_config(RunConfig.from_dict(
            {"K": 2, "d": 32, "L_d": 1, "h_G": 4, "d_G": 8, "h_R": 4, "d_R": 8,
             "h_A": 8, "d_A": 8, "learning_rate": 1e-3, "seed": 5}), train_ds)
        rng = np.random.default_rng(14)
        model = RelationModel(cfg, rng)
        scene = train_ds.scenes[0]
        sigs = class_signatures(train_ds.seed, cfg.C, cfg.d)
        volume = scene_volume(train_ds.seed, scene, sigs, cfg.feature_noise_std)
        out = model.forward(scene, volume, TrainDraw(rng, m=3, tau=1.0))
        gammas = predicate_gammas(train_ds.priors, cfg.gamma_base)
        state = PglaState.create(train_ds.priors, lam=1.0, metric="recall")
        total, _, _ = training_loss(out, scene, cfg, gammas, state, rng)
        return total

    def test_desk_training_loss_tape_size(self, tiny_data):
        """One desk-config training step records a fixed number of tape
        nodes; a change that grows the tape has to update this count."""
        _, train_ds, _ = tiny_data
        assert tape_nodes(self.desk_training_loss(train_ds)) == 250

    def test_every_recorded_node_reaches_the_loss(self, tiny_data, monkeypatch):
        """Every node that one training step records lies on a path to the
        loss: a node that backward never visits is wasted work."""
        _, train_ds, _ = tiny_data
        recorded = []
        node = tensor._node

        def counting_node(data, parents, backward):
            out = node(data, parents, backward)
            if out._backward is not None:
                recorded.append(out)
            return out

        monkeypatch.setattr(tensor, "_node", counting_node)
        total = self.desk_training_loss(train_ds)
        assert len(recorded) == tape_nodes(total)


class TestDrawOrder:
    """One seeded desk-model training step and one inference forward,
    against values recorded before the forward took a training draw. The
    step's draws all come from one generator, in a fixed order: sample
    offsets, then Gumbel noise, then mask negatives; reordering them, or
    drawing one more value, changes these numbers."""

    FIRST_STEP = {"focal_predicate": "0x1.158e4242f4380p+0",
                  "mask": "0x1.d39a8bacb3228p-4",
                  "margin_rank": "0x1.b69164f0ad1c2p-3",
                  "rep_point_margin": "0x1.079d57d0b411ap-5",
                  "total": "0x1.71d7025a5aae3p+0"}
    GRAD_NORM = "0x1.2815868b72089p+3"
    # sha256 of the 2 x 4 x 4 float64 scores of the first test scene.
    SCORES_SHA256 = "362b972f0be0a3bf2b7937af36afc618c9e6ee9f2cb7dc99665e6377e1e6246e"

    def test_first_step_and_inference_are_pinned(self, tiny_data):
        _, train_ds, test_ds = tiny_data
        cfg = resolve_config(RunConfig.from_dict(
            {"K": 2, "d": 32, "L_d": 1, "h_G": 4, "d_G": 8, "h_R": 4, "d_R": 8,
             "h_A": 8, "d_A": 8, "learning_rate": 1e-3, "seed": 5}), train_ds)
        rng = np.random.default_rng(15)
        model = RelationModel(cfg, rng)
        scene = next(s for s in train_ds.scenes if s.triplets)
        sigs = class_signatures(train_ds.seed, cfg.C, cfg.d)
        volume = scene_volume(train_ds.seed, scene, sigs, cfg.feature_noise_std)
        out = model.forward(scene, volume, TrainDraw(rng, m=3, tau=1.0))
        gammas = predicate_gammas(train_ds.priors, cfg.gamma_base)
        state = PglaState.create(train_ds.priors, lam=cfg.lam, metric=cfg.pgla_metric)
        total, breakdown, _ = training_loss(out, scene, cfg, gammas, state, rng)
        model.registry.zero_grad()
        total.backward()
        norm = math.sqrt(sum(float((p.tensor.grad * p.tensor.grad).sum())
                             for p in model.registry.parameters()))
        assert {k: v.hex() for k, v in breakdown.items()} == self.FIRST_STEP
        assert norm.hex() == self.GRAD_NORM

        scene = test_ds.scenes[0]
        volume = scene_volume(test_ds.seed, scene, sigs, cfg.feature_noise_std)
        with no_grad():
            scores = model.forward(scene, volume).prediction.scores
        assert scores.shape == (2, 4, 4)
        assert hashlib.sha256(scores.tobytes()).hexdigest() == self.SCORES_SHA256


class TestVisualGenomeSize:
    def test_forward_and_loss_at_fifty_predicates(self):
        """One training forward, the loss and its backward, and one
        inference forward at P=50 and n=25 entities, d=32: the scale where
        quadratic work over entity pairs shows. No wall-clock bound."""
        spec = GenSpec(num_scenes=1, C=20, P=50, entities_min=25, entities_max=25,
                       zipf_exponent=1.0, seed=9, test_scenes=1)
        train_ds, _ = generate_dataset(spec)
        scene = train_ds.scenes[0]
        n, P = 25, 50
        assert len(scene.entities) == n and scene.triplets
        cfg = resolve_config(tiny_config(C=None, P=None, K=2, d=32, h_G=4, d_G=8,
                                         h_R=4, d_R=8, h_A=8, d_A=8), train_ds)
        rng = np.random.default_rng(13)
        model = RelationModel(cfg, rng)
        sigs = class_signatures(train_ds.seed, cfg.C, cfg.d)
        volume = scene_volume(train_ds.seed, scene, sigs, cfg.feature_noise_std)
        out = model.forward(scene, volume, TrainDraw(rng, m=4, tau=1.0))
        pred = out.prediction
        assert pred.predicate_logits.shape == (P, n, n)
        assert pred.relatedness_logits.shape == (n, n)
        for name, arr in (("logits", pred.predicate_logits.data),
                          ("relatedness", pred.relatedness_logits.data),
                          ("scores", pred.scores)):
            assert np.isfinite(arr).all(), name
        np.testing.assert_array_equal(np.diagonal(pred.scores, axis1=1, axis2=2), 0.0)
        for means in out.decode.means:
            assert [m.shape for m in means] == [(n, cfg.K, 3)] * cfg.L_d

        gammas = predicate_gammas(train_ds.priors, cfg.gamma_base)
        state = PglaState.create(train_ds.priors, lam=1.0, metric="recall")
        total, breakdown, state = training_loss(out, scene, cfg, gammas, state, rng)
        assert all(np.isfinite(v) for v in breakdown.values())
        assert state.confusion.shape == (P, P)
        model.registry.zero_grad()
        total.backward()
        for p in model.registry.parameters():
            assert p.tensor.grad is not None and np.isfinite(p.tensor.grad).all(), p.name

        with no_grad():
            scores = model.forward(scene, volume).prediction.scores
        assert scores.shape == (P, n, n) and np.isfinite(scores).all()
        np.testing.assert_array_equal(np.diagonal(scores, axis1=1, axis2=2), 0.0)


class TestResolveConfig:
    def test_fills_sizes_from_dataset(self, tiny_data):
        _, train_ds, _ = tiny_data
        cfg = resolve_config(tiny_config(C=None, P=None), train_ds)
        assert cfg.C == 3 and cfg.P == 2

    def test_rejects_mismatched_sizes(self, tiny_data):
        _, train_ds, _ = tiny_data
        with pytest.raises(ConfigError):
            resolve_config(tiny_config(C=9), train_ds)
        with pytest.raises(ConfigError):
            resolve_config(tiny_config(P=9), train_ds)


class TestTraining:
    def test_run_produces_artifacts_and_finite_losses(self, tiny_data, tmp_path):
        data_dir, _, _ = tiny_data
        out = tmp_path / "run"
        result = train(tiny_config(), data_dir, str(out), trace=True)
        assert os.path.exists(result.checkpoint_path)
        assert os.path.exists(result.log_path)
        assert os.path.exists(out / "pgla_trace.csv")
        assert result.iterations == 12
        assert np.isfinite(result.final_losses["total"])
        log_lines = Path(result.log_path).read_text().splitlines()
        assert log_lines[0] == ("iteration,focal_predicate,mask,margin_rank,"
                                "rep_point_margin,total")
        assert len(log_lines) == 13
        trace_lines = (out / "pgla_trace.csv").read_text().splitlines()
        assert trace_lines[0] == "iteration,predicate,r,W,B"
        assert len(trace_lines) == 1 + 12 * 2

    def test_same_seed_same_bytes(self, tiny_data, tmp_path):
        """Two runs from one config are byte-identical in logs and weights."""
        data_dir, _, _ = tiny_data
        a = train(tiny_config(), data_dir, str(tmp_path / "a"))
        b = train(tiny_config(), data_dir, str(tmp_path / "b"))
        assert Path(a.log_path).read_bytes() == Path(b.log_path).read_bytes()
        assert Path(a.checkpoint_path).read_bytes() == \
            Path(b.checkpoint_path).read_bytes()

    def test_checkpoint_round_trips_through_evaluate(self, tiny_data, tmp_path):
        data_dir, _, test_ds = tiny_data
        result = train(tiny_config(), data_dir, str(tmp_path / "run"))
        model, cfg = load_model(result.checkpoint_path)
        assert cfg.C == 3 and cfg.P == 2
        rows = evaluate(result.checkpoint_path, data_dir, split="test",
                        ks=(20,), out_csv=str(tmp_path / "m.csv"))
        val = metric_value(rows, "recall", 20)
        assert val is not None and 0.0 <= val <= 1.0
        assert (tmp_path / "m.csv").exists()
        fresh = RelationModel(cfg, np.random.default_rng([cfg.seed, 0]))
        fresh.registry.load_state_dict(
            {name: arr.copy() for name, arr in model.registry.arrays().items()})
        scene = test_ds.scenes[0]
        sigs = class_signatures(test_ds.seed, cfg.C, cfg.d)
        volume = scene_volume(test_ds.seed, scene, sigs, cfg.feature_noise_std)
        with no_grad():
            x = model.forward(scene, volume).prediction.scores
            y = fresh.forward(scene, volume).prediction.scores
        np.testing.assert_array_equal(x, y)

    def test_non_finite_gradient_stops_training(self, tiny_data, tmp_path,
                                                monkeypatch):
        """One NaN injected into a gradient at the third step: training
        stops there with a TrainingError naming that parameter."""
        data_dir, _, _ = tiny_data
        step = AdamW.step
        poisoned = []

        def poisoned_step(opt, *args, **kwargs):
            if opt.t == 2:
                p = opt.params[3]
                p.tensor.grad = p.tensor.grad.copy()
                p.tensor.grad.flat[0] = np.nan
                poisoned.append(p.name)
            return step(opt, *args, **kwargs)

        monkeypatch.setattr(AdamW, "step", poisoned_step)
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingError) as err:
                train(tiny_config(), data_dir, str(tmp_path / "out"))
        assert f"parameter {poisoned[0]} " in str(err.value)
        assert "iteration 2" in str(err.value)

    def test_evaluate_dataset_rejects_nonpositive_k(self, tiny_data):
        _, train_ds, test_ds = tiny_data
        model = RelationModel(resolve_config(tiny_config(), train_ds),
                              np.random.default_rng(0))
        for ks in ((0,), (20, -5)):
            with pytest.raises(ValueError):
                evaluate_dataset(model, test_ds, ks=ks)

    def test_evaluate_dataset_rejects_repeated_k(self, tiny_data):
        """A K given twice would write each of its rows twice."""
        _, train_ds, test_ds = tiny_data
        model = RelationModel(resolve_config(tiny_config(), train_ds),
                              np.random.default_rng(0))
        with pytest.raises(ValueError, match="once"):
            evaluate_dataset(model, test_ds, ks=(20, 50, 20))

    def test_split_less_dataset_rows_name_its_feature_split(self, tiny_data, tmp_path):
        """A test file whose meta names no split loads as a training split,
        and its metric rows say so: the label and the feature stream come
        from one default."""
        _, train_ds, test_ds = tiny_data
        model = RelationModel(resolve_config(tiny_config(), train_ds),
                              np.random.default_rng(0))
        path = tmp_path / "test.json"
        save_dataset(path, Dataset(test_ds.scenes, test_ds.priors, test_ds.seen_triples,
                                   {k: v for k, v in test_ds.meta.items() if k != "split"}))
        rows = evaluate_dataset(model, load_dataset(path), ks=(20,))
        assert {row[0] for row in rows} == {"train"}

    def test_relationless_split_is_rejected(self, tiny_data, tmp_path):
        _, train_ds, _ = tiny_data
        bare = [dataclasses.replace(s, triplets=[]) for s in train_ds.scenes]
        ds = Dataset(scenes=bare, priors=train_ds.priors,
                     seen_triples=train_ds.seen_triples, meta=train_ds.meta)
        data_dir = tmp_path / "bare"
        data_dir.mkdir()
        save_dataset(data_dir / "train.json", ds)
        with pytest.raises(TrainingError):
            train(tiny_config(), str(data_dir), str(tmp_path / "out"))
