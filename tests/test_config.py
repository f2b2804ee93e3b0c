"""Run configuration parsing and validation."""

import pytest

from relattn.config import ConfigError, RunConfig


class TestDefaults:
    def test_reference_defaults(self):
        cfg = RunConfig()
        assert cfg.K == 4
        assert cfg.d == 256
        assert cfg.alpha == 0.75
        assert cfg.gamma_base == 2.0
        assert cfg.neg_ratio == 10
        assert cfg.lam == 1.0
        assert cfg.lr_multiplier_sampler == 0.1
        assert cfg.pgla is True
        assert cfg.pgla_metric == "recall"
        assert cfg.scale_interpolation == "trilinear"

    def test_entity_counts_start_unresolved(self):
        cfg = RunConfig()
        assert cfg.C is None and cfg.P is None


class TestFromDict:
    def test_lambda_alias(self):
        cfg = RunConfig.from_dict({"lambda": 2.5})
        assert cfg.lam == 2.5

    def test_to_dict_round_trip(self):
        cfg = RunConfig.from_dict({"C": 6, "P": 5, "K": 2, "d": 32,
                                   "lambda": 0.5, "iterations": 10})
        d = cfg.to_dict()
        assert "lambda" in d and "lam" not in d
        again = RunConfig.from_dict(d)
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"unknown_knob": 1})

    def test_nested_loss_weights(self):
        cfg = RunConfig.from_dict({"loss_weights": {"focal": 2.0}})
        assert cfg.loss_weights["focal"] == 2.0
        assert cfg.loss_weights["margin"] == 1.0


class TestValueTypes:
    @pytest.mark.parametrize("key, value", [
        ("d", "x"), ("K", 2.5), ("iterations", True), ("C", 2.0), ("P", "5"),
        ("lambda", "1"), ("alpha", None), ("learning_rate", False),
        ("pgla", "yes"), ("gumbel_hard", 1), ("pgla_metric", 3),
        ("loss_weights", 3), ("loss_weights", {"mask": "1"}),
        ("loss_weights", {"mask": True})])
    def test_mistyped_value_names_its_key(self, key, value):
        """Int fields take integers but not booleans, float fields take
        numbers, C and P also take null, loss_weights an object of numbers;
        anything else is a ConfigError naming the key."""
        with pytest.raises(ConfigError, match=repr(key)):
            RunConfig.from_dict({key: value})

    def test_accepted_value_types(self):
        cfg = RunConfig.from_dict({"C": None, "P": 4, "alpha": 1, "lambda": 2,
                                   "pgla": False, "scale_interpolation": "nearest",
                                   "loss_weights": {"mask": 0, "focal": 0.5}})
        assert cfg.C is None and cfg.P == 4 and cfg.alpha == 1 and cfg.lam == 2
        assert cfg.loss_weights == {"focal": 0.5, "mask": 0, "margin": 1.0,
                                    "rep_point": 1.0}


class TestValidate:
    def make(self, **kw):
        base = {"C": 6, "P": 5, "iterations": 100}
        base.update(kw)
        return RunConfig.from_dict(base)

    def test_valid_config_passes(self):
        self.make().validate()
        self.make(alpha=0.0, gamma_base=0.0, weight_decay=0.0, seed=0,
                  feature_noise_std=0.0, loss_weights={"mask": 0.0}).validate()
        self.make(alpha=1.0).validate()

    @pytest.mark.parametrize("key, value", [
        ("alpha", -0.1), ("alpha", 1.5), ("gamma_base", -1.0),
        ("weight_decay", -1e-4), ("seed", -1), ("feature_noise_std", -0.05),
        ("lr_multiplier_sampler", 0.0), ("lr_multiplier_sampler", -0.1),
        ("loss_weights", {"mask": -1.0})])
    def test_rejects_out_of_range_value(self, key, value):
        """Each range check names the key it refuses."""
        with pytest.raises(ConfigError, match=key):
            self.make(**{key: value})

    def test_rejects_nonpositive_iterations(self):
        with pytest.raises(ConfigError):
            self.make(iterations=0).validate()

    def test_rejects_indivisible_width(self):
        with pytest.raises(ConfigError):
            self.make(d=30).validate()

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ConfigError):
            self.make(**{"lambda": 0.0}).validate()

    def test_rejects_unknown_interpolation(self):
        with pytest.raises(ConfigError):
            self.make(scale_interpolation="cubic").validate()

    def test_rejects_bad_point_range(self):
        with pytest.raises(ConfigError):
            self.make(points_min=8, points_max=4).validate()

    def test_rejects_bad_pgla_metric(self):
        with pytest.raises(ConfigError):
            self.make(pgla_metric="f1").validate()

    def test_rejects_bad_loss_weight_key(self):
        with pytest.raises(ConfigError):
            self.make(loss_weights={"focal": 1.0, "extra": 2.0}).validate()

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ConfigError):
            self.make(learning_rate=0.0).validate()
