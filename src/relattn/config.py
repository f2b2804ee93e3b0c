"""Run configuration: one flat record shared by training, evaluation and
the CLI. Loaded from JSON; unknown keys and mistyped values are rejected so
typos fail fast. `fields_from_json` reads the generator spec the same way."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """The configuration is internally inconsistent."""


def read_json(path, error: type, what: str):
    """The JSON value in the file at path. A file that cannot be opened or
    parsed raises ``error``, the caller's input error type, naming what
    the file holds."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"invalid {what} JSON: {exc}") from exc


def _default_loss_weights() -> dict:
    return {"focal": 1.0, "mask": 1.0, "margin": 1.0, "rep_point": 1.0}


def json_number(value, types=(int, float)) -> bool:
    """A JSON number of the given types; true and false are not numbers."""
    return isinstance(value, types) and not isinstance(value, bool)


# Per field annotation: whether a JSON value fits the field, and what fits.
_VALUE_TYPES = {
    "int": (lambda v: json_number(v, int), "an integer"),
    "int | None": (lambda v: v is None or json_number(v, int), "an integer or null"),
    "float": (json_number, "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "dict": (lambda v: isinstance(v, dict) and all(map(json_number, v.values())),
             "an object of numbers"),
    "tuple": (lambda v: isinstance(v, list) and len(v) == 2
              and all(json_number(x, int) for x in v), "a list of two integers"),
}


def fields_from_json(cls, raw, error: type, what: str, aliases: dict) -> dict:
    """The keyword arguments of dataclass ``cls`` that the JSON object
    ``raw`` gives. ``aliases`` maps a JSON key to the field it sets, to a
    tuple of fields that its list's items set in order, or to a dict that
    maps its object's keys to fields. An unknown key, or a value that does
    not fit its field's ``_VALUE_TYPES`` entry, raises ``error`` naming the
    key. A ``tuple`` field's list becomes a tuple."""
    if not isinstance(raw, dict):
        raise error(f"{what} must be a JSON object, got {type(raw).__name__}")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        target = aliases.get(key, key)
        if isinstance(target, dict):
            if not isinstance(value, dict):
                raise error(f"{what} key {key!r} must be an object, got {value!r}")
            items = [(f"{key}.{k}", target.get(k), v) for k, v in value.items()]
        elif isinstance(target, tuple):
            if not isinstance(value, list) or len(value) != len(target):
                raise error(f"{what} key {key!r} must be a list of {len(target)} values,"
                            f" got {value!r}")
            items = [(f"{key}[{i}]", name, v) for i, (name, v) in enumerate(zip(target, value))]
        else:
            items = [(key, target, value)]
        for label, name, v in items:
            if name not in types:
                raise error(f"unknown {what} key {label!r}")
            accepts, expected = _VALUE_TYPES[types[name]]
            if not accepts(v):
                raise error(f"{what} key {label!r} must be {expected}, got {v!r}")
            kwargs[name] = tuple(v) if types[name] == "tuple" else v
    return kwargs


@dataclass
class RunConfig:
    # model
    C: int | None = None          # entity classes; filled from the dataset when omitted
    P: int | None = None          # predicate classes; filled from the dataset when omitted
    K: int = 4                    # representations per entity and role
    d: int = 256                  # channel width
    L_d: int = 1                  # decoder layers
    h_G: int = 8                  # group cross-attention heads
    d_G: int = 32                 # group cross-attention head width
    h_R: int = 8                  # relation cross-attention heads
    d_R: int = 32                 # relation cross-attention head width
    h_A: int = 128                # relation-head attention heads
    d_A: int = 64                 # relation-head attention head width
    scale_interpolation: str = "trilinear"  # or "nearest": snap the scale axis
    # sampling
    points_min: int = 1           # per-iteration sample count is uniform on
    points_max: int = 100         # [points_min, points_max]
    infer_range_mult: int = 3     # inference grid reaches range_mult * sigma
    infer_step_mult: int = 1      # inference grid stride in units of sigma
    # losses
    alpha: float = 0.75
    gamma_base: float = 2.0
    neg_ratio: int = 10
    loss_weights: dict = field(default_factory=_default_loss_weights)
    gumbel_hard: bool = False
    # logit adjustment
    pgla: bool = True
    pgla_metric: str = "recall"
    lam: float = 1.0
    # optimization
    iterations: int = 1000
    learning_rate: float = 1e-5
    weight_decay: float = 1e-4
    lr_multiplier_sampler: float = 0.1
    seed: int = 0
    # features
    feature_noise_std: float = 0.05

    def validate(self) -> None:
        if self.iterations <= 0:
            raise ConfigError(f"iterations must be positive, got {self.iterations}")
        for name in ("K", "d", "L_d", "h_G", "d_G", "h_R", "d_R", "h_A", "d_A"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d % 4 != 0:
            raise ConfigError(f"d must be divisible by 4 for positional channels, got {self.d}")
        if self.scale_interpolation not in ("trilinear", "nearest"):
            raise ConfigError(f"unknown scale_interpolation {self.scale_interpolation!r}")
        if not (1 <= self.points_min <= self.points_max):
            raise ConfigError(
                f"need 1 <= points_min <= points_max, got [{self.points_min}, {self.points_max}]")
        if self.infer_range_mult < 0 or self.infer_step_mult < 1:
            raise ConfigError("inference grid needs range_mult >= 0 and step_mult >= 1")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.lr_multiplier_sampler <= 0:
            raise ConfigError(
                f"lr_multiplier_sampler must be positive, got {self.lr_multiplier_sampler}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        for name in ("gamma_base", "weight_decay", "seed", "feature_noise_std"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.neg_ratio < 0:
            raise ConfigError(f"neg_ratio must be non-negative, got {self.neg_ratio}")
        if self.pgla_metric not in ("recall", "precision"):
            raise ConfigError(f"unknown pgla_metric {self.pgla_metric!r}")
        if self.lam <= 0:
            raise ConfigError(f"lambda must be positive, got {self.lam}")
        unknown = set(self.loss_weights) - set(_default_loss_weights())
        if unknown:
            raise ConfigError(f"unknown loss_weights keys: {sorted(unknown)}")
        for key, weight in self.loss_weights.items():
            if weight < 0:
                raise ConfigError(f"loss_weights {key!r} must be non-negative, got {weight}")
        if self.C is not None and self.C < 1:
            raise ConfigError(f"C must be >= 1, got {self.C}")
        if self.P is not None and self.P < 1:
            raise ConfigError(f"P must be >= 1, got {self.P}")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["lambda"] = out.pop("lam")
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        cfg = cls(**fields_from_json(cls, raw, ConfigError, "config", {"lambda": "lam"}))
        weights = _default_loss_weights()
        weights.update(cfg.loss_weights)
        cfg.loss_weights = weights
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        return cls.from_dict(read_json(path, ConfigError, "configuration"))
