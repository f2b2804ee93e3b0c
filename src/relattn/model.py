"""Full model: decoder and relation head behind one forward()."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, RunConfig
from .data import SceneSample
from .decoder import DecodeResult, DecoderStack
from .params import ParameterRegistry
from .relation_head import RelationHead, RelationPrediction
from .sampler import TrainDraw
from .tensor import Tensor


@dataclass
class ForwardOutput:
    prediction: RelationPrediction
    decode: DecodeResult


class RelationModel:
    """The decoder and the relation head over one parameter registry.

    ``rng`` draws the seeded initial values, in a fixed order. With
    ``rng`` None nothing is drawn: every parameter that would be drawn
    starts at zero, for a model whose values are then loaded from a
    checkpoint with ``registry.load_state_dict``. Names, shapes and
    learning-rate multipliers are the same either way."""

    def __init__(self, config: RunConfig, rng: np.random.Generator | None):
        if config.C is None or config.P is None:
            raise ConfigError("model construction needs C and P resolved")
        config.validate()
        self.config = config
        self.registry = ParameterRegistry()
        self.decoder = DecoderStack(self.registry, config, rng)
        self.head = RelationHead(self.registry, config, rng)

    def forward(self, scene: SceneSample, volume: np.ndarray,
                draw: TrainDraw | None = None) -> ForwardOutput:
        """A training draw samples random points and weighs state pairs by
        Gumbel-softmax; without one, the inference lattice and a max."""
        if not scene.entities:
            P = self.config.P
            empty = RelationPrediction(
                predicate_logits=Tensor(np.zeros((P, 0, 0))),
                relatedness_logits=Tensor(np.zeros((0, 0))),
                scores=np.zeros((P, 0, 0)))
            return ForwardOutput(prediction=empty, decode=DecodeResult(queries=None))
        decode = self.decoder.decode(scene.entities, volume, draw)
        prediction = self.head.forward(*decode.queries, draw)
        return ForwardOutput(prediction=prediction, decode=decode)
