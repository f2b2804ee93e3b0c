"""Full model: embeddings + decoder + relation head behind one forward()."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, RunConfig
from .data import SCALE_LEVELS, SceneSample
from .decoder import DecodeResult, DecoderStack
from .features import build_positional_embeddings
from .params import ParameterRegistry
from .relation_head import RelationHead, RelationPrediction
from .tensor import Tensor


@dataclass
class ForwardOutput:
    prediction: RelationPrediction
    decode: DecodeResult


class RelationModel:
    def __init__(self, config: RunConfig, rng: np.random.Generator):
        if config.C is None or config.P is None:
            raise ConfigError("model construction needs C and P resolved")
        config.validate()
        self.config = config
        self.registry = ParameterRegistry()
        C, K, d = config.C, config.K, config.d
        self.sub_embeds = self.registry.add("embeds.subject",
                                            rng.normal(0.0, 0.02, size=(C, K, d)))
        self.obj_embeds = self.registry.add("embeds.object",
                                            rng.normal(0.0, 0.02, size=(C, K, d)))
        self.scale_embeds = self.registry.add("embeds.scale",
                                              rng.normal(0.0, 0.02, size=(SCALE_LEVELS, d)))
        self.decoder = DecoderStack(self.registry, d=d, K=K, layers=config.L_d,
                                    h_G=config.h_G, d_G=config.d_G,
                                    h_R=config.h_R, d_R=config.d_R,
                                    sampler_lr_mult=config.lr_multiplier_sampler, rng=rng)
        self.head = RelationHead(self.registry, d=d, heads=config.h_A,
                                 head_dim=config.d_A, num_predicates=config.P, rng=rng)

    def forward(self, scene: SceneSample, volume: np.ndarray, mode: str,
                rng: np.random.Generator = None, m: int = None,
                tau: float = None) -> ForwardOutput:
        cfg = self.config
        if not scene.entities:
            empty = RelationPrediction(
                predicate_logits=Tensor(np.zeros((cfg.P, 0, 0))),
                relatedness_logits=Tensor(np.zeros((0, 0))),
                scores=np.zeros((cfg.P, 0, 0)))
            return ForwardOutput(prediction=empty, decode=DecodeResult(queries=None))
        volume = Tensor(volume)
        pe = build_positional_embeddings(volume, self.scale_embeds)
        decode = self.decoder.decode(
            scene.entities, volume, pe, self.sub_embeds, self.obj_embeds,
            mode=mode, rng=rng, m=m,
            range_mult=cfg.infer_range_mult, step_mult=cfg.infer_step_mult,
            scale_interpolation=cfg.scale_interpolation)
        prediction = self.head.forward(*decode.queries, mode=mode, tau=tau, rng=rng,
                                       hard=cfg.gumbel_hard)
        return ForwardOutput(prediction=prediction, decode=decode)
