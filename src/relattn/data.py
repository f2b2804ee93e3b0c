"""Scene records, dataset JSON serialization, and the synthetic generator.

A scene holds detected entities (class, box, scale level) plus ground-truth
relationship triplets (subject, predicate, object). The generator ties each
(subject class, object class, relative-position bucket) to a predicate via
a seeded rule table whose predicate shares follow a Zipf law, so relations
are learnable from appearance and geometry while the predicate histogram
is long-tailed. A held-out subset of (subject class, predicate, object
class) combinations is excluded from training scenes to create zero-shot
triplets in the test split.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, fields_from_json, json_number, read_json


class DatasetError(ValueError):
    """A dataset file is malformed."""


class GenerationError(RuntimeError):
    """The generator specification is unsatisfiable."""


SCALE_LEVELS = 5
_SPLIT_CODES = {"train": 0, "test": 1}


@dataclass(frozen=True)
class EntityDetection:
    box: tuple  # (x0, y0, x1, y1), normalized to [0, 1]
    scale_level: int
    class_label: int

    def __post_init__(self):
        x0, y0, x1, y1 = self.box
        if not (0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0):
            raise DatasetError(f"degenerate or out-of-range box {self.box}")
        if not 0 <= self.scale_level < SCALE_LEVELS:
            raise DatasetError(f"scale level {self.scale_level} outside [0, {SCALE_LEVELS - 1}]")
        if self.class_label < 0:
            raise DatasetError(f"negative class label {self.class_label}")

    @property
    def center(self) -> tuple:
        x0, y0, x1, y1 = self.box
        return ((x0 + x1) / 2.0, (y0 + y1) / 2.0)


@dataclass
class SceneSample:
    image_size: tuple  # (height, width) in pixels
    entities: list
    triplets: list  # (subject_index, predicate, object_index)
    split: str = "train"
    index: int = 0

    def validate(self, C: int, P: int) -> None:
        n = len(self.entities)
        seen = set()
        for ent in self.entities:
            if ent.class_label >= C:
                raise DatasetError(f"class label {ent.class_label} >= C={C}")
        for t in self.triplets:
            s, p, o = t
            if not (0 <= s < n and 0 <= o < n):
                raise DatasetError(f"triplet {t} references a missing entity (n={n})")
            if s == o:
                raise DatasetError(f"self-relation {t}")
            if not 0 <= p < P:
                raise DatasetError(f"predicate {p} outside [0, {P})")
            if (s, p, o) in seen:
                raise DatasetError(f"duplicate triplet {t}")
            seen.add((s, p, o))


@dataclass
class Dataset:
    scenes: list
    priors: np.ndarray  # (P,) add-one smoothed predicate frequencies from train
    seen_triples: set  # {(subject_class, predicate, object_class)} observed in train
    meta: dict

    @property
    def C(self) -> int:
        return int(self.meta["C"])

    @property
    def P(self) -> int:
        return int(self.meta["P"])

    @property
    def seed(self) -> int:
        return int(self.meta["seed"])


def check_priors(priors) -> np.ndarray:
    """Predicate priors as a float64 vector; ValueError unless they are a
    non-empty vector of positive values that sums to 1 within 1e-9."""
    priors = np.asarray(priors, dtype=np.float64)
    if priors.ndim != 1 or priors.size == 0:
        raise ValueError(f"priors must be a non-empty vector, got shape {priors.shape}")
    if (priors <= 0).any():
        raise ValueError("priors must be strictly positive")
    if abs(priors.sum() - 1.0) > 1e-9:
        raise ValueError("priors must sum to 1")
    return priors


def scale_from_box(box: tuple, image_size: tuple) -> int:
    """Scale level from the box diagonal in pixels: doubling the diagonal
    moves one level up, anchored at 32 px, clamped to the pyramid range."""
    h0, w0 = image_size
    x0, y0, x1, y1 = box
    diag = math.hypot((x1 - x0) * w0, (y1 - y0) * h0)
    if diag <= 0:
        raise DatasetError(f"zero-diagonal box {box}")
    return int(np.clip(math.floor(math.log2(diag / 32.0)), 0, SCALE_LEVELS - 1))


def scene_feature_rng(dataset_seed: int, split: str, index: int) -> np.random.Generator:
    """Deterministic per-scene stream so train and eval synthesize identical
    feature volumes for the same scene."""
    code = _SPLIT_CODES[split]
    return np.random.default_rng(np.random.SeedSequence([dataset_seed, code, index]))


def grid_shape(image_size: tuple) -> tuple:
    """The feature grid of an image: 1/8 of its (height, width), at least 2 x 2."""
    h0, w0 = image_size
    h, w = h0 // 8, w0 // 8
    if h < 2 or w < 2:
        raise ConfigError(f"image_size {image_size} gives a degenerate {h}x{w} grid")
    return h, w


# -- generator ---------------------------------------------------------------

# Generator-spec JSON keys that set other fields: a list of the entity
# count bounds, and an object of the rule-table settings.
_SPEC_ALIASES = {
    "entities_per_scene": ("entities_min", "entities_max"),
    "triplet_rules": {"buckets": "buckets", "noise": "rule_noise",
                      "pair_fraction": "pair_fraction"},
}


@dataclass
class GenSpec:
    num_scenes: int
    C: int
    P: int
    entities_min: int = 3
    entities_max: int = 6
    zipf_exponent: float = 1.0
    seed: int = 0
    test_scenes: int | None = None
    holdout_fraction: float = 0.15
    image_size: tuple = (256, 256)
    buckets: int = 4
    rule_noise: float = 0.0
    pair_fraction: float = 0.6

    def validate(self) -> None:
        if self.num_scenes < 1:
            raise GenerationError("num_scenes must be >= 1")
        if self.test_scenes is not None and self.test_scenes < 0:
            raise GenerationError(f"test_scenes must be non-negative, got {self.test_scenes}")
        if self.seed < 0:
            raise GenerationError(f"seed must be non-negative, got {self.seed}")
        try:
            grid_shape(self.image_size)
        except ConfigError as exc:
            raise GenerationError(str(exc)) from exc
        if self.C < 1 or self.P < 1:
            raise GenerationError("C and P must be >= 1")
        if not 2 <= self.entities_min <= self.entities_max:
            raise GenerationError("need 2 <= entities_min <= entities_max")
        if self.zipf_exponent < 0:
            raise GenerationError("zipf_exponent must be non-negative")
        if self.buckets not in (1, 2, 4):
            raise GenerationError(f"buckets must be 1, 2 or 4, got {self.buckets}")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise GenerationError("holdout_fraction must lie in [0, 1)")
        if not 0.0 < self.pair_fraction <= 1.0:
            raise GenerationError("pair_fraction must lie in (0, 1]")
        if not 0.0 <= self.rule_noise <= 1.0:
            raise GenerationError("rule_noise must lie in [0, 1]")
        if self.C * self.C * self.buckets < self.P:
            raise GenerationError(
                f"{self.C * self.C * self.buckets} rules cannot cover {self.P} predicates")

    @classmethod
    def from_dict(cls, raw: dict) -> "GenSpec":
        spec = cls(**fields_from_json(cls, raw, GenerationError, "generator spec", _SPEC_ALIASES))
        spec.validate()
        return spec

    @classmethod
    def from_json(cls, path) -> "GenSpec":
        return cls.from_dict(read_json(path, GenerationError, "generator spec"))


def zipf_masses(P: int, exponent: float) -> np.ndarray:
    """Normalized Zipf weights over predicates 0..P-1; exponent 0 is uniform."""
    ranks = np.arange(1, P + 1, dtype=np.float64)
    w = ranks ** (-float(exponent))
    return w / w.sum()


def position_bucket(subject_center: tuple, object_center: tuple, buckets: int) -> int:
    """Coarse relative position of the object w.r.t. the subject."""
    dx = object_center[0] - subject_center[0]
    dy = object_center[1] - subject_center[1]
    if buckets == 1:
        return 0
    if buckets == 2:
        return 0 if dx >= 0 else 1
    if abs(dx) >= abs(dy):
        return 0 if dx >= 0 else 1
    return 2 if dy >= 0 else 3


def _build_rules(spec: GenSpec, rng: np.random.Generator) -> dict:
    """Assign every (subject class, object class, bucket) key a predicate so
    that predicate shares follow the Zipf masses and each predicate owns at
    least one rule."""
    keys = [(cs, co, b)
            for cs in range(spec.C) for co in range(spec.C) for b in range(spec.buckets)]
    rng.shuffle(keys)
    masses = zipf_masses(spec.P, spec.zipf_exponent)
    counts = np.floor(masses * len(keys)).astype(int)
    remainder = len(keys) - counts.sum()
    order = np.argsort(-(masses * len(keys) - counts), kind="stable")
    for i in range(remainder):
        counts[order[i % spec.P]] += 1
    # Every predicate needs a rule; steal from the largest owners.
    while (counts == 0).any():
        counts[int(np.argmax(counts == 0))] += 1
        counts[int(np.argmax(counts))] -= 1
    rules = {}
    start = 0
    for p, c in enumerate(counts):
        for key in keys[start : start + c]:
            rules[key] = p
        start += c
    return rules


def _choose_holdout(rules: dict, fraction: float, rng: np.random.Generator) -> set:
    """Pick (subject class, predicate, object class) combos to exclude from
    train scenes, keeping at least one combo per predicate visible."""
    combos = sorted({(cs, p, co) for (cs, co, _b), p in rules.items()})
    if fraction <= 0 or not combos:
        return set()
    per_pred: dict[int, int] = {}
    for _cs, p, _co in combos:
        per_pred[p] = per_pred.get(p, 0) + 1
    target = int(round(fraction * len(combos)))
    order = rng.permutation(len(combos))
    held: set = set()
    for idx in order:
        if len(held) >= target:
            break
        cs, p, co = combos[idx]
        if per_pred[p] <= 1:
            continue
        held.add((cs, p, co))
        per_pred[p] -= 1
    return held


def _generate_scene(spec: GenSpec, rules: dict, holdout: set, split: str,
                    index: int, rng: np.random.Generator) -> SceneSample:
    for _attempt in range(100):
        n = int(rng.integers(spec.entities_min, spec.entities_max + 1))
        entities = []
        for _ in range(n):
            c = int(rng.integers(spec.C))
            w = rng.uniform(0.1, 0.4)
            h = rng.uniform(0.1, 0.4)
            x0 = rng.uniform(0.0, 1.0 - w)
            y0 = rng.uniform(0.0, 1.0 - h)
            box = (float(x0), float(y0), float(x0 + w), float(y0 + h))
            entities.append(EntityDetection(
                box=box, scale_level=scale_from_box(box, spec.image_size), class_label=c))
        triplets = []
        for i in range(n):
            for j in range(n):
                if i == j or rng.random() >= spec.pair_fraction:
                    continue
                ci, cj = entities[i].class_label, entities[j].class_label
                b = position_bucket(entities[i].center, entities[j].center, spec.buckets)
                p = rules[(ci, cj, b)]
                if spec.rule_noise > 0 and rng.random() < spec.rule_noise:
                    p = int(rng.integers(spec.P))
                if split == "train" and (ci, p, cj) in holdout:
                    continue
                triplets.append((i, int(p), j))
        if triplets:
            return SceneSample(image_size=spec.image_size, entities=entities,
                               triplets=triplets, split=split, index=index)
    raise GenerationError(
        f"could not produce a non-empty {split} scene in 100 attempts;"
        " raise pair_fraction or lower holdout_fraction")


def generate_dataset(spec: GenSpec) -> tuple[Dataset, Dataset]:
    """Build (train, test) datasets from one seeded stream."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    rules = _build_rules(spec, rng)
    holdout = _choose_holdout(rules, spec.holdout_fraction, rng)
    n_test = spec.test_scenes if spec.test_scenes is not None else max(1, spec.num_scenes // 4)

    train_scenes = [_generate_scene(spec, rules, holdout, "train", i, rng)
                    for i in range(spec.num_scenes)]
    test_scenes = [_generate_scene(spec, rules, holdout, "test", i, rng)
                   for i in range(n_test)]

    counts = np.zeros(spec.P, dtype=np.float64)
    seen: set = set()
    for scene in train_scenes:
        for s, p, o in scene.triplets:
            counts[p] += 1
            seen.add((scene.entities[s].class_label, p, scene.entities[o].class_label))
    priors = (counts + 1.0) / (counts.sum() + spec.P)

    meta = {"C": spec.C, "P": spec.P, "seed": spec.seed,
            "image_size": list(spec.image_size), "zipf_exponent": spec.zipf_exponent}
    train = Dataset(train_scenes, priors, seen, dict(meta, split="train"))
    test = Dataset(test_scenes, priors.copy(), set(seen), dict(meta, split="test"))
    return train, test


# -- JSON serialization --------------------------------------------------


def dataset_to_dict(ds: Dataset) -> dict:
    return {
        "scenes": [
            {
                "image_size": list(scene.image_size),
                "entities": [
                    {"class": e.class_label, "box": list(e.box), "scale": e.scale_level}
                    for e in scene.entities
                ],
                "triplets": [list(t) for t in scene.triplets],
            }
            for scene in ds.scenes
        ],
        "priors": [float(v) for v in ds.priors],
        "seen_triples": [list(t) for t in sorted(ds.seen_triples)],
        "meta": ds.meta,
    }


def save_dataset(path, ds: Dataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataset_to_dict(ds), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _json_int(value, key: str) -> int:
    """A JSON integer; DatasetError naming ``key`` for any other value,
    true, false and whole floats included."""
    if not json_number(value, int):
        raise DatasetError(f"key {key!r} must be an integer, got {value!r}")
    return value


def _json_numbers(value, key: str, length: int, types=int) -> tuple:
    """A JSON list of ``length`` numbers of the given types, integers by
    default, as a tuple; DatasetError naming ``key`` otherwise."""
    if not (isinstance(value, list) and len(value) == length
            and all(json_number(v, types) for v in value)):
        what = "integers" if types is int else "numbers"
        raise DatasetError(f"key {key!r} must be a list of {length} {what}, got {value!r}")
    return tuple(value)


def load_dataset(path) -> Dataset:
    raw = read_json(path, DatasetError, "dataset")
    if not isinstance(raw, dict):
        raise DatasetError("dataset JSON must be an object")
    for key in ("scenes", "priors", "seen_triples", "meta"):
        if key not in raw:
            raise DatasetError(f"dataset missing required key {key!r}")
    meta = raw["meta"]
    if not isinstance(meta, dict) or not all(
            json_number(meta.get(key), int) for key in ("C", "P", "seed")):
        raise DatasetError("dataset meta must hold integer C, P and seed")
    C, P = meta["C"], meta["P"]
    # A dataset whose meta names no split is a training split.
    split = meta.setdefault("split", "train")
    if not (isinstance(split, str) and split in _SPLIT_CODES):
        raise DatasetError(f"dataset meta key 'split' must be 'train' or 'test', got {split!r}")
    if not isinstance(raw["scenes"], list):
        raise DatasetError("dataset scenes must be a list")
    scenes = []
    for i, rec in enumerate(raw["scenes"]):
        try:
            entities = [
                EntityDetection(box=_json_numbers(e["box"], "box", 4, (int, float)),
                                scale_level=_json_int(e["scale"], "scale"),
                                class_label=_json_int(e["class"], "class"))
                for e in rec["entities"]
            ]
            scene = SceneSample(
                image_size=_json_numbers(rec["image_size"], "image_size", 2),
                entities=entities,
                triplets=[_json_numbers(t, "triplets", 3) for t in rec["triplets"]],
                split=split, index=i)
            scene.validate(C, P)
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"scene {i}: {exc}") from exc
        scenes.append(scene)
    try:
        priors = check_priors(raw["priors"])
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"dataset {exc}") from exc
    if priors.size != P:
        raise DatasetError(f"dataset priors must be {P} values, got {priors.size}")
    if not isinstance(raw["seen_triples"], list):
        raise DatasetError("dataset seen_triples must be a list")
    seen = {_json_numbers(t, "seen_triples", 3) for t in raw["seen_triples"]}
    return Dataset(scenes, priors, seen, meta)
