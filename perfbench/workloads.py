"""The benchmark's workloads and the datasets they run on.

Each workload fixes a model configuration, a generator spec and the size of
one measured round: `iterations` training iterations over `train_scenes`
scenes, then one evaluation pass over `test_scenes` scenes. The benchmark's
`--seed` picks the dataset. The model seed is fixed, so every seed starts
from the same model init.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from relattn.config import RunConfig
from relattn.data import Dataset, GenSpec, generate_dataset, save_dataset

# The acceptance suite's desk_config, without its iteration count.
DESK_MODEL = {"K": 2, "d": 32, "L_d": 1, "h_G": 4, "d_G": 8, "h_R": 4, "d_R": 8,
              "h_A": 8, "d_A": 8, "learning_rate": 1e-3}
MODEL_SEED = 5
# Sample points per entity state and training iteration, fixed at the mean
# of the default uniform range [1, 100]. The training rng's draws depend on
# the data, so a drawn count would differ between seeds and make an
# iteration's cost depend on the seed rather than on its scene.
TRAIN_POINTS = 50
# Data seed of the outputs recorded in reference.json.
REFERENCE_SEED = 7
# The generator draws entity counts at random; a pool this many times
# larger than a split lets every split hold the same count mix.
POOL_FACTOR = 6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: dict              # RunConfig overrides; {} keeps the paper defaults
    C: int
    P: int
    entities: tuple          # (min, max) entities per scene
    train_scenes: int
    test_scenes: int
    iterations: int          # training iterations per round
    reference_split: tuple   # (train, test) scenes of the reference check's data
    reference_scenes: int    # test scenes in the recorded reference check

    def run_config(self, iterations: int) -> RunConfig:
        return RunConfig.from_dict(dict(self.model, iterations=iterations, seed=MODEL_SEED,
                                        points_min=TRAIN_POINTS, points_max=TRAIN_POINTS))

    def gen_spec(self, seed: int) -> GenSpec:
        return GenSpec(num_scenes=POOL_FACTOR * self.train_scenes,
                       test_scenes=POOL_FACTOR * self.test_scenes,
                       C=self.C, P=self.P,
                       entities_min=self.entities[0], entities_max=self.entities[1],
                       zipf_exponent=1.5, seed=seed, holdout_fraction=0.15,
                       image_size=(256, 256))


WORKLOADS = {
    "desk": Workload(
        name="desk",
        why="acceptance-suite desk model on the criterion-8 Zipf spec; tiny tensors, "
            "so per-tape-node Python overhead and point_sample gathers dominate",
        model=DESK_MODEL, C=8, P=10, entities=(3, 6),
        train_scenes=8, test_scenes=8, iterations=16,
        reference_split=(16, 40), reference_scenes=8),
    "paper": Workload(
        name="paper",
        why="RunConfig defaults (d=256, K=4, h_A=128, 6.9M params) on the same spec; "
            "numpy kernels dominate: AdamW, point_sample over the 343-point lattice",
        model={}, C=8, P=10, entities=(3, 6),
        train_scenes=2, test_scenes=2, iterations=4,
        reference_split=(4, 4), reference_scenes=2),
}


def stratified(scenes: list, levels: list, count: int) -> list:
    """`count` scenes whose entity counts spread evenly over `levels`, in
    ascending order. When the pool runs out of a level, the nearest level
    stands in."""
    by_level: dict = {}
    for scene in scenes:
        by_level.setdefault(len(scene.entities), []).append(scene)
    for pool in by_level.values():
        pool.reverse()
    picked = []
    for i in range(count):
        want = levels[i * len(levels) // count]
        level = min((lv for lv, pool in by_level.items() if pool),
                    key=lambda lv: (abs(lv - want), lv))
        picked.append(by_level[level].pop())
    return picked


def write_dataset(workload: Workload, seed: int, out_dir: str) -> None:
    """Generate the workload's train and test splits from `seed` into
    `out_dir`. The entity counts of each split are fixed by its size, so
    seeds change scene content but not the size mix. Priors and seen
    triples come from the whole generated train pool."""
    os.makedirs(out_dir, exist_ok=True)
    train, test = generate_dataset(workload.gen_spec(seed))
    levels = list(range(workload.entities[0], workload.entities[1] + 1))
    for ds, count, name in ((train, workload.train_scenes, "train.json"),
                            (test, workload.test_scenes, "test.json")):
        scenes = stratified(ds.scenes, levels, count)
        save_dataset(os.path.join(out_dir, name),
                     Dataset(scenes, ds.priors, ds.seen_triples, ds.meta))
