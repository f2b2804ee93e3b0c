"""Rounds, output checks and metrics.

One round is the whole user-visible cycle on one dataset: generate and save
it, `train.train` (load, build, iterate, save the checkpoint),
`evaluate.load_model`, then `evaluate.evaluate_dataset` once per test scene.
Train iterations and eval scenes are the timed operations; the rest of the
round's time is its set-up time. Times are CPU seconds of the one thread
that runs everything (`hooks.cpu_s`); wall times are kept for the log. Every
round of a run repeats the same work, so round-to-round differences in any
output are failures.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import resource
import statistics
import time
import tracemalloc
import zlib
from dataclasses import dataclass, field

from relattn import evaluate, train
from relattn.data import Dataset, load_dataset
from relattn.model import RelationModel

import numpy as np

from hooks import TAPE_OPS, Clock, Tracer, cpu_s
from workloads import REFERENCE_SEED, Workload, write_dataset

# Tolerances of the reference check. One seeded forward, backward and
# eval pass in float64 reorders sums by at most ~1e-13 relative; a change
# in what is computed moves these values by far more.
LOSS_RTOL = 1e-9
LOSS_ATOL = 1e-12
EVAL_ATOL = 1e-9
# Timed rounds per run, at least: set-up time is a median over rounds.
MIN_ROUNDS = 3
# An op's time is this percentile of its repeats over the rounds. The
# shared host the benchmark was tuned on switches between a fast and a slow
# state (a fixed in-cache loop runs 50% slower in the slow one) for spells
# of seconds to minutes. The median op time follows the share of the run
# the host spent slow; the fastest repeat hangs on one lucky repeat. In
# paired runs over five and six seeds, the 10th percentile had the
# smallest worst-case spread: 8%, against 10% for the median and 13% for
# the fastest repeat.
OP_PERCENTILE = 10


@dataclass
class RoundResult:
    iter_s: list = field(default_factory=list)    # completed train iterations
    scene_s: list = field(default_factory=list)   # completed eval scenes
    setup_s: float = 0.0
    wall: dict = field(default_factory=dict)      # the same three, in wall time
    attempted: int = 0
    bad_iters: set = field(default_factory=set)   # failed train iterations
    bad_scenes: set = field(default_factory=set)  # failed eval scenes
    errors: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)   # compared across rounds

    @property
    def failed(self) -> int:
        return len(self.bad_iters) + len(self.bad_scenes)


def run_round(wl: Workload, seed: int, workdir: str, clock: Clock,
              tracer: Tracer | None = None) -> RoundResult:
    res = RoundResult(attempted=wl.iterations + wl.test_scenes)
    data_dir = os.path.join(workdir, "data")
    out_dir = os.path.join(workdir, "run")
    start, wall_start = cpu_s(), time.perf_counter()
    if tracer is not None:
        tracer.phase = "setup"
        tracer.enter("data.generate")
    try:
        write_dataset(wl, seed, data_dir)
    finally:
        if tracer is not None:
            tracer.exit()

    clock.tracer = tracer
    clock.begin(wl.iterations)
    try:
        result = train.train(wl.run_config(wl.iterations), data_dir, out_dir)
    except Exception as exc:  # an iteration raised: it and all later ones fail
        result = None
        res.errors.append(f"train: {type(exc).__name__}: {exc}")
    finally:
        clock.tracer = None
        if tracer is not None:
            tracer.phase = "setup"
    res.iter_s = clock.durations()
    wall_scene_s = []

    rows_per_scene = []
    try:
        if result is None:
            raise RuntimeError("no checkpoint to evaluate")
        model, _cfg = evaluate.load_model(result.checkpoint_path)
        test = load_dataset(os.path.join(data_dir, "test.json"))
        for scene in test.scenes:
            single = Dataset([scene], test.priors, test.seen_triples, test.meta)
            if tracer is not None:
                tracer.phase = "eval"
                tracer.op_start()
            t0, wall_t0 = cpu_s(), time.perf_counter()
            try:
                rows = evaluate.evaluate_dataset(model, single)
            except Exception as exc:
                rows = None
                res.errors.append(f"eval scene {scene.index}: {type(exc).__name__}: {exc}")
            finally:
                res.scene_s.append(cpu_s() - t0)
                wall_scene_s.append(time.perf_counter() - wall_t0)
                if tracer is not None:
                    tracer.op_end()
                    tracer.phase = "setup"
            rows_per_scene.append(rows)
    except Exception as exc:
        res.errors.append(f"eval: {type(exc).__name__}: {exc}")
    res.setup_s = cpu_s() - start - sum(res.iter_s) - sum(res.scene_s)
    wall_iter_s = clock.wall_durations()
    res.wall = {"iter_s": wall_iter_s, "scene_s": wall_scene_s,
                "setup_s": time.perf_counter() - wall_start - sum(wall_iter_s)
                - sum(wall_scene_s)}

    res.bad_iters = check_train(wl, result, res) | set(range(len(res.iter_s), wl.iterations))
    res.bad_scenes = {i for i, rows in enumerate(rows_per_scene) if not rows_ok(rows)}
    res.bad_scenes |= set(range(len(rows_per_scene), wl.test_scenes))
    if res.failed:
        res.errors.append(f"failed: iterations {sorted(res.bad_iters)}, "
                          f"scenes {sorted(res.bad_scenes)}")
    res.outputs["scenes"] = rows_per_scene
    if result is not None:
        with open(result.checkpoint_path, "rb") as fh:
            res.outputs["checkpoint_crc32"] = zlib.crc32(fh.read())
        res.outputs["checkpoint_bytes"] = os.path.getsize(result.checkpoint_path)
    return res


def check_train(wl: Workload, result, res: RoundResult) -> set:
    """Iterations whose logged losses are missing or not all finite. The
    log rows go into res.outputs for the cross-round comparison."""
    if result is None:
        return set()
    with open(result.log_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    res.outputs["train_log"] = rows
    bad = {i for i, row in enumerate(rows)
           if not all(math.isfinite(float(v)) for v in row[1:])}
    return bad | set(range(len(rows), wl.iterations))


def rows_ok(rows) -> bool:
    """One scene's metric rows are well formed: every value is missing or
    a share in [0, 1], recall grows with k, and mean recall is the mean of
    the scene's per-predicate recalls."""
    if not rows:
        return False
    recall, mean_recall, per_pred = {}, {}, {}
    for _split, _task, metric, k, pred, value in rows:
        if value is not None and not (math.isfinite(value) and 0.0 <= value <= 1.0):
            return False
        if metric == "recall":
            recall[k] = value
        elif metric == "mean_recall":
            mean_recall[k] = value
        elif metric == "predicate_recall":
            per_pred.setdefault(k, []).append(value)
    ks = sorted(recall)
    if not ks or any(recall[k] is None for k in ks):
        return False
    if any(recall[a] > recall[b] for a, b in zip(ks, ks[1:])):
        return False
    for k in ks:
        if mean_recall.get(k) is None or not per_pred.get(k):
            return False
        if abs(float(np.mean(per_pred[k])) - mean_recall[k]) > 1e-12:
            return False
    return True


def compare_rounds(first: RoundResult, later: RoundResult) -> None:
    """Fail every train iteration and eval scene of `later` whose output
    differs from the same operation in `first`. A checkpoint that differs
    fails every scene evaluated from it."""
    a, b = first.outputs, later.outputs
    log_a, log_b = a.get("train_log", []), b.get("train_log", [])
    bad_iters = {i for i in range(len(log_b)) if i >= len(log_a) or log_a[i] != log_b[i]}
    scenes_a, scenes_b = a.get("scenes", []), b.get("scenes", [])
    bad_scenes = {i for i in range(len(scenes_b))
                  if i >= len(scenes_a) or scenes_a[i] != scenes_b[i]}
    if a.get("checkpoint_crc32") != b.get("checkpoint_crc32"):
        bad_scenes = set(range(len(scenes_b)))
    if bad_iters or bad_scenes:
        later.bad_iters |= bad_iters
        later.bad_scenes |= bad_scenes
        later.errors.append(f"differs from round 0: iterations {sorted(bad_iters)}, "
                            f"scenes {sorted(bad_scenes)}")


# -- a whole run ---------------------------------------------------------------


@dataclass
class Run:
    """Everything one benchmark invocation measured."""
    untraced: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    tracer: Tracer | None = None
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    check_s: float = 0.0
    peak_heap_mb: float = 0.0
    peak_rss_mb: float = 0.0

    def add(self, result: RoundResult) -> None:
        done = self.untraced + self.traced
        if done:
            compare_rounds(done[0], result)
        self.attempted += result.attempted
        self.failed += result.failed
        self.errors += result.errors


def measure(wl: Workload, seed: int, seconds: float, trace: bool, workdir: str,
            reference: dict) -> Run:
    """The reference check, then timed rounds until `seconds` have passed
    (at least MIN_ROUNDS). With `trace`, rounds alternate between untraced
    and traced, starting untraced, so the tracing overhead is measured
    across the same stretch of time. Without, one more round runs under
    tracemalloc for the peak heap; its times are not used."""
    run = Run(tracer=Tracer() if trace else None)
    clock = Clock()
    try:
        clock.install()
        t0 = time.perf_counter()
        try:
            mismatches = reference_mismatches(reference_outputs(wl, workdir, clock), reference)
        except Exception as exc:
            message = f"raised {type(exc).__name__}: {exc}"
            mismatches = {"first_step": [message], "eval_rows": [message]}
        run.attempted, run.failed = 2, len(mismatches)
        run.errors += [f"reference {check}: {m}" for check, msgs in mismatches.items()
                       for m in msgs]
        run.check_s = time.perf_counter() - t0

        start = time.perf_counter()
        while True:
            traced = trace and len(run.traced) < len(run.untraced)
            if traced:
                run.tracer.install()
            try:
                result = run_round(wl, seed, workdir, clock, run.tracer if traced else None)
            finally:
                if traced:
                    run.tracer.uninstall()
            run.add(result)
            (run.traced if traced else run.untraced).append(result)
            n = len(run.untraced) + len(run.traced)
            elapsed = time.perf_counter() - start
            if n >= MIN_ROUNDS and elapsed * (n + 1) / n > seconds:
                break
        if trace:
            run.errors += [f"trace target {t} not found" for t in run.tracer.missing]
        else:
            tracemalloc.start()
            try:
                run.add(run_round(wl, seed, workdir, clock))
                run.peak_heap_mb = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
    finally:
        clock.uninstall()
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return run


# -- reference check ---------------------------------------------------------


def reference_outputs(wl: Workload, workdir: str, clock: Clock) -> dict:
    """The first training step's losses and global gradient norm, and the
    seeded (untrained) model's eval rows on the first reference scenes,
    for the workload's data at REFERENCE_SEED, split as `reference_split`."""
    data_dir = os.path.join(workdir, "reference")
    train_scenes, test_scenes = wl.reference_split
    write_dataset(dataclasses.replace(wl, train_scenes=train_scenes, test_scenes=test_scenes),
                  REFERENCE_SEED, data_dir)
    cfg = wl.run_config(iterations=1)
    clock.begin(1)
    clock.grad_norms = []
    try:
        result = train.train(cfg, data_dir, os.path.join(workdir, "reference-run"))
        grad_norms = clock.grad_norms
    finally:
        clock.grad_norms = None
    first_step = dict(result.final_losses, grad_norm=grad_norms[0])
    # train.train filled C and P into cfg from the dataset.
    test = load_dataset(os.path.join(data_dir, "test.json"))
    subset = Dataset(test.scenes[:wl.reference_scenes], test.priors, test.seen_triples,
                     test.meta)
    model = RelationModel(cfg, np.random.default_rng([cfg.seed, 0]))
    rows = evaluate.evaluate_dataset(model, subset)
    return {"first_step": first_step, "eval_rows": [list(r) for r in rows]}


def reference_mismatches(got: dict, want: dict) -> dict:
    """Differences beyond the stated tolerances, as messages keyed by the
    check that failed: "first_step" and "eval_rows" each count as one op."""
    out: dict = {}
    for key, ref in want["first_step"].items():
        val = got["first_step"].get(key)
        if val is None or not math.isclose(val, ref, rel_tol=LOSS_RTOL, abs_tol=LOSS_ATOL):
            out.setdefault("first_step", []).append(f"{key}: {val!r} != {ref!r}")
    rows, ref_rows = got["eval_rows"], want["eval_rows"]
    if len(rows) != len(ref_rows):
        out.setdefault("eval_rows", []).append(f"{len(rows)} rows != {len(ref_rows)}")
    for row, ref in zip(rows, ref_rows):
        if list(row[:5]) != list(ref[:5]) or (row[5] is None) != (ref[5] is None) or \
                (ref[5] is not None and abs(row[5] - ref[5]) > EVAL_ATOL):
            out.setdefault("eval_rows", []).append(f"{row} != {ref}")
    return out


# -- metrics -----------------------------------------------------------------


def op_times(rounds: list, attr: str, wall: bool = False) -> np.ndarray:
    """Every round repeats the same operations: each operation's
    OP_PERCENTILE-th percentile time over the rounds that completed it."""
    per_op: dict = {}
    for r in rounds:
        for i, t in enumerate(r.wall[attr] if wall else getattr(r, attr)):
            per_op.setdefault(i, []).append(t)
    return np.array([np.percentile(ts, OP_PERCENTILE) for _i, ts in sorted(per_op.items())])


def timings(rounds: list, wall: bool = False) -> dict:
    """The timed end-to-end metrics as (value, unit), in CPU time or, with
    `wall`, in wall time. Rates and medians are over the operations of one
    round, each timed by `op_times`; set-up time is the median over the
    rounds."""
    iters = op_times(rounds, "iter_s", wall)
    scenes = op_times(rounds, "scene_s", wall)
    return {
        "train_iters_per_s": (len(iters) / float(iters.sum()), "1/s"),
        "train_iter_ms.p50": (1e3 * float(np.median(iters)), "ms"),
        "eval_scenes_per_s": (len(scenes) / float(scenes.sum()), "1/s"),
        "eval_scene_ms.p50": (1e3 * float(np.median(scenes)), "ms"),
        "setup_s": (statistics.median(r.wall["setup_s"] if wall else r.setup_s
                                      for r in rounds), "s"),
    }


def end_to_end(run: Run) -> dict:
    """Every end-to-end metric as (value, unit)."""
    return {
        **timings(run.untraced),
        "peak_heap_mb": (run.peak_heap_mb, "MB"),
        "ok_op_share": ((run.attempted - run.failed) / run.attempted, "share"),
    }


def wall_note(run: Run) -> str:
    """The timed metrics in wall time, reported but not bounded: on a
    shared host they also measure how long other load kept the program
    from a CPU."""
    wall = timings(run.untraced, wall=True)
    return "unbounded wall time: " + "; ".join(
        f"{name} = {value:.6g} {unit}" for name, (value, unit) in wall.items())


def tail_note(run: Run) -> str:
    """p90 of the op times, reported but not bounded: a round has 4 to 96
    distinct ops, so p90 has fewer than ten samples beyond it."""
    parts = []
    for attr, name in (("iter_s", "train_iter_ms.p90"), ("scene_s", "eval_scene_ms.p90")):
        times = op_times(run.untraced, attr)
        parts.append(f"{name} = {1e3 * float(np.percentile(times, 90)):.6g} ms "
                     f"over {len(times)} ops")
    return "unbounded tail: " + "; ".join(parts)


SETUP_LAYERS = (("data.generate", "data.generate_s"), ("data.load", "data.load_s"),
                ("model.build", "model.build_s"), ("checkpoint.save", "checkpoint.save_s"),
                ("checkpoint.load", "checkpoint.load_s"))
TRAIN_LAYERS = ("features.volume", "features.pe", "tensor.point_sample.fwd",
                "tensor.point_sample.bwd", "sampler", "decoder.decode", "decoder.gca",
                "decoder.rca", "relation_head", "losses", "pgla.performance",
                "pgla.confusion", "pgla.adjust", "tensor.backward", "optim.step")
EVAL_LAYERS = ("features.volume", "features.pe", "tensor.point_sample.fwd", "sampler",
               "decoder.decode", "decoder.gca", "decoder.rca", "relation_head",
               "evalkit.rank", "evalkit.recall")


def layer_ms_name(span: str) -> str:
    """Metric name of a span's self time: "sampler" -> "sampler.ms",
    "decoder.gca" -> "decoder.gca_ms"."""
    return f"{span}.ms" if "." not in span else f"{span}_ms"


def per_layer(run: Run) -> dict:
    """Every per-layer metric as (value, unit). Times and counts are per
    round (setup), per train iteration or per eval scene. For each phase,
    the layer self times plus `other_ms` sum to `iter_ms` / `scene_ms`."""
    traced, untraced, tracer = run.traced, run.untraced, run.tracer
    n_rounds = len(traced)
    n_iters = sum(len(r.iter_s) for r in traced)
    n_scenes = sum(len(r.scene_s) for r in traced)
    self_s, counts = tracer.self_s, tracer.counts
    out = {}
    for span, name in SETUP_LAYERS:
        out[f"setup.{name}"] = (self_s[("setup", span)] / n_rounds, "s")
    out["setup.checkpoint.bytes"] = (traced[0].outputs.get("checkpoint_bytes", 0), "bytes")

    def phase_metrics(phase, spans, extra_spans, n_ops, op_s, base_s, unit_name):
        covered = 0.0
        for span in spans + extra_spans:
            value = self_s[(phase, span)]
            covered += value
            out[f"{phase}.{layer_ms_name(span)}"] = (1e3 * value / n_ops, "ms")
        out[f"{phase}.{unit_name}"] = (1e3 * sum(op_s) / n_ops, "ms")
        out[f"{phase}.other_ms"] = (1e3 * (sum(op_s) - covered) / n_ops, "ms")
        out[f"trace.{phase}_overhead_ms"] = (
            1e3 * (sum(op_s) / n_ops - statistics.fmean(base_s)), "ms")

    bwd_spans = tuple(f"tensor.bwd.{op}" for op in TAPE_OPS + ("other",))
    phase_metrics("train", TRAIN_LAYERS, bwd_spans, n_iters,
                  [t for r in traced for t in r.iter_s],
                  [t for r in untraced for t in r.iter_s], "iter_ms")
    phase_metrics("eval", EVAL_LAYERS, (), n_scenes,
                  [t for r in traced for t in r.scene_s],
                  [t for r in untraced for t in r.scene_s], "scene_ms")
    lookups = counts[("train", "features.volume_cache.lookups")]
    out["train.features.volume_cache_hit_ratio"] = (
        counts[("train", "features.volume_cache.hits")] / lookups if lookups else 0.0, "ratio")
    for phase, n_ops in (("train", n_iters), ("eval", n_scenes)):
        out[f"{phase}.tensor.point_sample.points"] = (
            counts[(phase, "tensor.point_sample.points")] / n_ops, "count")
    for phase, n_ops in (("train", n_iters), ("eval", n_scenes)):
        out[f"{phase}.page_faults"] = (counts[(phase, "page_faults")] / n_ops, "count")
        out[f"{phase}.kernel_ms"] = (1e3 * tracer.kernel_s[phase] / n_ops, "ms")
    out["train.tensor.nodes"] = (counts[("train", "tensor.nodes")] / n_iters, "count")
    out["eval.evalkit.candidates"] = (counts[("eval", "evalkit.candidates")] / n_scenes, "count")
    return out
