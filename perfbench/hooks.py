"""Instrumentation installed from outside the relattn package.

`Clock` marks training-iteration boundaries: iteration 0 starts when
`AdamW.__init__` returns inside `train.train`, and iteration i ends when
the i-th `AdamW.step` returns. It is installed for every run, traced or not,
and costs two clock reads per iteration.

Times are CPU seconds of the benchmark's one thread (`cpu_s`), with wall
time kept beside them for the log.

`Tracer` wraps each layer's public entry points with spans, in every
`relattn.*` namespace that binds them (names imported with
`from .x import f` are patched where they were imported too), and wraps
every tape node's backward closure so backward time splits by tape op.
Spans are accumulated per (phase, name) as self time: the span's
duration minus the part its child spans cover. Each train iteration and
eval scene also records its page faults and kernel CPU time.
"""

from __future__ import annotations

import functools
import importlib
import math
import pkgutil
import resource
import sys
import time
from collections import defaultdict

import relattn


def cpu_s() -> float:
    """CPU seconds, user and system, of the calling thread. The benchmark
    runs relattn on one thread with BLAS pinned to one thread, so this is
    the time the program ran. Time it waited for a CPU, behind other
    processes or (with paravirtual steal accounting) while the hypervisor
    ran another guest on its vCPU, is not in it."""
    return time.thread_time()


# (module, attribute, span name). "Class.method" patches the class.
SPANS = (
    ("features", "scene_volume", "features.volume"),
    ("features", "build_positional_embeddings", "features.pe"),
    ("sampler", "GroupOffsetPredictor.__call__", "sampler"),
    ("sampler", "draw_offsets", "sampler"),
    ("sampler", "inference_grid_offsets", "sampler"),
    ("sampler", "accumulate_points", "sampler"),
    ("decoder", "DecoderStack.decode", "decoder.decode"),
    ("decoder", "GcaLayer.__call__", "decoder.gca"),
    ("decoder", "RcaLayer.__call__", "decoder.rca"),
    ("relation_head", "RelationHead.forward", "relation_head"),
    ("losses", "focal_bce", "losses"),
    ("losses", "mask_loss", "losses"),
    ("losses", "margin_ranking_loss", "losses"),
    ("losses", "rep_point_margin_loss", "losses"),
    ("pgla", "update_performance", "pgla.performance"),
    ("pgla", "update_confusion", "pgla.confusion"),
    ("pgla", "compute_wb", "pgla.adjust"),
    ("pgla", "adjust_logits", "pgla.adjust"),
    ("tensor", "Tensor.backward", "tensor.backward"),
    ("evalkit", "recall_at_k", "evalkit.recall"),
    ("evalkit", "per_predicate_recall_at_k", "evalkit.recall"),
    ("evalkit", "zero_shot_filter", "evalkit.recall"),
    ("evalkit", "aggregate_recall", "evalkit.recall"),
    ("evalkit", "aggregate_mean_recall", "evalkit.recall"),
    ("data", "load_dataset", "data.load"),
    ("model", "RelationModel.__init__", "model.build"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
)

# Tape ops whose backward time is reported by name; any other op's
# backward lands in tensor.bwd.other.
TAPE_OPS = ("add", "sub", "mul", "div", "power", "matmul", "reshape", "transpose",
            "concat", "take", "tsum", "tmax", "exp", "log", "sqrt", "tanh", "sigmoid",
            "relu", "softplus", "clamp", "softmax", "straight_through")


def relattn_modules() -> list:
    """Every module of the relattn package, imported."""
    return [importlib.import_module(f"relattn.{info.name}")
            for info in pkgutil.iter_modules(relattn.__path__)]


class Patches:
    """Replaced attributes, restored in reverse order by `restore`."""

    def __init__(self):
        self._saved: list = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def method(self, module: str, qualname: str, make) -> bool:
        """Replace Class.method in relattn.<module> with make(original)."""
        cls_name, attr = qualname.split(".")
        cls = getattr(sys.modules[f"relattn.{module}"], cls_name, None)
        if cls is None or attr not in vars(cls):
            return False
        self.set(cls, attr, make(vars(cls)[attr]))
        return True

    def function(self, module: str, name: str, make) -> bool:
        """Replace relattn.<module>.<name> with make(original) in every
        relattn namespace that binds the same object."""
        original = getattr(sys.modules[f"relattn.{module}"], name, None)
        if original is None:
            return False
        wrapped = make(original)
        for mod in relattn_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapped)
        return True

    def patch(self, module: str, target: str, make) -> bool:
        if "." in target:
            return self.method(module, target, make)
        return self.function(module, target, make)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Clock:
    """Training-iteration boundaries seen from outside `train.train`."""

    def __init__(self):
        self.tracer = None       # a Tracer while a traced round runs
        self.grad_norms = None   # a list while the first step is probed
        self.expected = 0
        self.marks: list = []        # cpu_s() at each iteration boundary
        self.wall_marks: list = []   # perf_counter() at the same boundaries
        self._patches = Patches()

    def install(self) -> None:
        from relattn.optim import AdamW
        clock = self

        def make_init(init):
            @functools.wraps(init)
            def init_hook(opt, *args, **kwargs):
                init(opt, *args, **kwargs)
                clock.wall_marks = [time.perf_counter()]
                clock.marks = [cpu_s()]
                if clock.tracer is not None:
                    clock.tracer.phase = "train"
                    clock.tracer.op_start()
            return init_hook

        def make_step(step):
            @functools.wraps(step)
            def step_hook(opt, *args, **kwargs):
                if clock.grad_norms is not None:
                    clock.grad_norms.append(global_grad_norm(opt))
                tracer = clock.tracer
                if tracer is None:
                    result = step(opt, *args, **kwargs)
                else:
                    tracer.enter("optim.step")
                    try:
                        result = step(opt, *args, **kwargs)
                    finally:
                        tracer.exit()
                clock.marks.append(cpu_s())
                clock.wall_marks.append(time.perf_counter())
                if tracer is not None:
                    tracer.op_end()
                    tracer.op_start()
                    if len(clock.marks) > clock.expected:
                        tracer.phase = "setup"
                return result
            return step_hook

        self._patches.set(AdamW, "__init__", make_init(AdamW.__init__))
        self._patches.set(AdamW, "step", make_step(AdamW.step))

    def begin(self, iterations: int) -> None:
        self.expected = iterations
        self.marks = []
        self.wall_marks = []

    def durations(self) -> list:
        """CPU seconds per completed iteration of the current round."""
        return [b - a for a, b in zip(self.marks, self.marks[1:])]

    def wall_durations(self) -> list:
        """Wall seconds per completed iteration of the current round."""
        return [b - a for a, b in zip(self.wall_marks, self.wall_marks[1:])]

    def uninstall(self) -> None:
        self._patches.restore()


def global_grad_norm(opt) -> float:
    total = 0.0
    for p in opt.params:
        g = p.tensor.grad
        if g is not None:
            total += float((g * g).sum())
    return math.sqrt(total)


class Tracer:
    """Per-(phase, name) self time and counts from spans around relattn's
    layer entry points. Phases are "setup", "train" and "eval"; the
    harness and `Clock` switch them at iteration and scene boundaries."""

    def __init__(self):
        self.phase = "setup"
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.kernel_s: dict = defaultdict(float)
        self.missing: list = []
        self._stack: list = []
        self._usage = None
        self._patches = Patches()

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, cpu_s(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = cpu_s() - start
        self.self_s[(self.phase, name)] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def op_start(self) -> None:
        self._usage = resource.getrusage(resource.RUSAGE_SELF)

    def op_end(self) -> None:
        """Page faults and kernel CPU time since `op_start`, for the op
        of the current phase that just ended."""
        before, after = self._usage, resource.getrusage(resource.RUSAGE_SELF)
        self.count("page_faults", after.ru_minflt - before.ru_minflt
                   + after.ru_majflt - before.ru_majflt)
        self.kernel_s[self.phase] += after.ru_stime - before.ru_stime

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.phase, name)] += n

    def spanned(self, name: str, fn):
        tracer = self
        calls = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[(tracer.phase, calls)] += 1
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        relattn_modules()
        self.missing = []
        patches = self._patches
        for module, target, name in SPANS:
            if not patches.patch(module, target, functools.partial(self.spanned, name)):
                self.missing.append(f"relattn.{module}.{target}")
        special = (("tensor", "point_sample", self._point_sample),
                   ("tensor", "_node", self._node),
                   ("evalkit", "ranked_triplets", self._ranked_triplets),
                   ("train", "VolumeCache.volume", self._volume_lookup))
        for module, target, make in special:
            if not patches.patch(module, target, make):
                self.missing.append(f"relattn.{module}.{target}")

    def uninstall(self) -> None:
        self._patches.restore()

    def _point_sample(self, fn):
        tracer = self

        @functools.wraps(fn)
        def point_sample(volume, coords):
            tracer.enter("tensor.point_sample.fwd")
            try:
                out = fn(volume, coords)
            finally:
                tracer.exit()
            tracer.count("tensor.point_sample.points", math.prod(coords.shape[:-1]))
            return out
        return point_sample

    def _node(self, fn):
        """Wrap `tensor._node`, which records every tape node: count the
        node and time its backward closure under the op that made it."""
        tracer = self

        def span_name(backward) -> str:
            op = backward.__qualname__.split(".")[0].lstrip("_")
            if op == "point_sample":
                return "tensor.point_sample.bwd"
            return f"tensor.bwd.{op if op in TAPE_OPS else 'other'}"

        @functools.wraps(fn)
        def node(data, parents, backward):
            out = fn(data, parents, backward)
            inner = out._backward
            if inner is not None:
                name = span_name(backward)
                tracer.count("tensor.nodes")

                def timed_backward(g):
                    tracer.enter(name)
                    try:
                        inner(g)
                    finally:
                        tracer.exit()
                out._backward = timed_backward
            return out
        return node

    def _ranked_triplets(self, fn):
        tracer = self

        @functools.wraps(fn)
        def ranked_triplets(*args, **kwargs):
            tracer.enter("evalkit.rank")
            try:
                ranked = fn(*args, **kwargs)
            finally:
                tracer.exit()
            tracer.count("evalkit.candidates", len(ranked))
            return ranked
        return ranked_triplets

    def _volume_lookup(self, fn):
        tracer = self

        @functools.wraps(fn)
        def volume(cache, scene):
            misses = tracer.counts[(tracer.phase, "features.volume.calls")]
            out = fn(cache, scene)
            tracer.count("features.volume_cache.lookups")
            if tracer.counts[(tracer.phase, "features.volume.calls")] == misses:
                tracer.count("features.volume_cache.hits")
            return out
        return volume
