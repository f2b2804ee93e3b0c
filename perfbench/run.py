"""relattn benchmark: one workload's train and eval phases, measured from
outside the package.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 50 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file). The relattn package is imported from the sibling `src/`
directory. BLAS runs on one thread: unset thread variables are set to 1
before numpy loads, and any other value is refused.

The run makes the workload's dataset from --seed, checks the program against
the recorded reference outputs, then repeats rounds (see harness.py) until
--seconds have passed, at least three times. With --trace 0 it reports the
end-to-end metrics; with --trace 1 it runs one untraced round and then
traced rounds, and reports the per-layer metrics. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}. Scratch
files live under .perfbench/ in the repository root and are removed at exit.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def die(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def pin_blas_threads() -> None:
    """Must run before numpy is imported."""
    if "numpy" in sys.modules:
        die("numpy was imported before BLAS threads could be pinned")
    for var in THREAD_VARS:
        value = os.environ.setdefault(var, "1")
        if value != "1":
            die(f"refusing to run with {var}={value}; the benchmark needs 1 BLAS thread")


pin_blas_threads()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_relattn():
    """Import relattn from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "relattn", "__init__.py")):
        die(f"no relattn sources under {SRC}")
    sys.path.insert(0, SRC)
    import relattn
    if not os.path.abspath(relattn.__file__).startswith(SRC + os.sep):
        die(f"imported relattn from {relattn.__file__}, not from {SRC}")
    return relattn


def blas_runtime_threads():
    """OpenBLAS's own thread count, or None where it cannot be queried."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_revision() -> str:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "none (not a git checkout)"
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return f"unresolved ({ref})"


def source_digest() -> str:
    """sha256 over the relattn sources, so a result names the code it ran."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "relattn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def manifest(numpy, blas_threads) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ[var] for var in THREAD_VARS},
        "blas_runtime_threads": blas_threads if blas_threads is not None else "unverified",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "source_digest": source_digest(),
    }


def main(argv=None) -> int:
    import_relattn()
    args = parse_args(argv)
    import numpy

    from harness import OP_PERCENTILE, end_to_end, measure, per_layer, tail_note, wall_note
    from workloads import WORKLOADS

    threads = blas_runtime_threads()
    if threads not in (None, 1):
        die(f"refusing to run: OpenBLAS reports {threads} threads")
    env = manifest(numpy, threads)
    wl = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[wl.name]

    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=scratch)
    try:
        run = measure(wl, args.seed, args.seconds, bool(args.trace), workdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    timed = run.traced if args.trace else run.untraced
    if not any(r.iter_s for r in timed) or not any(r.scene_s for r in timed):
        for message in run.errors:
            print(f"perfbench: {message}", file=sys.stderr)
        die("no train iteration or eval scene completed")
    if args.trace:
        metrics = per_layer(run)
    else:
        metrics = end_to_end(run)
    attempted, failed = run.attempted, run.failed
    rounds = run.untraced + run.traced

    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"timed rounds={len(rounds)} (untraced {len(run.untraced)}, traced "
          f"{len(run.traced)}); per round {wl.iterations} train iterations on "
          f"{wl.train_scenes} scenes and {wl.test_scenes} eval scenes; rates and medians "
          f"over the ops of one round, each op timed in thread CPU time by the "
          f"{OP_PERCENTILE}th percentile of its rounds; reference check {run.check_s:.2f} s; "
          f"process peak RSS "
          f"{run.peak_rss_mb:.1f} MB")
    for message in run.errors:
        print(f"perfbench: {message}", file=sys.stderr)
    print(f"ops attempted={attempted} failed={failed} "
          f"failed_op_share={failed / attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        print(tail_note(run))
        print(wall_note(run))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
