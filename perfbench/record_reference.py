"""Record the reference outputs that every benchmark run checks against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: per workload, the first training step's
losses and global gradient norm and the seeded model's eval rows, at the
reference data seed. Re-record only for a change that is meant to alter
what the program computes, and say so in the change.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import tempfile

import run  # pins BLAS threads before numpy loads


def main() -> int:
    run.import_relattn()
    from harness import reference_outputs
    from hooks import Clock
    from workloads import WORKLOADS

    scratch = os.path.join(run.ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=scratch)
    clock = Clock()
    try:
        clock.install()
        out = {name: reference_outputs(wl, workdir, clock) for name, wl in WORKLOADS.items()}
    finally:
        clock.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    path = os.path.join(run.HERE, "reference.json")
    text = json.dumps(out, indent=1, sort_keys=True)
    # One eval row per line.
    text = re.sub(r"\[\n\s+([^][{}]*?)\n\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
