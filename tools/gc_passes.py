"""The cyclic collector's passes in a benchmark batch, as the timed mode runs it.

    python3 tools/gc_passes.py WORKLOAD [--seed S]

Runs one fresh child process that does what `perfbench/batch.py`'s timed
mode does: `SETUP_REPEATS` set-ups of the workload's batch at the seed (1
by default), then the batch once, its outputs written into a temporary
directory. `gc.callbacks` counts the passes of each generation that start
in either part and times each from its start to its stop. Prints one JSON
line:

    {"workload": W, "seed": S,
     "setup": {"passes": [gen0, gen1, gen2], "ms": [gen0, gen1, gen2]},
     "batch": {"passes": [...], "ms": [...]}}

A change to what the set-up allocates can move a full (gen-2) pass into
the batch or out of it, and so move `ticks_per_s` by a few percent with no
run code slower or faster: count both sides' passes before reading a
speed change of that size. Needs no network; writes nothing outside its
temporary directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
PARTS = ("setup", "batch")
_CHILD = "--child"  # the child's first argument, never a workload name


def count(workload: str, seed: int, tmp: Path) -> dict:
    """In this process, the timed mode's set-ups and then its batch, with
    the collector's passes per generation in each part and their ms."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import batch  # inserts ROOT / "src" into sys.path itself
    import workloads

    def generate():
        return workloads.WORKLOADS[workload](seed)

    out = {part: {"passes": [0, 0, 0], "ms": [0.0, 0.0, 0.0]} for part in PARTS}
    part, started = PARTS[0], {}

    def on_pass(stage: str, info: dict) -> None:
        gen = info["generation"]
        if stage == "start":
            started[gen] = (part, perf_counter())
        else:
            where, t0 = started.pop(gen)
            out[where]["passes"][gen] += 1
            out[where]["ms"][gen] += (perf_counter() - t0) * 1e3

    gc.callbacks.append(on_pass)
    try:
        for _ in range(batch.SETUP_REPEATS):
            batch.setup_once(generate)
        part = PARTS[1]
        batch.run_batch(generate, tmp)
    finally:
        gc.callbacks.remove(on_pass)
    for counts in out.values():
        counts["ms"] = [round(ms, 3) for ms in counts["ms"]]
    return out


def main(argv=None) -> int:
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        child = [sys.executable, str(Path(__file__).resolve()), _CHILD, args.workload, str(args.seed), tmp]
        proc = subprocess.run(child, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **json.loads(proc.stdout)}), flush=True)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == [_CHILD]:
        workload, seed, tmp = sys.argv[2:]
        print(json.dumps(count(workload, int(seed), Path(tmp))))
        sys.exit(0)
    sys.exit(main())
