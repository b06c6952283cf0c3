"""Memory peaks and collector passes of the benchmark runs, phase by phase.

    python3 tools/mem_peaks.py [--workload W ...] [--seed S] [--runs N]

Runs each workload of `BENCHMARK.json` (or each one named), at the seed (1
by default), one run after another in this process, with `tracemalloc`
started just before each run's set-up and stopped after its writes. For
each run it prints one JSON object on a line of its own:

- `workload`, and `name`, the run's name in its workload;
- `setup`, `run` and `writes`: tracemalloc's traced MB at the end of the
  phase (`current_mb`) and its peak within the phase (`peak_mb`). The
  set-up parses the document and constructs the `Simulation`, the run is
  `Simulation.run`, and the writes are `cli.write_run_outputs` into a
  temporary directory;
- `logs_tracked`: per `RunLogs` field, the GC-tracked objects reachable
  from it after a full collection, which untracks the tuples and dicts it
  can; shared enum members, classes, modules and functions are not
  followed;
- `gc_passes`: per phase, the collector passes of generations 0, 1 and 2
  that started in it (`gc.callbacks`).

tracemalloc counts the Python heap only, so its figures sit below the peak
RSS the benchmark reports, which also holds the interpreter and its
imports; and it slows a run several times, so the tool times nothing.
`--runs N` keeps each workload's first N runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import gc
import json
import sys
import tempfile
import tracemalloc
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PHASES = ("setup", "run", "writes")
_NOT_FOLLOWED = (type, enum.Enum, types.ModuleType, types.FunctionType)


def tracked_objects(obj) -> int:
    """The GC-tracked objects reachable from `obj`, `obj` included, each
    counted once; the shared kinds in `_NOT_FOLLOWED` are left out."""
    seen: set[int] = set()
    stack, count = [obj], 0
    while stack:
        o = stack.pop()
        if id(o) in seen or not gc.is_tracked(o) or isinstance(o, _NOT_FOLLOWED):
            continue
        seen.add(id(o))
        count += 1
        stack.extend(gc.get_referents(o))
    return count


def _traced_mb() -> dict[str, float]:
    current, peak = tracemalloc.get_traced_memory()
    return {"current_mb": round(current / 1e6, 3), "peak_mb": round(peak / 1e6, 3)}


def measure(doc: dict, out_dir: Path) -> dict:
    """One run's phases: traced memory, collector passes and the tracked
    objects its logs hold."""
    from gridcover import Simulation, parse_scenario
    from gridcover.cli import write_run_outputs

    passes = {phase: [0, 0, 0] for phase in PHASES}
    phase = PHASES[0]

    def count_pass(stage: str, info: dict) -> None:
        if stage == "start":
            passes[phase][info["generation"]] += 1

    out: dict = {}
    gc.callbacks.append(count_pass)
    tracemalloc.start()
    try:
        sim = Simulation(parse_scenario(doc))
        out["setup"] = _traced_mb()
        tracemalloc.reset_peak()
        phase = "run"
        result = sim.run()
        out["run"] = _traced_mb()
        tracemalloc.reset_peak()
        phase = "writes"
        write_run_outputs(result, out_dir)
        out["writes"] = _traced_mb()
    finally:
        tracemalloc.stop()
        gc.callbacks.remove(count_pass)
    gc.collect()
    logs = result.logs
    out["logs_tracked"] = {f.name: tracked_objects(getattr(logs, f.name)) for f in dataclasses.fields(logs)}
    out["gc_passes"] = passes
    return out


def main(argv=None) -> int:
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names, help="repeatable; every workload by default")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=None, help="each workload's first N runs only")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        for workload in args.workload or names:
            runs = workloads.WORKLOADS[workload](args.seed)[: args.runs]
            for i, (name, doc) in enumerate(runs):
                row = {"workload": workload, "name": name, **measure(doc, Path(tmp) / str(i))}
                print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
