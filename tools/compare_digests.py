"""Compare the behaviour digests of the working tree with those of a git ref.

    python3 tools/compare_digests.py REF

Extracts REF with `git archive` into a temporary directory. Then, for each
side, a child process runs every benchmark workload on seeds 0-20 (231
runs) with that side's own `src/`, `perfbench/workloads.py` and
`perfbench/batch.py` digest. The two sides run at once, one process each.
A run that raises is recorded as such in place of its digest. Prints every
run whose digest differs, and exits 1 if any does.

Unlike `perfbench/digests.json`, the reference is the ref's own behaviour,
so a file recorded before an intended behaviour change cannot go stale.
Needs git and no network; writes nothing outside its temporary directory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = list(range(21))


def digests(root: Path, seeds: list[int]) -> dict[str, str]:
    """{"workload seed run": digest} for every run of every workload, with
    the code under `root`; a run that raises gets "raised <error>"."""
    sys.path.insert(0, str(root / "perfbench"))
    import batch  # inserts root / "src" into sys.path itself
    import workloads

    out = {}
    for workload, make in workloads.WORKLOADS.items():
        for seed in seeds:
            for name, doc in make(seed):
                try:
                    result = batch.Simulation(batch.parse_scenario(doc)).run()
                except Exception as exc:  # reported like any other digest, never retried
                    out[f"{workload} {seed} {name}"] = f"raised {type(exc).__name__}: {exc}"
                else:
                    out[f"{workload} {seed} {name}"] = batch.digest(result)
    return out


def start_side(root: Path) -> subprocess.Popen:
    argv = [sys.executable, __file__, "--side", str(root)]
    return subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)


def differing(base: dict[str, str], head: dict[str, str]) -> list[str]:
    """One line per run whose digest differs or that only one side ran."""
    lines = []
    for run in sorted(base.keys() | head.keys()):
        if base.get(run) != head.get(run):
            lines.append(f"{run}: {base.get(run, 'absent')} -> {head.get(run, 'absent')}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", nargs="?", help="the git ref to compare the working tree with")
    parser.add_argument("--side", type=Path, help=argparse.SUPPRESS)  # child mode: print one side's digests
    args = parser.parse_args(argv)
    if args.side is not None:
        json.dump(digests(args.side, SEEDS), sys.stdout)
        return 0
    if args.ref is None:
        parser.error("a git ref is required")
    with tempfile.TemporaryDirectory() as tmp:
        base_root = Path(tmp)
        archive = subprocess.run(["git", "archive", args.ref], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        sides = [start_side(base_root), start_side(ROOT)]
        outputs = [side.communicate()[0] for side in sides]
        if any(side.returncode for side in sides):
            print("a side failed to run its workloads", file=sys.stderr)
            return 2
    base, head = (json.loads(out) for out in outputs)
    lines = differing(base, head)
    print(f"{len(head)} runs on {args.ref} and the working tree, seeds {SEEDS[0]}-{SEEDS[-1]}: {len(lines)} differ")
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
