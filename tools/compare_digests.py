"""Compare the behaviour digests of the working tree with those of a git ref.

    python3 tools/compare_digests.py REF

Extracts REF with `git archive` into a temporary directory. Then, for each
side, a child process runs every benchmark workload on seeds 0-20 (231
runs) with that side's own `src/`, `perfbench/workloads.py` and
`perfbench/batch.py` digest. Each run that ends also writes its outputs
into a temporary directory with that side's `write_run_outputs`, and its
files are hashed with games.csv's host-time `solve_wall_s` column blanked.
The two sides run at once, one process each. A run that raises is
recorded as such in place of its digest and writes nothing. Prints every
run whose digest differs and, on a line of its own, every run whose
written files differ; exits 1 if any does.

Unlike `perfbench/digests.json`, the reference is the ref's own behaviour,
so a file recorded before an intended behaviour change cannot go stale.
Needs git and no network; writes nothing outside its temporary directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = list(range(21))


def _batch(root: Path):
    """The `perfbench/batch.py` module of the code under `root`."""
    sys.path.insert(0, str(root / "perfbench"))
    import batch  # inserts root / "src" into sys.path itself

    return batch


def _runs(root: Path, seeds: list[int]):
    """(run, digest, result) for every run of every workload, with the code
    under `root`; a run that raises gets "raised <error>" and no result."""
    batch = _batch(root)
    import workloads

    for workload, make in workloads.WORKLOADS.items():
        for seed in seeds:
            for name, doc in make(seed):
                run = f"{workload} {seed} {name}"
                try:
                    result = batch.Simulation(batch.parse_scenario(doc)).run()
                except Exception as exc:  # reported like any other digest, never retried
                    yield run, f"raised {type(exc).__name__}: {exc}", None
                else:
                    yield run, batch.digest(result), result


def digests(root: Path, seeds: list[int]) -> dict[str, str]:
    """{"workload seed run": digest} for every run of every workload, with
    the code under `root`; a run that raises gets "raised <error>"."""
    return {run: digest for run, digest, _result in _runs(root, seeds)}


def files_hash(out_dir: Path) -> str:
    """sha256 over a run's written files in name order, with every games.csv
    row's last cell, the host-time solve_wall_s, blanked."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "games.csv":
            header, *rows = data.split(b"\r\n")
            data = b"\r\n".join([header, *(row.rpartition(b",")[0] + b"," if row else row for row in rows)])
        h.update(f"{path.name} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def side(root: Path, seeds: list[int]) -> dict[str, dict[str, str]]:
    """One side's digests (as `digests` gives them) and, for each run that
    ends, the `files_hash` of the outputs `root`'s code writes for it."""
    write = _batch(root).write_run_outputs
    found: dict[str, dict[str, str]] = {"digests": {}, "outputs": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (run, digest, result) in enumerate(_runs(root, seeds)):
            found["digests"][run] = digest
            if result is not None:
                out_dir = Path(tmp) / str(i)
                write(result, out_dir)
                found["outputs"][run] = files_hash(out_dir)
                shutil.rmtree(out_dir)
    return found


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


def differing_outputs(base: dict[str, str], head: dict[str, str]) -> list[str]:
    """One line per run that both sides wrote and whose files differ; a run
    only one side wrote already differs in its digest."""
    return [f"{run}: outputs differ" for run in sorted(base.keys() & head.keys()) if base[run] != head[run]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", nargs="?", help="the git ref to compare the working tree with")
    # child mode: print one side's digests and output hashes
    parser.add_argument("--side", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side is not None:
        json.dump(side(args.side, SEEDS), sys.stdout)
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
    moved = differing(base["digests"], head["digests"])
    rewritten = differing_outputs(base["outputs"], head["outputs"])
    print(
        f"{len(head['digests'])} runs on {args.ref} and the working tree, seeds {SEEDS[0]}-{SEEDS[-1]}: "
        f"{len(moved)} with a differing digest, {len(rewritten)} with differing outputs"
    )
    for line in moved + rewritten:
        print(line)
    return 1 if moved or rewritten else 0


if __name__ == "__main__":
    sys.exit(main())
