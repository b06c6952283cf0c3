"""Record the behaviour digests the benchmark compares runs against.

    python3 perfbench/record_digests.py SEED [SEED ...]

Runs every workload's batch once per seed, untimed, and merges each run's
digest into perfbench/digests.json. Record on the commit whose behaviour is
the reference; a change meant to leave behaviour alone must not re-record.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import batch
import workloads


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv]
    path = batch.HERE / "digests.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    tmp_root = batch.HERE.parent / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        for name, make in workloads.WORKLOADS.items():
            for seed in seeds:
                out = batch.run_batch(lambda: make(seed), Path(tmp))
                table.setdefault(name, {})[str(seed)] = {r["name"]: r["digest"] for r in out["runs"]}
                failing = [r["name"] for r in out["runs"] if r["problems"]]
                print(f"{name} seed {seed}: {len(out['runs'])} run(s), failing checks: {failing or 'none'}", flush=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
