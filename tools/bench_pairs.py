"""Time the working tree against a git ref in alternating benchmark pairs.

    python3 tools/bench_pairs.py REF --workload W --seed S --pairs N --seconds T

Extracts REF with `git archive` into a temporary directory, as
`tools/compare_digests.py` does, and calls that tree the parent and the
working tree the change. Pair i, counted from 1, runs `perfbench/run.py
--trace 0` on the parent first when i is odd and on the change first when
i is even, one run at a time; each run reports its batches' medians, times
at the nominal host speed.

For each end-to-end metric of `BENCHMARK.json` it prints both sides' runs,
medians and quartiles (`statistics.quantiles(n=4)`), `change_over_parent`
(the change's median over the parent's), `change_wins` (the pairs whose
change run is better), `worse_by` against the metric's bound, and the gap
between the medians against the parent's interquartile range. The last
line is one JSON object with those fields: a workload entry of
`BENCH_<n>.json`. Needs git and no network.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def summary(xs: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(xs, n=4)  # the middle cut is the median
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's entry from the runs of each side, paired by position."""
    p, c = summary(parent), summary(change)
    ratio = c["median"] / p["median"]
    lower = better == "lower"
    worse_by = ratio - 1 if lower else 1 - ratio
    return {
        "better": better,
        "bound": bound,
        "parent": p,
        "change": c,
        "change_over_parent": ratio,
        "change_wins": sum(1 for a, b in zip(parent, change) if (b < a if lower else b > a)),
        "worse_by": worse_by,
        "within_bound": worse_by <= bound,
        "median_gap": abs(c["median"] - p["median"]),
        "parent_iqr": p["q3"] - p["q1"],
        "parent_runs": parent,
        "change_runs": change,
    }


def order(pair: int) -> tuple[str, str]:
    """The sides in the order pair `pair` (from 1) runs them."""
    return SIDES if pair % 2 else SIDES[::-1]


def run_pairs(run, pairs: int) -> dict[str, list[dict]]:
    """Each side's reports, in pair order, from `run(side)` called in
    alternating order."""
    reports: dict[str, list[dict]] = {side: [] for side in SIDES}
    for pair in range(1, pairs + 1):
        for side in order(pair):
            reports[side].append(run(side))
    return reports


def entry(reports: dict[str, list[dict]], end_to_end: list[dict], seed: int) -> dict:
    """The workload entry of `BENCH_<n>.json` from each side's reports."""
    metrics = {}
    for metric in end_to_end:
        name = metric["name"]
        runs = {side: [r["metrics"][name]["value"] for r in reports[side]] for side in SIDES}
        metrics[name] = compare(runs["parent"], runs["change"], metric["better"], metric["bound"])
    return {
        "seed": seed,
        "pairs": len(reports["parent"]),
        "correct": {side: all(r["correct"] for r in reports[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in reports[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in reports[side]) for side in SIDES},
        "metrics": metrics,
    }


def lines(found: dict) -> list[str]:
    """The human-readable report of a workload entry."""
    out = [f"{found['pairs']} pairs; correct {found['correct']}; failed {found['failed']} of {found['attempted']}"]
    for name, m in found["metrics"].items():
        out.append(f"{name} ({m['better']} is better, bound {m['bound']:g}):")
        for side in SIDES:
            s = m[side]
            runs = " ".join(f"{x:.6g}" for x in m[f"{side}_runs"])
            out.append(f"  {side:<6} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  runs {runs}")
        out.append(
            f"  change_over_parent {m['change_over_parent']:.4f}  change_wins {m['change_wins']}/{found['pairs']}  "
            f"worse_by {m['worse_by']:+.4f} ({'within' if m['within_bound'] else 'OUTSIDE'} bound)  "
            f"median_gap {m['median_gap']:.6g} vs parent_iqr {m['parent_iqr']:.6g}"
        )
    return out


def benchmark_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The closing JSON report of one untraced `perfbench/run.py` run on the tree under `root`."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench/run.py under {root} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the git ref of the parent")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", args.ref], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        roots = {"parent": Path(tmp), "change": ROOT}

        def run(side: str) -> dict:
            report = benchmark_run(roots[side], args.workload, args.seed, args.seconds)
            print(f"{side}: " + " ".join(f"{k} {v['value']:.6g}" for k, v in report["metrics"].items()), flush=True)
            return report

        found = entry(run_pairs(run, args.pairs), end_to_end, args.seed)
    print("\n".join(lines(found)))
    print(json.dumps(found))
    return 0


if __name__ == "__main__":
    sys.exit(main())
