"""gridcover benchmark: whole simulations through the public API.

    python3 perfbench/run.py --workload paper|open-field|crowd --seed N \
        --seconds S --trace 0|1

Run from the repository root. Every batch runs serially in one fresh child
process at a time (`batch.py`), so each batch's peak RSS is its own. With
`--trace 0` the timed batches repeat until `--seconds` is used up (at least
MIN_BATCHES) and the end-to-end metrics are their medians, with times stated
at a nominal host speed (see HostSpeed). With `--trace 1`
untimed/traced batch pairs repeat instead, and the per-layer metrics come
from the traced ones. The report ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

Host time is what the simulator takes; simulated time (CT, ToTD) is a
recorded output. The repository holds no reference numbers from the paper,
so the model is unvalidated and no error figure is given.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper", "open-field", "crowd")
MIN_BATCHES = 2
DEADLINE_S = 170.0  # the whole invocation must end within 180 s

SAMPLE_PERIOD_S = 0.2
# CPU seconds of one reference pass at the host speed the time metrics are
# expressed at: the usual speed of the shared 2-vCPU Linux container
# (Python 3.11.7) the benchmark was calibrated on.
REF_NOMINAL_S = 0.003
END_TO_END = {"wall_s": "s", "ticks_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def child(workload: str, seed: int, mode: str, tmp: Path, deadline: float) -> dict:
    """Run one batch in a fresh process and return its report."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "batch.py"), workload, str(seed), mode, str(tmp)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} batch of {workload} overran the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} batch of {workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_pass() -> int:
    """Fixed pure-Python work shaped like the simulator's: a 60x60 dict
    keyed by cell tuples, scanned and filtered into sets."""
    grid = {(x, y): (x * 31 + y * 17) % 5 for y in range(60) for x in range(60)}
    n = 0
    for k in range(3):
        n += sum(1 for v in grid.values() if v == k)
        n += len({c for c in grid if (c[0] + c[1] + k) % 3 == 0})
    return n


class HostSpeed:
    """Samples the speed of the CPU the batches run on, while they run.

    The host is shared and its speed drifts by tens of percent within
    seconds. A thread of this otherwise idle parent, pinned to the batches'
    CPU, times one reference pass every SAMPLE_PERIOD_S; a batch's time is
    then scaled to the nominal speed by the reference passes timed during
    that batch.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (monotonic start, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample)

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            t0 = time.monotonic()
            c0 = time.thread_time()
            reference_pass()
            self.samples.append((t0, time.thread_time() - c0))

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, window: list[float]) -> float:
        """Factor that turns host seconds measured in `window` into
        nominal-speed seconds (falls back to the nearest samples when the
        window is shorter than the sampling period)."""
        t0, t1 = window
        inside = [c for t, c in self.samples if t0 <= t <= t1]
        if len(inside) < 3:
            inside = [c for _, c in sorted(self.samples, key=lambda s: abs(s[0] - (t0 + t1) / 2))[:3]]
        return REF_NOMINAL_S / statistics.median(inside)


def repeat(step, seconds: float, minimum: int, started: float) -> list:
    """Call step() at least `minimum` times, then again while another call
    of average length still fits in `seconds`."""
    out, lengths = [], []
    while True:
        t0 = time.monotonic()
        out.append(step())
        lengths.append(time.monotonic() - t0)
        if len(out) >= minimum and time.monotonic() - started + statistics.fmean(lengths) > seconds:
            return out


def load_digests() -> dict:
    path = HERE / "digests.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def compare_digests(batches: list[dict], committed: dict) -> list[str]:
    """Lines saying whether each run's digest equals the committed one."""
    lines = []
    for i, run in enumerate(batches[0]["runs"]):
        seen = {b["runs"][i]["digest"] for b in batches}
        want = committed.get(run["name"])
        if len(seen) > 1:
            state = "DIFFERS BETWEEN BATCHES (non-deterministic)"
        elif want is None:
            state = "no committed digest for this seed"
        elif seen == {want}:
            state = "equal to committed"
        else:
            state = "CHANGED BEHAVIOUR (differs from committed)"
        lines.append(f"  {run['name']:<18} {str(run['digest'])[:16]}  {state}")
    return lines


def run_table(batch: dict) -> list[str]:
    lines = [f"  {'run':<18} {'end':<10} {'ticks':>6} {'CT_s':>8} {'CR':>7} {'NoTF':>5} {'games':>7}  checks"]
    for r in batch["runs"]:
        if r["digest"] is None:
            lines.append(f"  {r['name']:<18} FAILED: {r['problems'][0]}")
            continue
        games = f"{r['games'][0]}+{r['games'][1]}"
        checks = "ok" if not r["problems"] else "FAIL: " + "; ".join(r["problems"])
        lines.append(
            f"  {r['name']:<18} {r['end']:<10} {r['ticks']:>6} {r['ct_s']:>8.1f} {r['cr']:>7.4f} "
            f"{r['notf']:>5} {games:>7}  {checks}"
        )
    return lines


def shares(layers: dict, run_wall: float, batch_wall: float) -> list[str]:
    """Each layer's self time as a share of the traced run time."""
    from tracing import GROUPS, SPAN_NAMES

    outside = ("scenario.parse", "engine.init", "world.build_world", "cli.write_outputs", "render.svg")
    lines = ["traced self time by span (share of traced Simulation.run time):"]
    for name in SPAN_NAMES:
        if name not in outside:
            lines.append(f"  {name:<28} {layers[name + '_s'] / run_wall:7.1%}  {layers[name + '_calls']:>9} calls")
    lines.append("traced self time by layer (share of traced Simulation.run time):")
    ranked = sorted(GROUPS.items(), key=lambda kv: -sum(layers[n + "_s"] for n in kv[1]))
    for group, names in ranked:
        lines.append(f"  {group:<28} {sum(layers[n + '_s'] for n in names) / run_wall:7.1%}")
    lines.append("set-up and output layers (share of traced batch wall time):")
    for name in outside:
        lines.append(f"  {name:<28} {layers[name + '_s'] / batch_wall:7.1%}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gridcover" / "__init__.py").is_file():
        print(f"error: no gridcover sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))

    # The batch children inherit this pin, so they and the host-speed
    # sampler share one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    started = time.monotonic()
    deadline = started + DEADLINE_S
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    try:
        return report(args, started, deadline, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def report(args, started: float, deadline: float, tmp: Path) -> int:
    w, seed = args.workload, args.seed

    def batch(mode: str) -> dict:
        return child(w, seed, mode, tmp, deadline)

    if args.trace:
        pairs = repeat(lambda: (batch("timed"), batch("traced")), args.seconds, 1, started)
        timed = [p[0] for p in pairs]
        traced = [p[1] for p in pairs]
    else:
        with HostSpeed() as host:
            timed = repeat(lambda: batch("timed"), args.seconds, MIN_BATCHES, started)
        traced = []
    probe = batch("probe")["runs"][0] if w == "crowd" else None

    every = timed + traced
    attempted = sum(len(b["runs"]) for b in every)
    failed = sum(1 for b in every for r in b["runs"] if r["problems"])
    committed = load_digests().get(w, {}).get(str(seed), {})

    print(f"gridcover benchmark  workload={w} seed={seed} seconds={args.seconds:g} trace={args.trace}")
    print("model: unvalidated (no reference numbers from the paper in the repo); no error figure is given")
    print(
        f"{len(timed)} untraced batch(es) of {len(timed[0]['runs'])} run(s), "
        f"{len(traced)} traced, each in a fresh child process"
    )
    print("simulated outputs (CT is simulated time, not a performance metric):")
    print("\n".join(run_table(timed[0])))
    print(f"behaviour digests of every batch, traced ones included, vs perfbench/digests.json (seed {seed}):")
    print("\n".join(compare_digests(every, committed)))
    probe_failed = 0
    if probe is not None:
        probe_failed = int(bool(probe["problems"]))
        outcome = "; ".join(probe["problems"]) if probe["problems"] else f"passed its checks, ended {probe['end']}"
        print(f"R1 probe ({probe['name']}, untimed, not in the timed batch): {outcome}")
    runs_counted = attempted + (probe is not None)
    failed_share = (failed + probe_failed) / runs_counted
    print(f"failed_share {failed_share:.4f} ({failed + probe_failed}/{runs_counted} runs, R1 probe included)")

    correct = failed == 0
    if args.trace:
        layers = {k: statistics.median_low(b["layers"][k] for b in traced) for k in traced[0]["layers"]}
        untraced_wall = statistics.median(b["wall_s"] for b in timed)
        layers["trace.overhead_ratio"] = statistics.median(b["wall_s"] for b in traced) / untraced_wall
        layers["bench.failed_share"] = failed_share
        coverage = layers["trace.coverage_ratio"]
        covered = abs(coverage - 1.0) <= 0.10
        correct = correct and covered
        print("\n".join(shares(layers, statistics.median(b["run_wall_s"] for b in traced),
                               statistics.median(b["wall_s"] for b in traced))))
        print(
            f"coverage check: self times under engine.run sum to {coverage:.2%} of the traced "
            f"Simulation.run time measured outside the tracer: {'ok' if covered else 'FAIL (>10% off)'}"
        )
        print(f"per-layer metrics (lower median over {len(traced)} traced batch(es)):")
        for k, v in layers.items():
            print(f"  {k:<40} {v}")
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        raw = {
            "wall_s": [b["wall_s"] for b in timed],
            "ticks_per_s": [b["ticks"] / b["run_cpu_s"] for b in timed],
            "setup_s": [s for b in timed for s in b["setup_repeats_s"] + [b["setup_s"]]],
            "peak_rss_mb": [b["peak_rss_mb"] for b in timed],
        }
        scales = [host.scale(b["window"]) for b in timed]
        setup_scales = [host.scale(b["setup_window"]) for b in timed]
        samples = {
            "wall_s": [x * f for x, f in zip(raw["wall_s"], scales)],
            "ticks_per_s": [x / f for x, f in zip(raw["ticks_per_s"], scales)],
            "setup_s": [
                s
                for b, f, g in zip(timed, setup_scales, scales)
                for s in [x * f for x in b["setup_repeats_s"]] + [b["setup_s"] * g]
            ],
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        print(
            f"host speed: {len(host.samples)} reference passes, median {statistics.median(c for _, c in host.samples) * 1e3:.3f} ms "
            f"(nominal {REF_NOMINAL_S * 1e3:g} ms); per-batch scale {' '.join(f'{f:.3f}' for f in scales)}"
        )
        print("end-to-end metrics (median of the samples listed; times at the nominal host speed, raw in brackets):")
        metrics = {}
        for k, xs in samples.items():
            v = statistics.median(xs)
            listed = " ".join(f"{x:.4g}" for x in xs)
            print(f"  {k:<12} {v:.6g} {END_TO_END[k]} [raw {statistics.median(raw[k]):.6g}]  ({len(xs)} samples: {listed})")
            metrics[k] = {"value": v, "unit": END_TO_END[k]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
