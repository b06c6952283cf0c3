"""One batch of a workload, run in a fresh process.

    python3 perfbench/batch.py <workload> <seed> <timed|traced|probe> <tmp dir>

prints one JSON object on stdout. `timed` first sets the batch up several
times (setup only), then runs the timed batch once; `traced` runs the batch
with the span tracer installed; `probe` runs the R1 probe once.
Every run's outputs are checked and digested between timed segments.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import shutil
import sys
from pathlib import Path
from time import monotonic, perf_counter, process_time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from gridcover import Simulation, parse_scenario  # noqa: E402
from gridcover.cli import write_run_outputs  # noqa: E402

import workloads  # noqa: E402

SETUP_REPEATS = 5
SPANS_DIR = HERE.parent / ".perfbench_out"
OUTPUT_FILES = (
    "metrics.csv",
    "events.csv",
    "games.csv",
    "trajectories.csv",
    "changes.csv",
    "map_final.txt",
    "trajectories.svg",
)


def digest(result) -> str:
    """sha256 over the run's metrics, events, games (without the host-time
    `solve_wall_s`), map changes, trajectories and detector log."""
    h = hashlib.sha256()

    def feed(section: str, rows) -> None:
        h.update(section.encode())
        for row in rows:
            h.update(repr(row).encode())

    logs = result.logs
    feed("metrics", sorted(dataclasses.asdict(result.metrics).items()))
    feed("events", ((e.tick, e.robot, e.event, e.before.value, e.after.value, e.payload) for e in logs.events))
    feed(
        "games",
        (
            sorted((k, v) for k, v in dataclasses.asdict(g).items() if k != "solve_wall_s")
            for g in logs.games
        ),
    )
    feed("changes", ((t, r, ch.cell, ch.old.name, ch.new.name) for t, r, ch in logs.changes))
    feed("trajectories", logs.trajectories)
    feed("detector", logs.detector)
    return h.hexdigest()


def check(result, out_dir: Path) -> list[str]:
    """Output checks of one finished run; returns the problems found."""
    problems = []
    m = result.metrics
    if not result.logs.liveness_ok:
        problems.append(f"liveness violated: ended '{m.end_reason}'")
    if m.end_reason == "complete":
        if m.cr != 1.0:
            problems.append(f"complete with CR={m.cr!r}")
        if result.grid.unexplored_total != 0:
            problems.append(f"complete with {result.grid.unexplored_total} unexplored team-map cells")
    for g in result.logs.games:
        if not (g.gain_players >= 0 and g.gain_team >= 0):
            problems.append(f"game {g.gid}: G_P={g.gain_players!r} G_T={g.gain_team!r}")
    missing = [f for f in OUTPUT_FILES if not (out_dir / f).is_file() or (out_dir / f).stat().st_size == 0]
    if missing:
        problems.append(f"outputs missing or empty: {missing}")
    return problems


def simulated(result) -> dict:
    m = result.metrics
    return {
        "end": m.end_reason,
        "ticks": m.ticks,
        "ct_s": m.ct_s,
        "cr": m.cr,
        "notf": m.notf,
        "games": [m.games_noidle, m.games_resilience],
    }


def setup_once(generate) -> float:
    """Generate, parse and construct every run of the batch; seconds."""
    t0 = perf_counter()
    for _name, doc in generate():
        Simulation(parse_scenario(doc))
    return perf_counter() - t0


def run_batch(generate, tmp: Path, simulation=Simulation, parse=parse_scenario, write=write_run_outputs):
    """Run the batch `generate()` returns once. Timed segments cover
    generation, parsing, construction, the run and writing its outputs; the
    checks and digests between segments are untimed."""
    started = monotonic()
    t0 = perf_counter()
    runs = generate()
    wall = setup = perf_counter() - t0
    run_cpu = run_wall = 0.0
    ticks = games = improved = 0
    records = []
    for name, doc in runs:
        s0 = perf_counter()
        config = parse(doc)
        sim = simulation(config)
        s1 = perf_counter()
        c0 = process_time()
        try:
            result = sim.run()
        except Exception as exc:  # a raising run is a failed run, never retried
            result = None
            error = f"{type(exc).__name__} at tick {sim.tick}: {exc}"
        c1 = process_time()
        s2 = perf_counter()
        out_dir = tmp / name.replace("/", "-")
        if result is not None:
            write(result, out_dir)
        s3 = perf_counter()
        setup += s1 - s0
        wall += s3 - s0
        run_cpu += c1 - c0
        run_wall += s2 - s1
        ticks += sim.tick
        if result is None:
            records.append({"name": name, "problems": [error], "digest": None})
        else:
            if config.strategy != "FR":  # FR picks greedily; every other game is a Max-Logit solve
                games += len(result.logs.games)
                improved += sum(1 for g in result.logs.games if g.phi_star > g.phi_init)
            records.append(
                {"name": name, "problems": check(result, out_dir), "digest": digest(result), **simulated(result)}
            )
            shutil.rmtree(out_dir, ignore_errors=True)
        del result, sim
    return {
        "wall_s": wall,
        "setup_s": setup,
        "run_cpu_s": run_cpu,
        "run_wall_s": run_wall,
        "window": [started, monotonic()],
        "ticks": ticks,
        "games": games,
        "improved": improved,
        "runs": records,
    }


def traced_batch(generate, tmp: Path, spans_path: Path) -> dict:
    import tracing

    tracer = tracing.Tracer()
    simulation, parse, write, restore = tracing.instrument(tracer)
    try:
        out = run_batch(generate, tmp, simulation, parse, write)
    finally:
        restore()
    out["layers"] = tracing.layer_metrics(tracer, out["ticks"], out["games"], out["improved"], out["run_wall_s"])
    tracer.dump(spans_path)
    return out


def main(argv: list[str]) -> int:
    workload, seed, mode, tmp = argv[0], int(argv[1]), argv[2], Path(argv[3])

    def generate():
        return workloads.WORKLOADS[workload](seed)

    if mode == "timed":
        started = monotonic()
        setups = [setup_once(generate) for _ in range(SETUP_REPEATS)]
        setup_window = [started, monotonic()]
        out = run_batch(generate, tmp)
        out["setup_repeats_s"] = setups
        out["setup_window"] = setup_window
    elif mode == "traced":
        out = traced_batch(generate, tmp, SPANS_DIR / f"{workload}-seed{seed}")
    elif mode == "probe":
        out = run_batch(lambda: [workloads.r1_probe(seed)], tmp)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
