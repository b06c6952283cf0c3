"""Command line interface: run scenarios, compare strategies, sweep params.

Commands:
  run      execute one scenario and write CSV logs, a map dump and an SVG
  compare  run a strategy x seed cross product and aggregate the metrics
  sweep    team-size / parameter studies over a base scenario

Files written to --out-dir, with the record each one's columns come from:
  run      metrics.csv          engine.MetricsRecord, totd spread into
                                totd_10 .. totd_100
           games.csv            engine.GameRecord, one row per game
           events.csv           supervisor.EventRecord, one row per event
           changes.csv          RunLogs.changes: tick, robot, x, y, old, new,
                                written from the log's flat rows; old is
                                always UNEXPLORED
           trajectories.csv     RunLogs.trajectories: tick, robot, x_m, y_m,
                                cell_x, cell_y, mode, one row per live robot
                                per tick, written from the log's moves
           detector.csv         RunLogs.detector: tick, robot, heard_by, one
                                row per confirmed failure
           map_final.txt, map_tick_NNNNNN.txt (--snapshot-every)
                                world.map_text of the team map
           trajectories.svg     render.render_svg, streamed into the file
                                a piece at a time
  compare  compare_runs.csv     strategy, seed, then the metrics.csv columns
           compare_summary.csv  strategy, metric, mean, min, max of each
                                numeric metrics.csv column, blank where a
                                run has no value
  sweep    sweep.csv            dimension, value, seed, then the metrics.csv
                                columns
An empty cell is a metric the run has no value for: no game played, no
robot alive at the end, or a ToTD level never reached. Every CSV file is
in the `csv` module's `excel` dialect; trajectories.csv and changes.csv
are formatted here, byte for byte as that dialect would write them.

Exit codes: 0 success, 1 usage or schema error, 2 liveness violation.
Set CARE_LOG_LEVEL (DEBUG/INFO/WARNING/ERROR) to control verbosity.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import os
import statistics
import sys
from pathlib import Path

from .engine import ChangeLog, GameRecord, LivenessError, RunResult, TrajectoryLog, run as run_engine
from .render import render_svg
from .scenario import STRATEGIES, ScenarioError, load_scenario
from .supervisor import DesState
from .world import CellState, map_text

_STATE_NAMES = [state.name for state in CellState]  # by value: `.name` is a slow enum descriptor
_DES_VALUES = {state: state.value for state in DesState}  # `.value` is a slow enum descriptor too
_BLOCK = 1 << 16  # characters per write; one string per file would raise peak memory


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_text(path: Path, header: str, chunks) -> None:
    """Write the header, then the chunks, joined into blocks of about `_BLOCK`
    characters."""
    with open(path, "w", newline="") as fh:
        fh.write(header)
        block, size = [], 0
        for chunk in chunks:
            block.append(chunk)
            size += len(chunk)
            if size >= _BLOCK:
                fh.write("".join(block))
                block, size = [], 0
        fh.write("".join(block))


def _write_trajectories(path: Path, log: TrajectoryLog) -> None:
    """trajectories.csv as `csv.writer` would write it. Each robot's row
    after the tick is formatted once per move, and each tick's rows are one
    join of those."""
    rx, ry = [repr(x) for x in log.xs], [repr(y) for y in log.ys]

    def tail(rid, cx, cy, mode):
        return f"{rid},{rx[cx]},{ry[cy]},{cx},{cy},{mode}\r\n"

    def ticks():
        for tick, tails in log.by_tick(tail):
            if tails:
                p = f"{tick},"
                yield p + p.join(tails.values())

    _write_text(path, "tick,robot,x_m,y_m,cell_x,cell_y,mode\r\n", ticks())


def _write_changes(path: Path, changes: ChangeLog) -> None:
    """changes.csv as `csv.writer` would write it, from the log's flat rows:
    ints and state names need no quoting, and the old state is always
    UNEXPLORED."""
    names = _STATE_NAMES
    _write_text(
        path,
        "tick,robot,x,y,old,new\r\n",
        (f"{tick},{robot},{x},{y},UNEXPLORED,{names[new]}\r\n" for tick, robot, x, y, new in changes.rows()),
    )


def _metrics(result: RunResult) -> dict:
    """The run's metrics by column, `totd` spread into totd_10 .. totd_100.
    A missing metric stays None, which csv writes as an empty cell."""
    columns = {}
    for name, value in dataclasses.asdict(result.metrics).items():
        if name == "totd":
            columns.update((f"totd_{pct}", t) for pct, t in value.items())
        else:
            columns[name] = value
    return columns


def _cell(value):
    """A games.csv cell: a tuple space-joined, a dict as `k:v` pairs in key
    order; csv writes None as empty and anything else with str()."""
    if isinstance(value, tuple):
        return " ".join(map(str, value))
    if isinstance(value, dict):
        return " ".join(f"{k}:{v}" for k, v in sorted(value.items()))
    return value


def write_run_outputs(result: RunResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    logs = result.logs
    metrics = _metrics(result)
    _write_csv(out_dir / "metrics.csv", list(metrics), [metrics.values()])
    _write_csv(
        out_dir / "events.csv",
        ["tick", "robot", "event", "before", "after", "payload"],
        (
            (ev.tick, ev.robot, ev.event, _DES_VALUES[ev.before], _DES_VALUES[ev.after], repr(ev.payload))
            for ev in logs.events
        ),
    )
    game_columns = [f.name for f in dataclasses.fields(GameRecord)]
    _write_csv(
        out_dir / "games.csv",
        game_columns,
        ([_cell(getattr(g, name)) for name in game_columns] for g in logs.games),
    )
    _write_trajectories(out_dir / "trajectories.csv", logs.trajectories)
    _write_changes(out_dir / "changes.csv", logs.changes)
    # the log repeats heard_by in a fourth field that the run digests hash
    _write_csv(out_dir / "detector.csv", ["tick", "robot", "heard_by"], (row[:3] for row in logs.detector))

    (out_dir / "map_final.txt").write_text(map_text(result.grid))

    for tick, snap in logs.snapshots:
        (out_dir / f"map_tick_{tick:06d}.txt").write_text(snap)

    failed = [ev.robot for ev in logs.events if ev.event == "e7"]
    # a failed robot is crossed at its last move's cell; one that fails
    # before its first trajectory row never left its start
    last_cell = {spec.id: spec.start for spec in result.config.robots if spec.id in failed}
    if failed:
        for _tick, rid, cx, cy, mode in logs.trajectories.moves:
            if mode is not None and rid in last_cell:
                last_cell[rid] = (cx, cy)
    failure_marks = [(rid, last_cell[rid]) for rid in failed]
    with open(out_dir / "trajectories.svg", "w") as fh:
        render_svg(result.grid, logs.trajectories, fh, failure_marks)


def _print_summary(result: RunResult) -> None:
    m = result.metrics
    rr = (
        f"min {m.rr_min:.3f} / mean {m.rr_mean:.3f} / max {m.rr_max:.3f}"
        if m.rr_mean is not None
        else "n/a (no live robots)"
    )
    print(f"end: {m.end_reason} after {m.ticks} ticks")
    print(f"coverage ratio      CR   = {m.cr:.4f}")
    print(f"coverage time       CT   = {m.ct_s:.1f} s")
    print(f"remaining reliab.   RR   = {rr}")
    print(f"targets found       NoTF = {m.notf} / {m.targets_placed}")
    totd = ", ".join(
        f"{p}%:{'-' if m.totd[p] is None else f'{m.totd[p]:.0f}s'}" for p in range(10, 101, 10)
    )
    print(f"target discovery    ToTD = {totd}")
    print(f"games: {m.games_noidle} no-idling, {m.games_resilience} resilience")
    if m.gp_min is not None:
        print(f"min gains: G_P = {m.gp_min:.6f}, G_T = {m.gt_min:.6f}")


def cmd_run(args) -> int:
    if args.snapshot_every < 0:
        raise ScenarioError(f"--snapshot-every: expected a non-negative integer, got {args.snapshot_every}")
    config = load_scenario(args.scenario)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    result = run_engine(config, snapshot_every=args.snapshot_every)
    write_run_outputs(result, Path(args.out_dir))
    _print_summary(result)
    if not result.logs.liveness_ok:
        print(f"LIVENESS VIOLATION: run ended with '{result.metrics.end_reason}'", file=sys.stderr)
        return 2
    return 0


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ScenarioError(f"{what}: expected a comma-separated integer list, got {text!r}")


def _distinct(values: list, flag: str) -> list:
    """The values, refused if one repeats: a repeated run adds rows, not data."""
    seen = set()
    for value in values:
        if value in seen:
            raise ScenarioError(f"{flag}: {value!r} is given twice")
        seen.add(value)
    return values


def cmd_compare(args) -> int:
    config = load_scenario(args.scenario)
    strategies = _distinct([s.strip() for s in args.strategies.split(",") if s.strip()], "--strategies")
    seeds = _distinct(_parse_int_list(args.seeds, "--seeds"), "--seeds")
    if not strategies or not seeds:
        raise ScenarioError("compare needs at least one strategy and one seed")
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        got = ", ".join(map(repr, unknown))
        raise ScenarioError(f"--strategies: expected names from {list(STRATEGIES)}, got {got}")

    results = {
        s: [_metrics(run_engine(dataclasses.replace(config, strategy=s, seed=seed))) for seed in seeds]
        for s in strategies
    }
    columns = list(results[strategies[0]][0])

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "compare_runs.csv",
        ["strategy", "seed", *columns],
        ([strategy, seed, *m.values()] for strategy in strategies for seed, m in zip(seeds, results[strategy])),
    )

    def summary():
        for strategy in strategies:
            for col in columns:
                if col == "end_reason":
                    continue
                values = [m[col] for m in results[strategy]]
                if any(v is None for v in values):
                    yield [strategy, col, None, None, None]
                else:
                    values = [float(v) for v in values]
                    yield [strategy, col, statistics.fmean(values), min(values), max(values)]

    _write_csv(out_dir / "compare_summary.csv", ["strategy", "metric", "mean", "min", "max"], summary())

    header = f"{'strategy':>9} {'CR(mean)':>9} {'CT(mean)':>10} {'NoTF':>6} {'ToTD50':>8}"
    print(header)
    for strategy in strategies:
        ms = results[strategy]
        cr = statistics.fmean(m["cr"] for m in ms)
        ct = statistics.fmean(m["ct_s"] for m in ms)
        notf = statistics.fmean(m["notf"] for m in ms)
        t50 = [m["totd_50"] for m in ms]
        t50s = "-" if any(v is None for v in t50) else f"{statistics.fmean(t50):.0f}"
        print(f"{strategy:>9} {cr:>9.4f} {ct:>10.1f} {notf:>6.1f} {t50s:>8}")
    return 0


def cmd_sweep(args) -> int:
    config = load_scenario(args.scenario)
    seeds = _distinct(_parse_int_list(args.seeds, "--seeds"), "--seeds")
    dims = [d for d in ("team_sizes", "kappa1", "kappa2") if getattr(args, d)]
    if len(dims) != 1:
        raise ScenarioError("sweep needs exactly one of --team-sizes/--kappa1/--kappa2")
    dim = dims[0]
    flag = f"--{dim.replace('_', '-')}"
    values = _distinct(_parse_int_list(getattr(args, dim), flag), flag)
    if not values or not seeds:
        raise ScenarioError(f"sweep needs at least one {flag} value and one seed")
    for value in values:
        if dim == "team_sizes" and not 1 <= value <= len(config.robots):
            raise ScenarioError(f"{flag}: {value} outside 1..{len(config.robots)}")
        if value < 1:
            raise ScenarioError(f"{flag}: expected a positive integer, got {value}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for value in values:
        for seed in seeds:
            cfg = dataclasses.replace(config, seed=seed)
            if dim == "team_sizes":
                cfg = dataclasses.replace(cfg, robots=config.robots[:value])
                kept = {r.id for r in cfg.robots}
                cfg = dataclasses.replace(
                    cfg, failures=tuple(f for f in config.failures if f.robot in kept)
                )
            else:
                cfg = dataclasses.replace(
                    cfg, params=dataclasses.replace(config.params, **{dim: value})
                )
            metrics = _metrics(run_engine(cfg))
            rows.append([dim, value, seed, *metrics.values()])
            print(f"{dim}={value} seed={seed}: CR={metrics['cr']:.4f} CT={metrics['ct_s']:.1f}s")
    _write_csv(out_dir / "sweep.csv", ["dimension", "value", "seed", *metrics], rows)
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as the module docstring says, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # the docstring's tables keep their line breaks
    parser = _Parser(prog="gridcover", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out-dir", default="out")
    p_run.add_argument("--snapshot-every", type=int, default=0, help="dump the map every N ticks")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare strategies over seeds")
    p_cmp.add_argument("scenario")
    p_cmp.add_argument("--strategies", default="CARE,NONCO,FR")
    p_cmp.add_argument("--seeds", default="1,2,3,4,5")
    p_cmp.add_argument("--out-dir", default="out")
    p_cmp.set_defaults(func=cmd_compare)

    p_sw = sub.add_parser("sweep", help="team-size or neighborhood-size study")
    p_sw.add_argument("scenario")
    p_sw.add_argument("--team-sizes", default="", dest="team_sizes")
    p_sw.add_argument("--kappa1", default="")
    p_sw.add_argument("--kappa2", default="")
    p_sw.add_argument("--seeds", default="1,2,3")
    p_sw.add_argument("--out-dir", default="out")
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("CARE_LOG_LEVEL", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except LivenessError as exc:
        print(f"liveness violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
