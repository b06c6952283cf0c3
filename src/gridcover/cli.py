"""Command line interface: run scenarios, compare strategies, sweep params.

Commands:
  run      execute one scenario and write CSV logs, a map dump and an SVG
  compare  run a strategy x seed cross product and aggregate the metrics
  sweep    team-size / parameter studies over a base scenario

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

from .engine import LivenessError, RunResult, run as run_engine
from .render import render_svg
from .scenario import ScenarioConfig, ScenarioError, load_scenario
from .world import map_text

log = logging.getLogger("gridcover.cli")

METRIC_COLUMNS = [
    "cr",
    "ct_s",
    "rr_min",
    "rr_mean",
    "rr_max",
    "notf",
    "targets_placed",
    *[f"totd_{p}" for p in range(10, 101, 10)],
    "games_noidle",
    "games_resilience",
    "gp_min",
    "gt_min",
    "end_reason",
    "ticks",
]


def _blank(value) -> str:
    return "" if value is None else str(value)


def _metrics_row(result: RunResult) -> list[str]:
    m = result.metrics
    row = [m.cr, m.ct_s, m.rr_min, m.rr_mean, m.rr_max, m.notf, m.targets_placed]
    row += [m.totd[p] for p in range(10, 101, 10)]
    row += [m.games_noidle, m.games_resilience, m.gp_min, m.gt_min, m.end_reason, m.ticks]
    return [_blank(v) for v in row]


def write_run_outputs(result: RunResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "metrics.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(METRIC_COLUMNS)
        w.writerow(_metrics_row(result))

    with open(out_dir / "events.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tick", "robot", "event", "before", "after", "payload"])
        for ev in result.logs.events:
            w.writerow([ev.tick, ev.robot, ev.event, ev.before.value, ev.after.value, repr(ev.payload)])

    with open(out_dir / "games.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "gid",
                "kind",
                "tick",
                "trigger",
                "players",
                "initial",
                "final",
                "phi_init",
                "phi_star",
                "gain_players",
                "team_phi_init",
                "team_phi_star",
                "gain_team",
                "assigned",
                "standby",
                "solve_wall_s",
            ]
        )
        for g in result.logs.games:
            w.writerow(
                [
                    g.gid,
                    g.kind,
                    g.tick,
                    g.trigger,
                    " ".join(map(str, g.players)),
                    " ".join(map(str, g.initial)),
                    " ".join(map(str, g.final)),
                    g.phi_init,
                    g.phi_star,
                    g.gain_players,
                    g.team_phi_init,
                    g.team_phi_star,
                    g.gain_team,
                    " ".join(f"{k}:{v}" for k, v in sorted(g.assigned.items())),
                    " ".join(map(str, g.standby)),
                    g.solve_wall_s,
                ]
            )

    with open(out_dir / "trajectories.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tick", "robot", "x_m", "y_m", "cell_x", "cell_y", "mode"])
        for row in result.logs.trajectories:
            w.writerow(row)

    with open(out_dir / "changes.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tick", "robot", "x", "y", "old", "new"])
        for tick, robot, ch in result.logs.changes:
            w.writerow([tick, robot, ch.cell[0], ch.cell[1], ch.old.name, ch.new.name])

    (out_dir / "map_final.txt").write_text(map_text(result.grid))

    for tick, snap in result.logs.snapshots:
        (out_dir / f"map_tick_{tick:06d}.txt").write_text(snap)

    failure_marks = []
    last_cell: dict[int, tuple[int, int]] = {}
    for tick, rid, _x, _y, cx, cy, _mode in result.logs.trajectories:
        last_cell[rid] = (cx, cy)
    for ev in result.logs.events:
        if ev.event == "e7":
            failure_marks.append((ev.robot, last_cell.get(ev.robot, (0, 0))))
    svg = render_svg(result.grid, result.logs.trajectories, failure_marks)
    (out_dir / "trajectories.svg").write_text(svg)


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
    config = load_scenario(args.scenario)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    result = run_engine(config, snapshot_every=args.snapshot_every)
    write_run_outputs(result, Path(args.out_dir))
    _print_summary(result)
    if not result.logs.liveness_ok:
        print(f"LIVENESS VIOLATION: run ended with '{result.logs.end_reason}'", file=sys.stderr)
        return 2
    return 0


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ScenarioError(f"{what}: expected a comma-separated integer list, got {text!r}")


def cmd_compare(args) -> int:
    config = load_scenario(args.scenario)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    seeds = _parse_int_list(args.seeds, "--seeds")
    if not strategies or not seeds:
        raise ScenarioError("compare needs at least one strategy and one seed")

    results: dict[str, list[RunResult]] = {s: [] for s in strategies}
    for strategy in strategies:
        for seed in seeds:
            cfg = dataclasses.replace(config, strategy=strategy, seed=seed)
            results[strategy].append(run_engine(cfg))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "compare_runs.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["strategy", "seed"] + METRIC_COLUMNS)
        for strategy in strategies:
            for seed, result in zip(seeds, results[strategy]):
                w.writerow([strategy, seed] + _metrics_row(result))

    def agg(values):
        vals = [v for v in values if v is not None]
        if len(vals) != len(list(values)) or not vals:
            return ("", "", "")
        return (statistics.fmean(vals), min(vals), max(vals))

    numeric = [c for c in METRIC_COLUMNS if c != "end_reason"]
    with open(out_dir / "compare_summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["strategy", "metric", "mean", "min", "max"])
        for strategy in strategies:
            rows = [dict(zip(METRIC_COLUMNS, _metrics_row(r))) for r in results[strategy]]
            for col in numeric:
                raw = [None if row[col] == "" else float(row[col]) for row in rows]
                mean, lo, hi = agg(raw)
                w.writerow([strategy, col, mean, lo, hi])

    header = f"{'strategy':>9} {'CR(mean)':>9} {'CT(mean)':>10} {'NoTF':>6} {'ToTD50':>8}"
    print(header)
    for strategy in strategies:
        ms = [r.metrics for r in results[strategy]]
        cr = statistics.fmean(m.cr for m in ms)
        ct = statistics.fmean(m.ct_s for m in ms)
        notf = statistics.fmean(m.notf for m in ms)
        t50 = [m.totd[50] for m in ms]
        t50s = "-" if any(v is None for v in t50) else f"{statistics.fmean(t50):.0f}"
        print(f"{strategy:>9} {cr:>9.4f} {ct:>10.1f} {notf:>6.1f} {t50s:>8}")
    return 0


def cmd_sweep(args) -> int:
    config = load_scenario(args.scenario)
    seeds = _parse_int_list(args.seeds, "--seeds")
    dims = [d for d in ("team_sizes", "kappa1", "kappa2") if getattr(args, d)]
    if len(dims) != 1:
        raise ScenarioError("sweep needs exactly one of --team-sizes/--kappa1/--kappa2")
    dim = dims[0]
    flag = f"--{dim.replace('_', '-')}"
    values = _parse_int_list(getattr(args, dim), flag)
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
            result = run_engine(cfg)
            rows.append([dim, value, seed] + _metrics_row(result))
            print(
                f"{dim}={value} seed={seed}: CR={result.metrics.cr:.4f} "
                f"CT={result.metrics.ct_s:.1f}s"
            )
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dimension", "value", "seed"] + METRIC_COLUMNS)
        w.writerows(rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridcover", description=__doc__)
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
