"""The run outputs the CLI writes, checked against the run they came from,
and the arguments it rejects."""

import csv
import dataclasses
import gc
import hashlib
import io
import json
import math
import statistics
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gridcover import cli, load_scenario, parse_scenario, run
from gridcover.cli import _write_changes, _write_trajectories, write_run_outputs
from gridcover.engine import ChangeLog, TrajectoryLog
from gridcover.render import ROBOT_COLORS, STATE_FILL, render_svg
from gridcover.world import CellState, Change, GridMap, Target, map_text

SCENARIO = Path(__file__).resolve().parents[1] / "src" / "gridcover" / "scenarios" / "scenario2.json"
OUTPUT_FILES = (
    "metrics.csv",
    "events.csv",
    "games.csv",
    "trajectories.csv",
    "changes.csv",
    "detector.csv",
    "map_final.txt",
    "trajectories.svg",
)
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
GAME_COLUMNS = [
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


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """scenario2/CARE at seed 1 (two failures, no-idling games) and the
    directory its outputs were written to."""
    config = dataclasses.replace(load_scenario(str(SCENARIO)), seed=1, strategy="CARE")
    result = run(config)
    out_dir = tmp_path_factory.mktemp("run")
    write_run_outputs(result, out_dir)
    return result, out_dir


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def metric_cells(result) -> dict[str, str]:
    """The metrics.csv cells a run should get, by column in column order."""
    metrics = dataclasses.asdict(result.metrics)
    totd = metrics.pop("totd")
    values = {**metrics, **{f"totd_{p}": totd[p] for p in range(10, 101, 10)}}
    assert sorted(values) == sorted(METRIC_COLUMNS)
    return {c: "" if values[c] is None else str(values[c]) for c in METRIC_COLUMNS}


def run_cli(monkeypatch, argv) -> list:
    """Runs the CLI on `argv` and returns the result of each run it made."""
    results = []

    def recording(config, **options):
        results.append(run(config, **options))
        return results[-1]

    monkeypatch.setattr(cli, "run_engine", recording)
    assert cli.main(argv) == 0
    return results


def test_writes_every_output(written):
    _result, out_dir = written
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(OUTPUT_FILES)
    assert all((out_dir / name).stat().st_size > 0 for name in OUTPUT_FILES)


def test_games_csv_has_one_row_per_game_with_its_solve_time(written):
    result, out_dir = written
    header, *rows = read_csv(out_dir / "games.csv")
    assert header == GAME_COLUMNS
    games = result.logs.games
    assert games and len(rows) == len(games)
    for row, g in zip(rows, games):
        assert int(row[0]) == g.gid
        assert row[1] == g.kind
        assert float(row[-1]) == g.solve_wall_s
    assert any(g.solve_wall_s > 0 for g in games)


def test_metrics_csv_matches_the_run(written):
    result, out_dir = written
    header, row = read_csv(out_dir / "metrics.csv")
    # compare_runs.csv and sweep.csv readers index the columns by position
    assert header == METRIC_COLUMNS
    assert dict(zip(header, row)) == metric_cells(result)


def test_the_change_log_holds_no_object_per_change(written):
    # the log is one list of plain ints, which the collector does not walk
    # into: the log and its list are all it tracks
    result, _out_dir = written
    changes = result.logs.changes
    assert len(changes) > 1000
    tracked, i = [changes], 0
    while i < len(tracked):
        tracked += [o for o in gc.get_referents(tracked[i]) if gc.is_tracked(o) and not isinstance(o, type)]
        i += 1
    assert len(tracked) == 2


def test_the_svg_is_never_held_whole(written, tmp_path, monkeypatch):
    # the traced peak inside the render stays under the document's size; a
    # render that built the document, or its bytes, would pass it alone
    result, out_dir = written
    render_peaks = []

    def measured(*args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rendered(*args)
        render_peaks.append(tracemalloc.get_traced_memory()[1] - start)

    rendered = cli.render_svg
    monkeypatch.setattr(cli, "render_svg", measured)
    tracemalloc.start()
    try:
        write_run_outputs(result, tmp_path)
    finally:
        tracemalloc.stop()
    svg = (tmp_path / "trajectories.svg").read_bytes()
    assert svg == (out_dir / "trajectories.svg").read_bytes()
    assert len(render_peaks) == 1 and render_peaks[0] < len(svg)


def test_detector_csv_has_one_row_per_confirmed_failure(written):
    result, out_dir = written
    header, *rows = read_csv(out_dir / "detector.csv")
    assert header == ["tick", "robot", "heard_by"]
    assert len(result.logs.detector) == 2
    assert rows == [[str(tick), str(robot), str(heard)] for tick, robot, heard, _ in result.logs.detector]


# sha256 of each file `written` holds, recorded from the csv.writer,
# per-cell and per-point writers; games.csv with its solve_wall_s blanked
GOLDEN = {
    "changes.csv": "383cd6f75c87f85e97d902f561bf9c49484f409da133897e71e8499931d9cded",
    "detector.csv": "bc660b13daab0a86f57f9c4ca550fa1c00a176bb0863e693312decbe7a906763",
    "events.csv": "8a3a64850b1702dae7a7074150b2092c6f5cf68f392770c401e3d2dbf6b4eb34",
    "games.csv": "aaa0cb3fe9508ad68fb675455909f939800af3be689888dca654ec4dcb5e6d2b",
    "map_final.txt": "25d18e26d817cfe3364982f350d2bdffc66b3b56f49eff837f7cc79ba7b9e531",
    "metrics.csv": "fbeaaddbe2be703e248d6b3fdc804ec245b344962aed217322fa26c60ef524bc",
    "trajectories.csv": "50435a5bd033b42898a05a396b9292c36e2a713dcbab0a5fca7745d180696bfc",
    "trajectories.svg": "5018f13eee16a1755ff3f808aab96f0a46b72986e081ff86f855368eb95d627b",
}


def without_solve_times(data: bytes) -> bytes:
    """games.csv with every row's last cell, the host-time solve_wall_s,
    blanked; the header stays."""
    header, *rows = data.split(b"\r\n")
    return b"\r\n".join([header, *(row.rpartition(b",")[0] + b"," if row else row for row in rows)])


def test_every_written_file_keeps_its_bytes(written):
    _result, out_dir = written
    hashes = {}
    for name in OUTPUT_FILES:
        data = (out_dir / name).read_bytes()
        if name == "games.csv":
            blanked = without_solve_times(data)
            assert blanked != data and blanked.count(b"\r\n") == data.count(b"\r\n")
            data = blanked
        hashes[name] = hashlib.sha256(data).hexdigest()
    assert hashes == GOLDEN


def test_a_map_snapshot_keeps_its_bytes(tmp_path):
    scenario3 = SCENARIO.parent / "scenario3.json"
    argv = ["run", str(scenario3), "--seed", "2", "--snapshot-every", "200", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    data = (tmp_path / "map_tick_000200.txt").read_bytes()
    assert hashlib.sha256(data).hexdigest() == "8afd0620999852363db6d54d4a764af41a848fb240bf4fc9e48fc87fbe7fae41"


def test_a_robot_failing_before_its_first_row_is_crossed_at_its_start(tmp_path):
    doc = json.loads(SCENARIO.read_text())
    doc.update(seed=1, failures=[{"robot": 3, "time_s": 0.5}])
    result = run(parse_scenario(doc))
    assert not [row for row in result.logs.trajectories if row[1] == 3]  # failed at tick 1, before any row
    write_run_outputs(result, tmp_path)
    root = ET.fromstring((tmp_path / "trajectories.svg").read_text())
    (cross,) = root.iter("{http://www.w3.org/2000/svg}g")
    first = next(iter(cross))
    # 12 svg pixels per cell: the cross is centered on start cell (20, 24)
    assert (float(first.get("x1")) + 5, float(first.get("y1")) + 5) == (20.5 * 12, 24.5 * 12)


@pytest.fixture(scope="module")
def compared(tmp_path_factory):
    """`compare` of CARE and NONCO over seeds 1 and 2 on scenario2: the
    (strategy, seed, result) of each run and the output directory."""
    out_dir = tmp_path_factory.mktemp("compare")
    argv = ["compare", str(SCENARIO), "--strategies", "CARE,NONCO", "--seeds", "1,2", "--out-dir", str(out_dir)]
    with pytest.MonkeyPatch.context() as mp:
        results = run_cli(mp, argv)
    keys = [(strategy, seed) for strategy in ("CARE", "NONCO") for seed in (1, 2)]
    assert [(r.config.strategy, r.config.seed) for r in results] == keys
    return [(*key, result) for key, result in zip(keys, results)], out_dir


def test_compare_runs_rows_are_the_runs_metrics_rows(compared):
    runs, out_dir = compared
    header, *rows = read_csv(out_dir / "compare_runs.csv")
    assert header == ["strategy", "seed", *METRIC_COLUMNS]
    assert rows == [[strategy, str(seed), *metric_cells(result).values()] for strategy, seed, result in runs]


def test_compare_summary_aggregates_each_numeric_metric(compared):
    runs, out_dir = compared
    header, *rows = read_csv(out_dir / "compare_summary.csv")
    assert header == ["strategy", "metric", "mean", "min", "max"]
    numeric = [c for c in METRIC_COLUMNS if c != "end_reason"]
    expected = []
    for strategy in ("CARE", "NONCO"):
        cells = [metric_cells(result) for s, _seed, result in runs if s == strategy]
        for col in numeric:
            if any(c[col] == "" for c in cells):
                expected.append([strategy, col, "", "", ""])
            else:
                values = [float(c[col]) for c in cells]
                stats = (statistics.fmean(values), min(values), max(values))
                expected.append([strategy, col, *map(str, stats)])
    assert rows == expected
    # NONCO plays no games, so it has no minimum gain
    assert ["NONCO", "gp_min", "", "", ""] in rows


def test_sweep_writes_one_row_per_value_and_seed(monkeypatch, tmp_path):
    argv = ["sweep", str(SCENARIO), "--kappa1", "2,6", "--seeds", "1,2", "--out-dir", str(tmp_path)]
    results = run_cli(monkeypatch, argv)
    header, *rows = read_csv(tmp_path / "sweep.csv")
    assert header == ["dimension", "value", "seed", *METRIC_COLUMNS]
    keys = [(value, seed) for value in (2, 6) for seed in (1, 2)]
    assert [(r.config.params.kappa1, r.config.seed) for r in results] == keys
    assert rows == [
        ["kappa1", str(value), str(seed), *metric_cells(result).values()]
        for (value, seed), result in zip(keys, results)
    ]


@pytest.mark.parametrize(
    "flag, values",
    [
        ("--kappa2", "0,-1"),
        ("--kappa2", "3,0"),  # rejected before the good value runs
        ("--kappa1", "-2"),
        ("--team-sizes", "0"),
        ("--team-sizes", "2,11"),  # scenario2 has 10 robots
        ("--kappa2", ","),  # no value at all
    ],
)
def test_sweep_rejects_values_outside_their_range(tmp_path, monkeypatch, flag, values):
    def no_run(_config):
        raise AssertionError("a sweep run started")

    monkeypatch.setattr(cli, "run_engine", no_run)
    assert cli.main(["sweep", str(SCENARIO), flag, values, "--seeds", "1", "--out-dir", str(tmp_path)]) == 1
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_rejects_an_empty_seed_list(tmp_path, monkeypatch):
    def no_run(_config):
        raise AssertionError("a sweep run started")

    monkeypatch.setattr(cli, "run_engine", no_run)
    assert cli.main(["sweep", str(SCENARIO), "--kappa2", "2", "--seeds", ",", "--out-dir", str(tmp_path)]) == 1
    assert not (tmp_path / "sweep.csv").exists()


def no_run(_config, **_options):
    raise AssertionError("a run started")


@pytest.mark.parametrize("names, named", [("CARE,Bogus", "'Bogus'"), ("care", "'care'")])
def test_compare_rejects_unknown_strategy_names(tmp_path, monkeypatch, capsys, names, named):
    monkeypatch.setattr(cli, "run_engine", no_run)
    argv = ["compare", str(SCENARIO), "--strategies", names, "--seeds", "1", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 1
    assert named in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "strategies, seeds, message",
    [
        ("CARE,CARE", "1", "--strategies: 'CARE' is given twice"),
        ("CARE,FR", "1,2,1", "--seeds: 1 is given twice"),
        (" FR ,NONCO,FR", "3", "--strategies: 'FR' is given twice"),
    ],
)
def test_compare_rejects_a_repeated_strategy_or_seed(tmp_path, monkeypatch, capsys, strategies, seeds, message):
    monkeypatch.setattr(cli, "run_engine", no_run)
    argv = ["compare", str(SCENARIO), "--strategies", strategies, "--seeds", seeds, "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"scenario error: {message}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flag, values, seeds, message",
    [
        ("--kappa1", "2,6,2", "1", "--kappa1: 2 is given twice"),
        ("--team-sizes", "3,3", "1", "--team-sizes: 3 is given twice"),
        ("--kappa2", "2", "1,1", "--seeds: 1 is given twice"),
    ],
)
def test_sweep_rejects_a_repeated_value_or_seed(tmp_path, monkeypatch, capsys, flag, values, seeds, message):
    monkeypatch.setattr(cli, "run_engine", no_run)
    argv = ["sweep", str(SCENARIO), flag, values, "--seeds", seeds, "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"scenario error: {message}\n"
    assert not any(tmp_path.iterdir())


def test_run_rejects_a_negative_snapshot_interval(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_engine", no_run)
    assert cli.main(["run", str(SCENARIO), "--snapshot-every", "-1", "--out-dir", str(tmp_path)]) == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["missing.json", "."])
def test_run_reports_an_unreadable_scenario_path(tmp_path, monkeypatch, capsys, name):
    monkeypatch.setattr(cli, "run_engine", no_run)
    path = tmp_path / name
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: {path}: cannot read the file: ")
    assert not (tmp_path / "out").exists()


def test_run_refuses_an_infinite_tick(tmp_path, monkeypatch, capsys):
    # with tick_s = Infinity the tasking loop never ended
    doc = json.loads((SCENARIO.parent / "scenario1.json").read_text())
    doc.setdefault("params", {})["tick_s"] = math.inf
    scenario = tmp_path / "infinite-tick.json"
    scenario.write_text(json.dumps(doc))  # writes the literal Infinity
    out_dir = tmp_path / "out"
    monkeypatch.setattr(cli, "run_engine", no_run)
    assert cli.main(["run", str(scenario), "--out-dir", str(out_dir)]) == 1
    assert "params.tick_s: expected a finite number" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("strategy", ["CARE", "NONCO", "FR"])
def test_run_refuses_a_start_beside_an_obstacle(tmp_path, capsys, strategy):
    # robot 1 starts on (3, 2), a buffer cell of the obstacle at (3, 1)
    doc = {
        "world": {
            "width": 4,
            "height": 3,
            "tasks": [{"x": 0, "y": 0, "w": 2, "h": 3}, {"x": 2, "y": 0, "w": 2, "h": 3}],
            "obstacles": [[3, 1]],
            "targets": {"mode": "sampled", "lambda": 0.0},
        },
        "robots": [{"id": 1, "start": [3, 2]}],
        "strategy": strategy,
    }
    scenario = tmp_path / "beside.json"
    scenario.write_text(json.dumps(doc))
    assert cli.main(["run", str(scenario), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "scenario error: robot 1: start cell [3, 2] is next to an obstacle\n"
    assert not (tmp_path / "out").exists()


def test_run_refuses_a_sensing_radius_below_sqrt5_cells(tmp_path, capsys):
    # 2.0 m on 1 m cells used to walk robots into obstacle buffers and
    # raise a bare ValueError from the travel planner
    doc = json.loads((SCENARIO.parent / "scenario1.json").read_text())
    doc.setdefault("params", {})["sense_radius_m"] = 2.0
    scenario = tmp_path / "short-sight.json"
    scenario.write_text(json.dumps(doc))
    assert cli.main(["run", str(scenario), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("scenario error: params.sense_radius_m: must be at least")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["run", str(SCENARIO), "--seed", "abc"], 1),
        (["run"], 1),  # no scenario
        (["bogus"], 1),
        ([], 1),
        (["--help"], 0),
        (["compare", "--help"], 0),
    ],
)
def test_usage_errors_exit_1(monkeypatch, capsys, argv, code):
    monkeypatch.setattr(cli, "run_engine", no_run)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code
    out, err = capsys.readouterr()
    assert "usage:" in (err if code else out)


def reference_trajectories_csv(rows) -> bytes:
    """trajectories.csv through the plain `csv.writer`, the path the
    formatted one replaced, kept as its oracle."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["tick", "robot", "x_m", "y_m", "cell_x", "cell_y", "mode"])
    writer.writerows(rows)
    return out.getvalue().encode()


def reference_map_text(grid) -> str:
    """The per-cell map dump the translated one replaced, kept as its oracle."""
    return "".join(
        "".join("UEFO"[grid.state((x, y))] for x in range(grid.width)) + "\n" for y in range(grid.height)
    )


def reference_render_svg(grid, trajectories, failures) -> str:
    """The per-cell, per-point renderer the cached one replaced, kept as its
    oracle."""

    def f(v):
        return f"{v:.2f}"

    w, h = grid.width * 12, grid.height * 12
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">']
    parts.append(f'<rect width="{w}" height="{h}" fill="{STATE_FILL[CellState.UNEXPLORED]}"/>')
    for y in range(grid.height):
        x = 0
        while x < grid.width:
            state = grid.state((x, y))
            x0 = x
            while x < grid.width and grid.state((x, y)) is state:
                x += 1
            if state is not CellState.UNEXPLORED:
                parts.append(
                    f'<rect x="{x0 * 12}" y="{y * 12}" width="{(x - x0) * 12}" height="12" '
                    f'fill="{STATE_FILL[state]}"/>'
                )
    scale = 12 / grid.epsilon
    by_robot = {}
    for _tick, rid, x_m, y_m, _cx, _cy, _mode in trajectories:
        by_robot.setdefault(rid, []).append((x_m * scale, y_m * scale))
    for i, rid in enumerate(sorted(by_robot)):
        pts = " ".join(f"{f(px)},{f(py)}" for px, py in by_robot[rid])
        color = ROBOT_COLORS[i % len(ROBOT_COLORS)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5" opacity="0.9"/>')
    for target in grid.targets:
        cx, cy = grid.cell_center(target.cell)
        fill = "#ffffff" if target.discovered else "#d00000"
        parts.append(
            f'<circle cx="{f(cx * scale)}" cy="{f(cy * scale)}" r="2.5" '
            f'fill="{fill}" stroke="#222222" stroke-width="0.6"/>'
        )
    for _rid, cell in failures:
        cx, cy = grid.cell_center(cell)
        px, py = cx * scale, cy * scale
        parts.append(
            f'<g stroke="#000000" stroke-width="2">'
            f'<line x1="{f(px - 5)}" y1="{f(py - 5)}" x2="{f(px + 5)}" y2="{f(py + 5)}"/>'
            f'<line x1="{f(px - 5)}" y1="{f(py + 5)}" x2="{f(px + 5)}" y2="{f(py - 5)}"/>'
            f"</g>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def reference_changes_csv(changes) -> bytes:
    """changes.csv through the plain `csv.writer`, the path the formatted
    one replaced, kept as its oracle."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["tick", "robot", "x", "y", "old", "new"])
    writer.writerows((tick, robot, *ch.cell, ch.old.name, ch.new.name) for tick, robot, ch in changes)
    return out.getvalue().encode()


@st.composite
def written_inputs(draw):
    """A map, a trajectory log and a change log shaped like the engine's. The
    log runs over several ticks from any first tick: each robot moves to a
    drawn cell and mode or stays, and may fail, on the first tick before any
    row or later; the cell centres are positive finite metres. Failure marks
    name logged robots and one robot with no row."""
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    target_cells = draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=4))
    grid = GridMap(
        width=width,
        height=height,
        epsilon=draw(st.floats(0.05, 20.0)),
        cells=draw(st.lists(st.sampled_from(list(CellState)), min_size=width * height, max_size=width * height)),
        task_of=[0] * (width * height),
        tasks={},
        targets=[Target(cell, draw(st.booleans())) for cell in target_cells],
    )
    metres = st.floats(min_value=0.0, exclude_min=True, max_value=1e9, allow_infinity=False)
    axis = st.lists(metres, min_size=1, max_size=4)
    log = TrajectoryLog(xs=draw(axis), ys=draw(axis))
    first = draw(st.integers(1, 10**9))
    log.last_tick = first + draw(st.integers(0, 6))
    ticks = range(first, log.last_tick + 1)
    robots = sorted(draw(st.lists(st.integers(0, 40), unique=True, max_size=5)))
    fails = {rid: draw(st.none() | st.sampled_from(ticks)) for rid in robots}
    moves = st.tuples(
        st.integers(0, len(log.xs) - 1),
        st.integers(0, len(log.ys) - 1),
        st.sampled_from(["tasking", "traveling", "idle"]),
    )
    last = {}  # live robot -> its last move's cell and mode
    for tick in ticks:
        for rid in robots:
            if fails[rid] is not None and tick >= fails[rid]:
                if last.pop(rid, None) is not None:
                    log.moves.append((tick, rid, None, None, None))
            elif rid not in last or draw(st.booleans()):
                move = draw(moves)
                if last.get(rid) != move:  # the engine logs only a change
                    last[rid] = move
                    log.moves.append((tick, rid, *move))
    cells = st.tuples(st.integers(0, 10**6), st.integers(0, 10**6))
    logged = sorted({move[1] for move in log.moves})
    marked = draw(st.lists(st.sampled_from(logged), max_size=3)) if logged else []
    failures = [(rid, draw(cells)) for rid in marked] + [(41, draw(cells))]
    # the team map changes only UNEXPLORED cells
    changes = ChangeLog()
    for tick, robot, cell, new in draw(
        st.lists(st.tuples(st.integers(0, 10**9), st.integers(0, 40), cells, st.sampled_from(list(CellState)[1:])))
    ):
        changes.add(tick, robot, [Change(cell, CellState.UNEXPLORED, new)])
    return grid, log, failures, changes


@pytest.fixture(scope="module")
def scratch_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("writers") / "out.csv"


@settings(max_examples=200, deadline=None)
@given(written_inputs())
def test_the_writers_keep_the_reference_bytes(scratch_csv, inputs):
    grid, log, failures, changes = inputs
    rows = list(log)
    _write_trajectories(scratch_csv, log)
    assert scratch_csv.read_bytes() == reference_trajectories_csv(rows)
    _write_changes(scratch_csv, changes)
    assert scratch_csv.read_bytes() == reference_changes_csv(changes)
    assert map_text(grid) == reference_map_text(grid)
    svg = io.StringIO()
    render_svg(grid, log, svg, failures)
    assert svg.getvalue() == reference_render_svg(grid, rows, failures)
