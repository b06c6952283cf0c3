"""The run outputs the CLI writes, checked against the run they came from,
and the arguments it rejects."""

import csv
import dataclasses
import json
import math
import statistics
from pathlib import Path

import pytest

from gridcover import cli, load_scenario, run
from gridcover.cli import write_run_outputs

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


def test_detector_csv_has_one_row_per_confirmed_failure(written):
    result, out_dir = written
    header, *rows = read_csv(out_dir / "detector.csv")
    assert header == ["tick", "robot", "heard_by"]
    assert len(result.logs.detector) == 2
    assert rows == [[str(tick), str(robot), str(heard)] for tick, robot, heard, _ in result.logs.detector]


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
