"""The run outputs the CLI writes, checked against the run they came from,
and the arguments it rejects."""

import csv
import dataclasses
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
    "map_final.txt",
    "trajectories.svg",
)
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
    metrics = dataclasses.asdict(result.metrics)
    totd = metrics.pop("totd")
    expected = {**metrics, **{f"totd_{p}": totd[p] for p in range(10, 101, 10)}}
    assert sorted(header) == sorted(expected)
    assert dict(zip(header, row)) == {k: "" if v is None else str(v) for k, v in expected.items()}


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


def no_run(_config):
    raise AssertionError("a run started")


@pytest.mark.parametrize("names, named", [("CARE,Bogus", "'Bogus'"), ("care", "'care'")])
def test_compare_rejects_unknown_strategy_names(tmp_path, monkeypatch, capsys, names, named):
    monkeypatch.setattr(cli, "run_engine", no_run)
    argv = ["compare", str(SCENARIO), "--strategies", names, "--seeds", "1", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 1
    assert named in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_run_rejects_a_negative_snapshot_interval(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_engine", no_run)
    assert cli.main(["run", str(SCENARIO), "--snapshot-every", "-1", "--out-dir", str(tmp_path)]) == 1
    assert not any(tmp_path.iterdir())


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
