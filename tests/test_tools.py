"""The digest comparison tool, its one-side digests and its report, the
benchmark pairs tool's order and statistics, and the memory tool's report."""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from gridcover import Simulation
from gridcover.engine import RunLogs
from gridcover.world import CellState

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_digests.py"


def load_tool(path=TOOL):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_side_gives_the_committed_digests(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # digests() puts perfbench/ on it
    committed = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    expected = {f"{w} 1 {name}": d for w, seeds in committed.items() for name, d in seeds["1"].items()}
    assert load_tool().digests(ROOT, [1]) == expected


def test_a_raising_run_is_reported_in_place_of_its_digest(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))

    def run(self):
        raise RuntimeError("boom")

    monkeypatch.setattr(Simulation, "run", run)
    out = load_tool().digests(ROOT, [1])
    assert out and set(out.values()) == {"raised RuntimeError: boom"}
    # and a side writes nothing for it
    assert load_tool().side(ROOT, [1]) == {"digests": out, "outputs": {}}


def test_the_report_lists_moved_and_one_sided_runs():
    base = {"paper 1 a": "x", "paper 1 b": "y", "crowd 1 c": "z"}
    head = {"paper 1 a": "x", "paper 1 b": "w", "open-field 1 d": "v"}
    assert load_tool().differing(base, head) == [
        "crowd 1 c: z -> absent",
        "open-field 1 d: absent -> v",
        "paper 1 b: y -> w",
    ]


def test_the_report_names_runs_whose_outputs_differ():
    base = {"paper 1 a": "x", "paper 1 b": "y", "crowd 1 c": "z"}
    head = {"paper 1 a": "x", "paper 1 b": "w", "open-field 1 d": "v"}
    # runs one side never wrote are reported by their digests
    assert load_tool().differing_outputs(base, head) == ["paper 1 b: outputs differ"]


def test_the_files_hash_ignores_only_solve_times(tmp_path):
    games = "gid,kind,solve_wall_s\r\n1,noidle,{}\r\n2,resilience,{}\r\n"

    def written(name, solve_times, trajectories="tick,robot\r\n0,1\r\n"):
        out_dir = tmp_path / name
        out_dir.mkdir()
        (out_dir / "games.csv").write_bytes(games.format(*solve_times).encode())
        (out_dir / "trajectories.csv").write_bytes(trajectories.encode())
        return load_tool().files_hash(out_dir)

    reference = written("a", ("0.001", "0.5"))
    assert written("b", ("0.25", "1e-05")) == reference
    assert written("c", ("0.001", "0.5"), "tick,robot\n0,1\n") != reference
    assert written("d", ("0.001,", "0.5")) != reference  # a cell before the last one changed


def test_a_side_hashes_the_files_of_every_run_that_ends(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    committed = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    expected = {f"{w} 1 {name}": d for w, seeds in committed.items() for name, d in seeds["1"].items()}
    found = load_tool().side(ROOT, [1])
    assert found["digests"] == expected
    assert found["outputs"].keys() == expected.keys()
    assert all(len(h) == 64 for h in found["outputs"].values())


def load_pairs_tool():
    return load_tool(ROOT / "tools" / "bench_pairs.py")


def test_the_pairs_alternate_with_the_parent_first_on_odd_pairs():
    calls = []

    def run(side):
        calls.append(side)
        return {"n": len(calls)}

    reports = load_pairs_tool().run_pairs(run, 4)
    assert calls == ["parent", "change", "change", "parent", "parent", "change", "change", "parent"]
    assert reports == {
        "parent": [{"n": 1}, {"n": 4}, {"n": 5}, {"n": 8}],
        "change": [{"n": 2}, {"n": 3}, {"n": 6}, {"n": 7}],
    }


def test_a_lower_is_better_metric_compares_medians_quartiles_and_pairs():
    m = load_pairs_tool().compare([1.0, 2.0, 3.0, 4.0], [0.5, 2.5, 2.0, 3.0], "lower", 0.25)
    # quartiles by statistics.quantiles' default (exclusive) method
    assert m["parent"] == {"median": 2.5, "q1": 1.25, "q3": 3.75}
    assert m["change"] == {"median": 2.25, "q1": 0.875, "q3": 2.875}
    assert m["change_over_parent"] == pytest.approx(0.9)
    assert m["change_wins"] == 3  # the second pair's change run is slower
    assert m["worse_by"] == pytest.approx(-0.1)
    assert m["within_bound"] is True
    assert (m["median_gap"], m["parent_iqr"]) == (0.25, 2.5)
    assert (m["parent_runs"], m["change_runs"]) == ([1.0, 2.0, 3.0, 4.0], [0.5, 2.5, 2.0, 3.0])


def test_a_higher_is_better_metric_is_worse_when_it_falls():
    m = load_pairs_tool().compare([100.0, 100.0, 102.0], [70.0, 101.0, 60.0], "higher", 0.25)
    assert m["change_over_parent"] == pytest.approx(0.7)
    assert m["worse_by"] == pytest.approx(0.3)
    assert m["within_bound"] is False
    assert m["change_wins"] == 1
    assert m["median_gap"] == pytest.approx(30.0)


def test_an_entry_sums_the_runs_of_each_side():
    def report(value, correct=True, failed=0):
        return {"correct": correct, "attempted": 9, "failed": failed, "metrics": {"wall_s": {"value": value}}}

    reports = {"parent": [report(1.0), report(3.0)], "change": [report(0.5, False, 1), report(0.7)]}
    found = load_pairs_tool().entry(reports, [{"name": "wall_s", "better": "lower", "bound": 0.25}], 13)
    assert {k: v for k, v in found.items() if k != "metrics"} == {
        "seed": 13,
        "pairs": 2,
        "correct": {"parent": True, "change": False},
        "attempted": {"parent": 18, "change": 18},
        "failed": {"parent": 0, "change": 1},
    }
    assert found["metrics"]["wall_s"]["change_wins"] == 2


def test_the_memory_tool_prints_a_line_per_run(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # main() puts src/ and perfbench/ on it
    assert load_tool(ROOT / "tools" / "mem_peaks.py").main(["--workload", "paper", "--runs", "2"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(row["workload"], row["name"]) for row in rows] == [
        ("paper", "scenario1/CARE"),
        ("paper", "scenario1/NONCO"),
    ]
    for row in rows:
        assert list(row) == ["workload", "name", "setup", "run", "writes", "logs_tracked", "gc_passes"]
        for phase in ("setup", "run", "writes"):
            assert list(row[phase]) == ["current_mb", "peak_mb"]
            assert 0 < row[phase]["current_mb"] <= row[phase]["peak_mb"]
            assert len(row["gc_passes"][phase]) == 3
        assert list(row["gc_passes"]) == ["setup", "run", "writes"]
        assert list(row["logs_tracked"]) == [f.name for f in dataclasses.fields(RunLogs)]
        # the change log and its flat list, however many changes it holds
        assert row["logs_tracked"]["changes"] == 2
        assert row["logs_tracked"]["events"] > 0


def test_the_memory_tool_counts_tracked_objects_once():
    count = load_tool(ROOT / "tools" / "mem_peaks.py").tracked_objects
    shared = [1]
    assert count([shared, shared, (shared,)]) == 3  # the outer list, `shared` once and the tuple
    assert count(["a", 1, 2.0]) == 1  # atoms are not tracked
    assert count([CellState.EXPLORED, CellState]) == 1  # shared members and classes are not followed
