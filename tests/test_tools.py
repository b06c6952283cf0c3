"""The digest comparison tool: its one-side digests and its report."""

import importlib.util
import json
import sys
from pathlib import Path

from gridcover import Simulation

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_digests", TOOL)
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
