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


def test_the_report_lists_moved_and_one_sided_runs():
    base = {"paper 1 a": "x", "paper 1 b": "y", "crowd 1 c": "z"}
    head = {"paper 1 a": "x", "paper 1 b": "w", "open-field 1 d": "v"}
    assert load_tool().differing(base, head) == [
        "crowd 1 c: z -> absent",
        "open-field 1 d: absent -> v",
        "paper 1 b: y -> w",
    ]
