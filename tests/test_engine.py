"""Engine runs checked tick by tick, the assignment table, and the failure
detector's timeout as the engine drives it."""

import importlib.util
import json
from pathlib import Path

import pytest

from gridcover import parse_scenario
from gridcover.engine import Assignments, Simulation

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "src" / "gridcover" / "scenarios"
RUNS = ("scenario1/NONCO", "scenario2/CARE", "scenario3/CARE", "scenario3/FR")


@pytest.fixture(scope="module")
def digest():
    """The benchmark's behaviour digest, loaded from `perfbench/batch.py`."""
    spec = importlib.util.spec_from_file_location("perfbench_batch", ROOT / "perfbench" / "batch.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.digest


def table_problems(sim: Simulation) -> list[str]:
    """Breaches of the assignment table's invariants (see the engine docstring)."""
    t = sim.table
    dead = {rid for rid, r in sim.robots.items() if not r.alive}
    problems = []
    if dead & set(t.holder.values()):
        problems.append(f"dead robots hold slots: {sorted(dead & set(t.holder.values()))}")
    if dead & set(t.next):
        problems.append(f"dead robots are committed: {sorted(dead & set(t.next))}")
    for task, members in t.standby.items():
        ranks = list(members)
        if dead & set(ranks):
            problems.append(f"dead robots wait on task {task}: {sorted(dead & set(ranks))}")
        if len(ranks) != len(set(ranks)):
            problems.append(f"standby of task {task} repeats a robot: {ranks}")
    for rid, r in sim.robots.items():
        strip = t.strip.get(rid)
        if r.alive and strip is not None:
            slot = (t.task[rid], strip)
            if t.holder.get(slot) != rid:
                problems.append(f"robot {rid} works strip {slot} held by {t.holder.get(slot)}")
    return problems


class CheckedSimulation(Simulation):
    """Checks the table after every tick; `_end_reason` is each tick's last step."""

    def _end_reason(self):
        problems = table_problems(self)
        assert not problems, f"tick {self.tick}: {problems}"
        return super()._end_reason()


@pytest.fixture(scope="module")
def results():
    out = {}
    for name in RUNS:
        scenario, strategy = name.split("/")
        doc = json.loads((SCENARIOS / f"{scenario}.json").read_text())
        doc["seed"] = 1
        doc["strategy"] = strategy
        out[name] = CheckedSimulation(parse_scenario(doc)).run()
    return out


class TestRuns:
    @pytest.mark.parametrize("name", RUNS)
    def test_digest_matches_benchmark(self, results, digest, name):
        committed = json.loads((ROOT / "perfbench" / "digests.json").read_text())["paper"]["1"]
        assert digest(results[name]) == committed[name]

    @pytest.mark.parametrize("name", RUNS)
    def test_run_completes(self, results, name):
        assert results[name].logs.liveness_ok
        assert results[name].metrics.end_reason == "complete"

    def test_heartbeat_timeout_confirms_silent_robots(self, results):
        # scenario2: robots 7 and 4 fail at 430 s and 445 s, beat every 5 s,
        # and are confirmed once silent for more than 15 s
        assert results["scenario2/CARE"].logs.detector == [(446, 7, 3, 3), (461, 4, 3, 3)]


class TestAssignments:
    def test_assign_takes_the_slot_over(self):
        t = Assignments()
        t.assign(1, 5, 0)
        t.assign(2, 5, 0)
        assert t.holder == {(5, 0): 2}
        assert t.claim(1, 5) == ("works", 0)
        assert t.claim(2, 5) == ("works", 0)

    def test_release_drops_the_worked_slot_whoever_holds_it(self):
        t = Assignments()
        t.assign(1, 5, 0)
        t.assign(2, 5, 0)
        t.release(1)
        assert t.holder == {}
        assert t.task == {1: 5, 2: 5}  # the task failed in stays recorded
        assert t.claim(1, 5) is None

    def test_whole_task_has_no_holder_entry(self):
        t = Assignments()
        t.assign(1, 5, None)
        assert t.holder == {}
        assert t.claim(1, 5) == ("works", None)

    def test_assign_ends_the_previous_slot(self):
        t = Assignments()
        t.assign(1, 5, 0)
        t.assign(1, 6, 2)
        assert t.holder == {(6, 2): 1}
        assert t.claim(1, 5) is None

    def test_commit_reserves_the_next_slot(self):
        t = Assignments()
        t.assign(1, 3, 1)
        t.commit(1, 5, 2)
        assert t.holder == {(3, 1): 1, (5, 2): 1}
        assert t.claim(1, 3) == ("works", 1)
        assert t.claim(1, 5) == ("commits", 2)

    def test_reservation_dropped_only_while_still_held(self):
        t = Assignments()
        t.commit(1, 5, 2)
        t.assign(2, 5, 2)
        t.release(1)
        assert t.holder == {(5, 2): 2}
        assert t.next == {}

    def test_new_commitment_replaces_old_one_and_standby(self):
        t = Assignments()
        t.park(1, 7)
        t.commit(1, 5, 2)
        t.commit(1, 6, 0)
        assert t.next == {1: (6, 0)}
        assert t.holder == {(6, 0): 1}
        assert list(t.standby[7]) == []

    def test_recommit_to_same_task_moves_strip_only(self):
        t = Assignments()
        t.commit(1, 5, 2)
        t.park(1, 7)
        t.commit(1, 5, 3)
        assert t.holder == {(5, 3): 1}
        assert list(t.standby[7]) == [1]

    def test_release_slot_keeps_task_commitment_and_ranks(self):
        t = Assignments()
        t.assign(1, 3, 1)
        t.commit(1, 5, 2)
        t.park(1, 7)
        t.release(1, "slot")
        assert t.task == {1: 3}
        assert t.claim(1, 3) is None
        assert t.holder == {(5, 2): 1}
        assert list(t.standby[7]) == [1]

    def test_release_task_forgets_the_task_only(self):
        t = Assignments()
        t.assign(1, 3, 1)
        t.park(1, 7)
        t.release(1, "task")
        assert t.task == {}
        assert t.claim(1, 3) is None
        assert t.holder == {(3, 1): 1}
        assert list(t.standby[7]) == [1]

    def test_park_twice_keeps_first_rank_and_release_removes_it(self):
        t = Assignments()
        t.park(1, 4)
        t.park(2, 4)
        t.park(1, 4)
        t.park(1, 6)
        assert list(t.standby[4]) == [1, 2]
        t.release(1)
        assert list(t.standby[4]) == [2]
        assert list(t.standby[6]) == []

    def test_assign_ends_standby(self):
        t = Assignments()
        t.park(1, 4)
        t.assign(1, 4, 0)
        assert list(t.standby[4]) == []
