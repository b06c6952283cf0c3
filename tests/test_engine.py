"""Engine runs checked tick by tick, the assignment table, the robots'
region counters and beliefs, and the failure detector's timeout as the
engine drives it."""

import gc
import importlib.util
import json
import weakref
from pathlib import Path

import pytest

from gridcover import parse_scenario
from gridcover.engine import Assignments, Simulation
from gridcover.world import CellState

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "src" / "gridcover" / "scenarios"
RUNS = ("scenario1/NONCO", "scenario2/CARE", "scenario3/CARE", "scenario3/FR")
CROWD_SEEDS = (1, 3)  # seed 3 also reactivates standbys


def perfbench(name: str):
    """A module of the benchmark, loaded from `perfbench/<name>.py`."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def digest():
    """The benchmark's behaviour digest."""
    return perfbench("batch").digest


def committed_digests(workload: str, seed: int = 1) -> dict[str, str]:
    return json.loads((ROOT / "perfbench" / "digests.json").read_text())[workload][str(seed)]


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


def counter_problems(sim: Simulation) -> list[str]:
    """Live robots whose kept region count differs from a fresh count of
    their region in their belief."""
    problems = []
    for rid, r in sim.robots.items():
        if not r.alive:
            continue
        fresh = sum(1 for c in r.region if r.belief.state(c) is CellState.UNEXPLORED)
        if r.region_unexplored() != fresh:
            problems.append(f"robot {rid} counts {r.region_unexplored()} unexplored region cells, not {fresh}")
    return problems


def belief_problems(sim: Simulation) -> list[str]:
    """Live robots whose belief differs from the team map."""
    return [
        f"robot {rid}'s belief differs from the team map"
        for rid, r in sim.robots.items()
        if r.alive and r.belief.cells != sim.grid.cells
    ]


class CheckedSimulation(Simulation):
    """Checks that every live belief equals the team map after every sync,
    and the region counters and the table after every tick (`_end_reason`
    is each tick's last step). On every travel step it checks that a path
    whose re-check is skipped holds no blocked cell, and counts in
    `travel_gate` the skipped re-checks, the run ones and the run ones that
    found the path blocked. Keeps each robot's belief as it was when the
    robot failed, in `failed_beliefs`, and the run's result in `result`."""

    check_table = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.failed_beliefs: dict[int, list] = {}
        self.travel_gate = {"skipped": 0, "checked": 0, "blocked": 0}

    def _advance_travel(self, r):
        blocked = [c for c in r.path if r.belief.state(c) >= CellState.FORBIDDEN]
        if r.path_checked_at == r.belief.n_blocked:
            assert not blocked, f"tick {self.tick}: robot {r.id} skips its path check, blocked: {blocked}"
            self.travel_gate["skipped"] += 1
        else:
            self.travel_gate["checked"] += 1
            self.travel_gate["blocked"] += bool(blocked)
        super()._advance_travel(r)

    def run(self):
        self.result = super().run()
        return self.result

    def _deliver_messages(self):
        next_sync = self._next_sync
        super()._deliver_messages()
        if self._next_sync != next_sync:
            problems = belief_problems(self)
            assert not problems, f"tick {self.tick}, after the sync: {problems}"

    def _fire(self, r, event, payload=()):
        super()._fire(r, event, payload)
        if event == "e7":
            self.failed_beliefs[r.id] = list(r.belief.cells)

    def _end_reason(self):
        problems = counter_problems(self)
        if self.check_table:
            problems += table_problems(self)
        assert not problems, f"tick {self.tick}: {problems}"
        return super()._end_reason()


class CrowdSimulation(CheckedSimulation):
    # `crowd` breaches the "works a strip it holds" invariant through the
    # known double-holder defect of `_apply_game`, so only the counters are
    # checked here
    check_table = False


@pytest.fixture(scope="module")
def runs():
    """The bundled runs, finished."""
    out = {}
    for name in RUNS:
        scenario, strategy = name.split("/")
        doc = json.loads((SCENARIOS / f"{scenario}.json").read_text())
        doc["seed"] = 1
        doc["strategy"] = strategy
        out[name] = CheckedSimulation(parse_scenario(doc))
        out[name].run()
    return out


# Four robots start in one 40x10 task and split it into four column strips,
# so three travel east across a dotted wall they cannot see from the start.
# The wall's cells are not 8-adjacent, so no obstacle is buffered before it
# is seen and every belief keeps matching the team map.
DOTTED_WALL = {
    "world": {
        "width": 40,
        "height": 10,
        "tasks": [{"x": 0, "y": 0, "w": 40, "h": 10}],
        "obstacles": [[20, 0], [20, 2], [20, 4], [20, 6]],
        "targets": {"mode": "sampled", "lambda": 0.0},
    },
    "robots": [{"id": i, "start": [0, i - 1]} for i in range(1, 5)],
    "strategy": "NONCO",
}
DOTTED_WALL_DIGEST = "cee8e93e02a8c4b3b622a8dd7d5bb81f2b4b0b6f595c4d8cdf4bf5a56072c53b"
# `crowd` seed 1 with a sync every 3 s, recorded while every robot still kept
# a full belief copy
CROWD_SYNC3_DIGEST = "4c744466b53c9beac043a7e85dbfcec1623bdcb5bee9958e84ab442efd2613d5"


@pytest.fixture(scope="module")
def dotted_wall():
    sim = CheckedSimulation(parse_scenario(DOTTED_WALL))
    sim.run()
    return sim


@pytest.fixture(scope="module")
def crowd():
    """`crowd` runs: confirmed failures, resilience games and standby
    reactivation on a 40-robot team."""
    workloads = perfbench("workloads")
    out = {}
    for seed in CROWD_SEEDS:
        ((_name, doc),) = workloads.crowd(seed)
        out[seed] = CrowdSimulation(parse_scenario(doc))
        out[seed].run()
    return out


class TestRuns:
    @pytest.mark.parametrize("name", RUNS)
    def test_digest_matches_benchmark(self, runs, digest, name):
        assert digest(runs[name].result) == committed_digests("paper")[name]

    @pytest.mark.parametrize("seed", CROWD_SEEDS)
    def test_crowd_digest_matches_benchmark(self, crowd, digest, seed):
        assert digest(crowd[seed].result) == committed_digests("crowd", seed)["crowd/CARE"]
        assert crowd[seed].result.metrics.end_reason == "complete"

    def test_crowd_runs_fail_over_and_reactivate(self, crowd):
        assert all(len(sim.logs.detector) == 10 for sim in crowd.values())
        assert all(sim.result.metrics.games_resilience > 0 for sim in crowd.values())
        reactivations = [e for e in crowd[3].logs.events if e.payload[:1] == ("reactivate",)]
        assert reactivations

    @pytest.mark.parametrize("name", RUNS)
    def test_run_completes(self, runs, name):
        assert runs[name].logs.liveness_ok
        assert runs[name].result.metrics.end_reason == "complete"

    def test_failed_robots_beliefs_stop_changing(self, runs, crowd):
        sims = [runs["scenario2/CARE"], *crowd.values()]
        failed = [(sim, rid) for sim in sims for rid, r in sim.robots.items() if not r.alive]
        assert len(failed) == 2 + 10 * len(crowd)
        for sim, rid in failed:
            assert sim.robots[rid].belief.cells == sim.failed_beliefs[rid]
            assert sim.robots[rid].belief.cells != sim.grid.cells  # the team went on mapping

    @pytest.mark.parametrize("name", RUNS[1:])  # scenario1/NONCO never travels
    def test_travel_skips_path_rechecks(self, runs, name):
        # no travelling robot's belief gains a blocked cell in these runs
        assert runs[name].travel_gate["skipped"] > 0

    def test_travel_rechecks_when_the_belief_gains_a_blocked_cell(self, dotted_wall):
        gate = dotted_wall.travel_gate
        assert gate["skipped"] > 0 and gate["blocked"] > 0
        assert dotted_wall.result.metrics.end_reason == "complete"

    def test_dotted_wall_run_is_unchanged_by_the_gate(self, dotted_wall, digest):
        # recorded before travel re-checked paths only after a blocked-cell write
        assert digest(dotted_wall.result) == DOTTED_WALL_DIGEST

    def test_crowd_syncing_every_third_tick(self, digest):
        # robots write for three ticks between syncs; every sync still
        # leaves each live belief equal to the team map
        ((_name, doc),) = perfbench("workloads").crowd(1)
        doc["params"] = {**doc.get("params", {}), "sync_every_s": 3}
        sim = CrowdSimulation(parse_scenario(doc))
        sim.run()
        assert sim.params.sync_every_s == 3 and sim.params.tick_s == 1
        assert digest(sim.result) == CROWD_SYNC3_DIGEST
        assert sim.result.metrics.end_reason == "complete"

    def test_finished_simulation_is_freed_without_the_cyclic_collector(self):
        # robot 1 fails, so its belief is detached from the team map too
        sim = Simulation(parse_scenario(open_task(3, [(1, 20)])))
        result = sim.run()
        assert result.metrics.end_reason == "complete" and len(sim.logs.detector) == 1
        # the beliefs are freed too, so neither they nor the views hold a
        # reference cycle
        collected = [weakref.ref(sim), weakref.ref(sim.beliefs)]
        gc.disable()
        try:
            del sim
            assert [ref() for ref in collected] == [None, None]
        finally:
            gc.enable()

    def test_heartbeat_timeout_confirms_silent_robots(self, runs):
        # scenario2: robots 7 and 4 fail at 430 s and 445 s, beat every 5 s,
        # and are confirmed once silent for more than 15 s
        assert runs["scenario2/CARE"].logs.detector == [(446, 7, 3, 3), (461, 4, 3, 3)]


def open_task(robots: int, failures: list[tuple[int, float]], **params) -> dict:
    """A 20x20 obstacle-free task, robots 1..n starting in its first column."""
    return {
        "world": {
            "width": 20,
            "height": 20,
            "tasks": [{"x": 0, "y": 0, "w": 20, "h": 20}],
            "targets": {"mode": "sampled", "lambda": 0.0},
        },
        "robots": [{"id": i, "start": [0, i - 1]} for i in range(1, robots + 1)],
        "failures": [{"robot": r, "time_s": t} for r, t in failures],
        "params": params,
        "strategy": "CARE",
    }


class TestFailureDetection:
    def test_ticks_that_do_not_divide_the_heartbeat(self):
        # 2 s ticks, 5 s beats: the team beats at 0, 6 and 12 s. Robot 3
        # fails at 12 s after that tick's beat, robot 2 at 14 s (its 13 s
        # failure waits for the next tick); both were last heard at 12 s and
        # are confirmed once silent for more than 15 s, at 28 s (tick 14),
        # with robot 1 the one listener left
        sim = CheckedSimulation(parse_scenario(open_task(3, [(2, 13), (3, 12)], tick_s=2, heartbeat_s=5)))
        sim.run()
        assert sim.logs.detector == [(14, 2, 1, 1), (14, 3, 1, 1)]

    def test_no_confirmation_once_no_robot_is_left_to_hear_it(self):
        # robot 1, last heard at 100 s, is silent for more than 15 s at 116 s,
        # the tick robot 2 fails too
        sim = CheckedSimulation(parse_scenario(open_task(2, [(1, 101), (2, 116)])))
        sim.run()
        assert sim.result.metrics.end_reason == "all_failed"
        assert sim.logs.detector == []


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


class TestBenchmarkHooks:
    def test_tracer_sees_the_game_layer_and_restores_it(self, digest):
        # the benchmark's tracer patches these names by attribute; a refactor
        # that renames them or stops calling them blinds its trace
        from gridcover import engine, supervisor, world

        tracing = perfbench("tracing")
        tracer = tracing.Tracer()
        simulation, parse, _write, restore = tracing.instrument(tracer)
        traced_build = engine.build_team_model
        eager_total = 0  # live robots x tasks, summed over the builds

        def counted_build(snap):
            nonlocal eager_total
            eager_total += len(snap.robots) * len(snap.grid.tasks)
            return traced_build(snap)

        doc = json.loads((SCENARIOS / "scenario2.json").read_text())
        doc["seed"] = 1
        doc["strategy"] = "CARE"
        engine.build_team_model = counted_build
        try:
            sim = simulation(parse(doc))
            result = sim.run()
        finally:
            engine.build_team_model = traced_build
            restore()

        times = tracer.layer_times()
        assert times["supervisor.team_model"][0] > 0
        assert times["game.max_logit"][0] > 0
        assert 0 < tracer.counts["models.success_probability_calls"] < eager_total
        assert times["supervisor.detect_failures"][0] > 0
        assert tracer.counts["supervisor.confirmed"] == 2
        # a sync merges nothing: the beliefs read the team map itself
        assert times["engine.sync"][0] > 0 and "world.merge_maps" not in times
        assert engine.merge_maps is world.merge_maps
        assert engine.build_team_model is supervisor.build_team_model
        assert engine.detect_failures is supervisor.detect_failures
        assert digest(result) == committed_digests("paper")["scenario2/CARE"]
