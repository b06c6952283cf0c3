"""Engine runs checked tick by tick, the assignment table, the robots'
region counters and beliefs, and the failure detector's timeout as the
engine drives it."""

import dataclasses
import gc
import importlib.util
import json
import weakref
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridcover import ScenarioError, parse_scenario
from gridcover.engine import (
    _BLOCKED,
    _UNEXPLORED,
    Assignments,
    ChangeLog,
    Done,
    LivenessError,
    Robot,
    Simulation,
    apply_localization_noise,
    make_planner,
    mark_covered,
    next_waypoint,
)
from gridcover.models import remaining_worth
from gridcover.scenario import STRATEGIES
from gridcover.supervisor import DesState
from gridcover.world import Cell, CellState, Change, free_cells

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
    dead = {rid for rid, r in sim.robots.items() if r.des is DesState.FL}
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
        if r.des is not DesState.FL and strip is not None:
            slot = (t.task[rid], strip)
            if t.holder.get(slot) != rid:
                problems.append(f"robot {rid} works strip {slot} held by {t.holder.get(slot)}")
    return problems


def counter_problems(sim: Simulation) -> list[str]:
    """Live robots whose kept region count differs from a fresh count of
    their region in their belief."""
    problems = []
    for rid, r in sim.robots.items():
        if r.des is DesState.FL:
            continue
        fresh = sum(1 for c in r.region if r.belief.state(c) is CellState.UNEXPLORED)
        if r.region_unexplored() != fresh:
            problems.append(f"robot {rid} counts {r.region_unexplored()} unexplored region cells, not {fresh}")
    return problems


def sensor_problems(sim: Simulation) -> list[str]:
    """Truth obstacles the sensor no longer reads that a reading could still
    change: each must be outside `since_sync`, not UNEXPLORED on the team
    map, and in that same state in every live belief."""
    grid = sim.grid
    dropped = sorted(sim.truth.obstacles - sim._sensor.held)
    flat = [grid.idx(c) for c in dropped]
    team = [grid.cells[i] for i in flat]
    problems = [f"dropped {c} was written since the last sync" for c, i in zip(dropped, flat) if i in grid.since_sync]
    problems += [f"dropped {c} is unexplored" for c, state in zip(dropped, team) if state is CellState.UNEXPLORED]
    for rid, r in sim.robots.items():
        if r.des is not DesState.FL and [r.belief.at(i) for i in flat] != team:
            problems.append(f"robot {rid}'s belief differs from the team map on a dropped cell")
    return problems


def state_count_problems(sim: Simulation) -> list[str]:
    """DES-state counts kept by `_fire` that differ from a recount of the team."""
    problems = []
    for kept, state in (("_n_failed", DesState.FL), ("_n_sp", DesState.SP), ("_n_idle", DesState.ID)):
        recount = sum(1 for r in sim.team if r.des is state)
        if getattr(sim, kept) != recount:
            problems.append(f"{kept} is {getattr(sim, kept)}, but {recount} robots are in {state.value}")
    return problems


def target_problems(sim: Simulation) -> list[str]:
    """Breaches of "a target is found exactly when its cell is EXPLORED on
    the team map": the placed targets on EXPLORED cells, counted with
    repeats, against the run's found count and the tasks' found counts."""
    grid = sim.grid
    on_explored = sum(1 for cell in grid.targets if grid.state(cell) is CellState.EXPLORED)
    by_tasks = sum(task.found for task in grid.tasks.values())
    if on_explored == sim.found_total == by_tasks:
        return []
    return [f"{on_explored} targets on EXPLORED cells, {sim.found_total} found, {by_tasks} found by the tasks"]


def belief_problems(sim: Simulation) -> list[str]:
    """Live robots whose belief differs from the team map."""
    return [
        f"robot {rid}'s belief differs from the team map"
        for rid, r in sim.robots.items()
        if r.des is not DesState.FL and r.belief.cells != sim.grid.cells
    ]


class RowCheckedSimulation(Simulation):
    """Also builds the trajectory rows as the engine logged them before it
    logged moves, one per live robot per tick, and checks at the end of the
    run that iterating the move log yields exactly those rows."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rows = []

    def _log_trajectories(self):
        super()._log_trajectories()
        eps = self.grid.epsilon
        for r in self.team:
            if r.des is not DesState.FL:
                x, y = r.cell
                self.rows.append((self.tick, r.id, (x + 0.5) * eps, (y + 0.5) * eps, x, y, r.mode))

    def run(self):
        result = super().run()
        assert list(self.logs.trajectories) == self.rows
        return result


class CheckedSimulation(RowCheckedSimulation):
    """Checks the trajectory log (see `RowCheckedSimulation`), that every
    live belief equals the team map after every sync, and the region
    counters, the DES-state counts, the sensor's dropped cells and the
    table after every tick (`_end_reason` is each tick's last step). On
    every travel step it checks that a path whose re-check is
    skipped holds no blocked cell, and counts in `travel_gate` the skipped
    re-checks, the run ones and the run ones that found the path blocked.
    Also checks after every tick that the placed targets on cells the team
    map holds EXPLORED are the found ones (`target_problems`). Keeps the
    run's result in `result`."""

    check_table = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
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

    def _end_reason(self):
        problems = counter_problems(self) + state_count_problems(self) + sensor_problems(self) + target_problems(self)
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
# seed 1 under localization noise (`noise_sigma_m` 1.5), which no benchmark
# workload has; recorded before covering skipped the noise model without noise
NOISY_DIGESTS = {
    "scenario1/CARE": "e36239ac7ca254ee0a5692f79c06275ee679ed12a853f335dd03f3f992c44bae",
    "scenario2/FR": "9189a9cdeff5f2885ed6a3333535bf96f0039b741544c1153c76e0abb64bbc9d",
}


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


class Unreadable:
    """Stands in for a failed robot's belief: every attribute read raises."""

    def __getattribute__(self, name):
        raise AssertionError(f"a failed robot's belief was read: .{name}")


class BlindToTheFailed(Simulation):
    """A run that puts an `Unreadable` in place of each failed robot's belief
    as soon as the robot fails, so any later read of it raises."""

    def _apply_scheduled_failures(self):
        super()._apply_scheduled_failures()
        for r in self.team:
            if r.des is DesState.FL:
                r.belief = Unreadable()


class TestFailedBeliefs:
    # (workload, seed, run); crowd seed 3 also reactivates a standby
    RUNS = (
        ("paper", 1, "scenario2/CARE"),
        ("paper", 1, "scenario3/CARE"),
        ("crowd", 1, "crowd/CARE"),
        ("crowd", 3, "crowd/CARE"),
        ("open-field", 1, "open-field/CARE"),
    )

    @pytest.mark.parametrize(("workload", "seed", "run"), RUNS, ids=lambda v: str(v).replace("/", "-"))
    def test_no_code_reads_a_failed_robots_belief(self, digest, workload, seed, run):
        if workload == "paper":
            scenario, strategy = run.split("/")
            doc = {**json.loads((SCENARIOS / f"{scenario}.json").read_text()), "seed": seed, "strategy": strategy}
        else:
            ((name, doc),) = getattr(perfbench("workloads"), workload.replace("-", "_"))(seed)
            assert name == run
        sim = BlindToTheFailed(parse_scenario(doc))
        result = sim.run()
        assert isinstance(next(r for r in sim.team if r.des is DesState.FL).belief, Unreadable)
        assert digest(result) == committed_digests(workload, seed)[run]


class TestRuns:
    @pytest.mark.parametrize("name", RUNS)
    def test_digest_matches_benchmark(self, runs, digest, name):
        assert digest(runs[name].result) == committed_digests("paper")[name]

    @pytest.mark.parametrize("seed", CROWD_SEEDS)
    def test_crowd_digest_matches_benchmark(self, crowd, digest, seed):
        assert digest(crowd[seed].result) == committed_digests("crowd", seed)["crowd/CARE"]
        assert crowd[seed].result.metrics.end_reason == "complete"

    def test_open_field_digest_matches_benchmark(self, digest):
        # the benchmark's largest travel searches: 80x80, 32 robots
        ((name, doc),) = perfbench("workloads").open_field(1)
        sim = CheckedSimulation(parse_scenario(doc))
        sim.run()
        assert digest(sim.result) == committed_digests("open-field")[name]
        assert sim.result.metrics.end_reason == "complete"

    def test_crowd_runs_fail_over_and_reactivate(self, crowd):
        assert all(len(sim.logs.detector) == 10 for sim in crowd.values())
        assert all(sim.result.metrics.games_resilience > 0 for sim in crowd.values())
        reactivations = [e for e in crowd[3].logs.events if e.payload[:1] == ("reactivate",)]
        assert reactivations

    @pytest.mark.parametrize("name", RUNS)
    def test_run_completes(self, runs, name):
        assert runs[name].logs.liveness_ok
        assert runs[name].result.metrics.end_reason == "complete"

    def test_the_found_targets_are_the_targets_on_explored_cells(self, runs, crowd):
        # `CheckedSimulation` checks it after every tick; these runs find targets
        sims = [*runs.values(), *crowd.values()]
        assert all(sim.found_total > 0 and not target_problems(sim) for sim in sims)

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

    @pytest.mark.parametrize("name", sorted(NOISY_DIGESTS))
    def test_noisy_runs_keep_their_digests(self, digest, name):
        scenario, strategy = name.split("/")
        doc = json.loads((SCENARIOS / f"{scenario}.json").read_text())
        doc.update(seed=1, strategy=strategy, params={**doc.get("params", {}), "noise_sigma_m": 1.5})
        sim = CheckedSimulation(parse_scenario(doc))
        sim.run()
        assert digest(sim.result) == NOISY_DIGESTS[name]
        assert sim.result.metrics.end_reason == "complete"

    def test_finished_simulation_is_freed_without_the_cyclic_collector(self):
        # robot 1 fails, so its belief is dropped from the beliefs too
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


def strip_world(widths: list[int], lam: list[float], robots: list[tuple[int, int]], **params) -> dict:
    """Tasks of the given widths side by side in one row of height 2, each
    with its target mean; robot i + 1 starts at cell robots[i]."""
    tasks, x = [], 0
    for w in widths:
        tasks.append({"x": x, "y": 0, "w": w, "h": 2})
        x += w
    return {
        "world": {"width": x, "height": 2, "tasks": tasks, "targets": {"mode": "sampled", "lambda": lam}},
        "robots": [{"id": i, "start": list(cell)} for i, cell in enumerate(robots, start=1)],
        "params": params,
        "strategy": "FR",
    }


class GameRecordingSimulation(CheckedSimulation):
    """Keeps every game `_apply_game` settles, in `instances`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.instances = []

    def _apply_game(self, game, *args):
        self.instances.append(game)
        super()._apply_game(game, *args)


def first_responder(doc: dict) -> GameRecordingSimulation:
    sim = GameRecordingSimulation(parse_scenario(doc))
    sim.run()
    assert sim.result.metrics.end_reason == "complete"
    return sim


class TestFirstResponder:
    # robot 1 finishes its 2-cell task first and responds alone

    def test_takes_the_task_that_pays_it_most(self):
        # task 3 is farther than task 2 but holds five times the targets
        sim = first_responder(strip_world([1, 2, 2], [0.0, 1.0, 5.0], [(0, 0)]))
        game, record = sim.instances[0], sim.logs.games[0]
        pay = {r: game.worth[r] * game.prob[1][r] for r in game.actions}
        assert game.actions == (2, 3) and pay[3] > pay[2]
        assert record.players == (1,) and record.final == (3,)
        assert record.assigned == {1: 3} and record.standby == ()

    def test_ties_go_to_the_lowest_task_id(self):
        # tasks 1 and 3 mirror each other around robot 1's task 2
        sim = first_responder(strip_world([1, 1, 1], [1.0, 1.0, 1.0], [(1, 0)]))
        game, record = sim.instances[0], sim.logs.games[0]
        assert game.actions == (1, 3)
        assert game.worth[1] * game.prob[1][1] == game.worth[3] * game.prob[1][3]
        assert record.final == (1,)

    def test_logs_a_one_player_game_from_no_task(self):
        doc = strip_world([1, 2, 2], [0.0, 1.0, 5.0], [(0, 0)])
        # a battery this worn puts p under 1/2, where w * p and the
        # potential's w * (1 - (1 - p)) round apart
        doc["robots"][0]["rho1"] = 5.0
        sim = first_responder(doc)
        game, record = sim.instances[0], sim.logs.games[0]
        (best,) = record.final
        w, p = game.worth[best], game.prob[1][best]
        assert record.kind == "noidle" and record.trigger == 1
        assert game.initial == record.initial == (None,)
        assert record.phi_init == 0.0 and record.solve_wall_s == 0.0
        # w * p as the idler earns it, not the potential's w * (1 - (1 - p))
        assert record.phi_star == w * p != w * (1 - (1 - p))
        assert record.team_phi_star == record.team_phi_init + record.phi_star

    def test_idler_without_a_strip_waits_on_standby_idle(self):
        # task 2 is one strip (n_max 1), held by robot 2 with 70 cells,
        # 219 s, left: past gamma, so it stays on the menu
        sim = first_responder(strip_world([1, 35], [0.0, 2.0], [(0, 0), (1, 0)], n_max=1))
        record = sim.logs.games[0]
        assert record.final == (2,) and record.assigned == {1: None} and record.standby == (1,)
        events = [(e.event, e.after) for e in sim.logs.events if e.robot == 1 and e.tick == record.tick]
        assert events == [("e2", DesState.NG), ("e4", DesState.ID)]


class TestEmptyMenu:
    @pytest.mark.parametrize("strategy", ["CARE", "FR"])
    def test_an_idler_facing_an_empty_menu_goes_idle_without_a_team_model(self, monkeypatch, strategy):
        # robot 1 finishes its 2-cell task while robot 2 still holds its
        # 6 cells, 19 s of work, under gamma: nothing is contested
        from gridcover import engine

        built = []

        def counted_build(snap):
            built.append(snap)
            return real_build(snap)

        real_build = engine.build_team_model
        monkeypatch.setattr(engine, "build_team_model", counted_build)
        doc = strip_world([1, 3], [0.0, 1.0], [(0, 0), (1, 0)])
        doc["strategy"] = strategy
        sim = CheckedSimulation(parse_scenario(doc))
        sim.run()
        assert sim.result.metrics.end_reason == "complete"
        assert built == [] and sim.logs.games == []
        idles = [(e.event, e.after) for e in sim.logs.events if e.robot == 1 and e.event in ("e2", "e4")]
        assert idles == [("e2", DesState.NG), ("e4", DesState.ID)]
        first_idle = next(e.tick for e in sim.logs.events if e.robot == 1 and e.event == "e4")
        assert first_idle < next(e.tick for e in sim.logs.events if e.robot == 2 and e.event == "e2")


class TestTaskWorth:
    def test_worth_follows_the_found_targets_after_every_cover(self, monkeypatch):
        from gridcover import engine

        grid = None
        checks = changed = 0

        def checked_cover(g, cell):
            nonlocal grid, checks, changed
            grid = g
            task = g.tasks[g.task_of[g.idx(cell)]]
            before = task.worth
            out = real_cover(g, cell)
            changed += task.worth != before
            for t in g.tasks.values():
                assert t.worth == remaining_worth(t.lam, t.found), f"task {t.id} after covering {cell}"
            checks += 1
            return out

        real_cover = engine.mark_covered
        monkeypatch.setattr(engine, "mark_covered", checked_cover)
        doc = json.loads((SCENARIOS / "scenario2.json").read_text())
        doc["seed"] = 1
        sim = Simulation(parse_scenario(doc))
        sim.run()
        assert checks > 1000
        assert changed == len({c for c in grid.targets if grid.state(c) is CellState.EXPLORED}) > 0


class TestTravelMask:
    # the noisy runs are the two `test_noisy_runs_keep_their_digests` pins;
    # only in the dotted-wall run, which syncs every 5 s, do robots plan
    # after a blocked write of their own since the sync
    RUNS = ("scenario2/CARE", "crowd/CARE", *(f"noisy {n}" for n in sorted(NOISY_DIGESTS)), "dotted wall")

    @staticmethod
    def doc(name: str) -> dict:
        if name == "dotted wall":
            return {**DOTTED_WALL, "params": {"sync_every_s": 5}}
        if name == "crowd/CARE":
            ((_name, doc),) = perfbench("workloads").crowd(1)
            return doc
        noisy, _, run = name.rpartition(" ")
        scenario, strategy = run.split("/")
        doc = json.loads((SCENARIOS / f"{scenario}.json").read_text())
        doc.update(seed=1, strategy=strategy)
        if noisy:
            doc["params"] = {**doc.get("params", {}), "noise_sigma_m": 1.5}
        return doc

    @pytest.mark.parametrize("name", RUNS)
    def test_every_plan_reads_the_mask_built_from_its_belief(self, monkeypatch, name):
        from gridcover import engine

        shared = []

        def checked_plan(view, start, goals):
            shared.append(view.own_blocked == view.own_blocked_at_sync)
            assert view.free_mask() == free_cells(view.state_bytes()), f"robot {view.rid}"
            return real_plan(view, start, goals)

        real_plan = engine.plan_travel_to_any
        monkeypatch.setattr(engine, "plan_travel_to_any", checked_plan)
        assert Simulation(parse_scenario(self.doc(name))).run().metrics.end_reason == "complete"
        assert any(shared)
        assert all(shared) == (name != "dotted wall")


# Robot 1 starts on (3, 2), a buffer cell of the obstacle at (3, 1). The
# parser takes it, since only obstacle cells are refused there.
BESIDE_AN_OBSTACLE = {
    "world": {
        "width": 4,
        "height": 3,
        "tasks": [{"x": 0, "y": 0, "w": 2, "h": 3}, {"x": 2, "y": 0, "w": 2, "h": 3}],
        "obstacles": [[3, 1]],
        "targets": {"mode": "sampled", "lambda": 0.0},
    },
    "robots": [{"id": 1, "start": [3, 2]}],
    "seed": 0,
}


class TestStartCells:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_start_beside_an_obstacle_is_refused(self, strategy):
        # CARE and FR used to plan travel from the blocked start and raise a
        # bare ValueError
        config = parse_scenario({**BESIDE_AN_OBSTACLE, "strategy": strategy})
        with pytest.raises(ScenarioError, match=r"^robot 1: start cell \[3, 2\] is next to an obstacle$"):
            Simulation(config)


# 2.75 m of travel a tick on 1 m cells. At tick 7 robot 2 travels west from
# (3, 5) on the path (2, 5), (1, 5), (1, 4), ...; its reading at (2, 5) sees
# the obstacle at (0, 5) and makes (1, 5) FORBIDDEN. Travel used to step on
# into (1, 5), and the next plan raised "ValueError: travel start (1, 5) is
# a blocked cell".
FAST_TRAVEL = {
    "world": {
        "width": 5,
        "height": 6,
        "tasks": [
            {"x": 0, "y": 0, "w": 2, "h": 3},
            {"x": 2, "y": 0, "w": 3, "h": 3},
            {"x": 0, "y": 3, "w": 2, "h": 3},
            {"x": 2, "y": 3, "w": 3, "h": 3},
        ],
        "obstacles": [[0, 5]],
        "targets": {"mode": "sampled", "lambda": 0.0},
    },
    "robots": [{"id": 1, "start": [4, 4]}, {"id": 2, "start": [4, 3]}],
    "params": {"sense_radius_m": 2.24, "tick_s": 2.5, "u": 1.1},
    "strategy": "CARE",
    "seed": 77,
}


class OnFreeCells(Simulation):
    """Checks after each travel step that no travelling robot stands on a
    cell its belief holds blocked."""

    def _advance_travel(self, r):
        super()._advance_travel(r)
        assert r.belief.state(r.cell) < _BLOCKED, f"tick {self.tick}: robot {r.id} on {r.cell}"


class TestFastTravel:
    def test_a_travelling_robot_stops_where_a_reading_blocks_its_path(self):
        result = OnFreeCells(parse_scenario(FAST_TRAVEL)).run()
        assert result.metrics.end_reason == "complete"


@st.composite
def small_worlds(draw):
    """A scenario of at most 10x10 cells: random obstacles, a tiling of
    tasks, starts off the obstacles (some beside them), failures, strategy,
    n_max, sync period and sensing radius (2.0 m is refused by the parser)."""
    # a seeded random.Random, as in tests/test_planner.py's travel_cases
    rng = draw(st.randoms(use_true_random=True))
    width, height = rng.randint(2, 10), rng.randint(2, 10)
    tasks = []
    cols = sorted(rng.sample(range(1, width), rng.randint(0, min(2, width - 1))))
    for x0, x1 in zip([0, *cols], [*cols, width]):
        rows = sorted(rng.sample(range(1, height), rng.randint(0, min(2, height - 1))))
        tasks += [{"x": x0, "y": y0, "w": x1 - x0, "h": y1 - y0} for y0, y1 in zip([0, *rows], [*rows, height])]
    cells = [(x, y) for x in range(width) for y in range(height)]
    density = rng.choice((0.0, 0.05, 0.15))
    obstacles = {c for c in cells if rng.random() < density}
    if len(obstacles) == len(cells):
        obstacles = set()
    starts = [c for c in cells if c not in obstacles]
    n = rng.randint(1, 5)
    return {
        "world": {
            "width": width,
            "height": height,
            "tasks": tasks,
            "obstacles": [list(c) for c in sorted(obstacles)],
            "targets": {"mode": "sampled", "lambda": rng.choice((0.0, 1.0, 3.0))},
        },
        "robots": [{"id": i, "start": list(rng.choice(starts))} for i in range(1, n + 1)],
        "failures": [{"robot": i, "time_s": rng.uniform(0.0, 60.0)} for i in range(1, n + 1) if rng.random() < 0.3],
        "params": {
            "n_max": rng.randint(1, 4),
            "sync_every_s": rng.choice((1.0, 2.0, 3.0)),
            "sense_radius_m": rng.choice((2.0, 2.24, 5.0)),
        },
        "strategy": rng.choice(STRATEGIES),
        "seed": rng.randrange(1000),
    }


class UnsettledSimulation(Simulation):
    """A run whose sensor is never settled, so it reads every truth obstacle
    in range, as the sensor did before it dropped any."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._sensor.settle = lambda written: None


def run_record(simulation: type[Simulation], config) -> tuple:
    """What a run records: the error it raised, if any, then its logs with
    each game's host solve time left out, and its metrics."""
    sim = metrics = error = None
    try:
        sim = simulation(config)
        metrics = sim.run().metrics
    except (ScenarioError, LivenessError) as exc:
        error = (type(exc), str(exc))
    if sim is None:
        return (error,)
    games = [dataclasses.replace(g, solve_wall_s=0.0) for g in sim.logs.games]
    return error, dataclasses.replace(sim.logs, games=games), metrics


class TestSmallWorlds:
    @settings(max_examples=200, deadline=None)
    @given(small_worlds())
    def test_a_run_ends_or_raises_a_scenario_or_liveness_error(self, doc):
        # liveness itself is not asserted: the sensing defect of ROADMAP R1
        # still stalls some valid worlds
        try:
            sim = RowCheckedSimulation(parse_scenario(doc))
            result = sim.run()
        except (ScenarioError, LivenessError):
            return
        if result.metrics.end_reason == "complete":
            assert result.metrics.cr == 1.0
            assert sim.grid.unexplored_total == 0

    @settings(max_examples=200, deadline=None)
    @given(small_worlds())
    def test_the_sensor_reads_like_one_never_settled(self, doc):
        # dropping what every live belief holds only skips readings that
        # change nothing
        try:
            config = parse_scenario(doc)
        except ScenarioError:
            assume(False)
        assert run_record(Simulation, config) == run_record(UnsettledSimulation, config)


class SetVisitedSimulation(Simulation):
    """A run that also keeps the cells its robots stood on as a set, the
    record CR was once computed from."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.visited_cells = set()

    def _cover_attempt(self, r, true_cell):
        self.visited_cells.add(true_cell)
        super()._cover_attempt(r, true_cell)


class TestCoverageRatio:
    @settings(max_examples=100, deadline=None)
    @given(small_worlds(), st.sampled_from((0.0, 0.3, 1.5)))
    def test_flag_cr_is_the_set_cr(self, doc, sigma):
        # under noise the marked cell moves, never the one CR counts
        doc["params"]["noise_sigma_m"] = sigma
        try:
            sim = SetVisitedSimulation(parse_scenario(doc))
            cr = sim.run().metrics.cr
        except (ScenarioError, LivenessError):
            assume(False)
        w = sim.grid.width
        free = {(i % w, i // w) for i, flag in enumerate(sim.truth.free_flags) if flag}
        assert cr == (len(sim.visited_cells & free) / len(free) if free else 1.0)


class ParentStep(Simulation):
    """The robot step as it was before `_advance` decided each tick, kept
    verbatim as the reference: it reads `params` on every step and logs a
    covered cell through `ChangeLog.add`. Its travel also stops where a
    reading moves the belief's blocked count, as the engine's does."""

    def _advance(self, r: Robot) -> None:
        if r.mode == "traveling":
            self._advance_travel(r)
        elif r.mode == "tasking":
            self._advance_tasking(r)
        if r.mode in ("traveling", "tasking"):
            r.last_active = self.tick

    def _advance_travel(self, r: Robot) -> None:
        if r.region_unexplored() == 0:
            self._workload_complete(r)
            return
        if r.path_checked_at != r.belief.n_blocked:
            r.path_checked_at = r.belief.n_blocked
            if any(r.belief.state(c) >= _BLOCKED for c in r.path):
                self._dispatch(r)
                if r.mode != "traveling":
                    return
        r.travel_m += self.params.u * self.params.tick_s
        eps = self.grid.epsilon
        while r.path and r.travel_m >= eps - 1e-9:
            r.travel_m -= eps
            r.cell = r.path.pop(0)
            if self._sense(r, r.cell) and r.path_checked_at != r.belief.n_blocked:
                break
        if not r.path:
            r.mode = "tasking"
            r.work_s = 0.0
            r.travel_m = 0.0
            r.planner = make_planner(r.region, r.cell)

    def _advance_tasking(self, r: Robot) -> None:
        belief = r.belief
        if belief.watched_unexplored == 0:
            self._workload_complete(r)
            return
        r.t_k += self.params.tick_s
        r.work_s += self.params.tick_s
        per_cell = 1.0 / self.params.omega
        while r.work_s >= per_cell - 1e-9:
            if belief.watched_unexplored == 0:
                self._workload_complete(r)
                return
            wp = next_waypoint(belief, r.planner, r.cell)
            if isinstance(wp, Done):
                if wp.unreachable:
                    self._resolve_pocket(r, set(wp.unreachable))
                    continue
                self._workload_complete(r)
                return
            r.work_s -= per_cell
            r.cell = wp
            # A waypoint that leaves no detour pending (the pose, the sweep
            # cell or a detour's goal) is a region cell next_waypoint has
            # just read UNEXPLORED; only a reading can have written it since.
            read = self._sense(r, wp)
            if not (read or r.planner.pending) or (wp in belief.watched and belief.state(wp) is _UNEXPLORED):
                self._cover_attempt(r, wp)

    def _cover_attempt(self, r: Robot, true_cell: Cell) -> None:
        grid, sigma = self.grid, self.params.noise_sigma_m
        i = true_cell[1] * grid.width + true_cell[0]
        self.visited[i] = 1
        # without noise the measured cell is the true one, and nothing is drawn
        mcell = true_cell
        if sigma > 0.0:
            noisy = apply_localization_noise(grid.cell_center(true_cell), sigma, self.rng_noise)
            mcell = grid.cell_of_position(*noisy)
            if not grid.in_bounds(mcell):
                return
            i = mcell[1] * grid.width + mcell[0]
        if grid.cells[i] >= _BLOCKED:
            return
        change, found = mark_covered(grid, mcell)
        if change is not None:
            self.logs.changes.add(self.tick, r.id, (change,))
        if found:
            self.found_total += found
            self.logs.discoveries.append((self.tick, self.found_total))
        r.belief.explore(mcell, i)


class TestStepParameters:
    # no committed digest runs other than the default tick, speeds and noise
    @settings(max_examples=100, deadline=None)
    @given(
        small_worlds(),
        st.sampled_from((0.3, 0.5, 1.0, 2.5)),
        st.sampled_from((0.25, 0.4, 1.1)),
        st.sampled_from((0.17, 0.32, 0.9)),
        st.sampled_from((0.0, 0.3)),
    )
    def test_the_step_runs_as_the_parent_step(self, doc, tick_s, u, omega, sigma):
        doc["params"].update(tick_s=tick_s, u=u, omega=omega, noise_sigma_m=sigma)
        try:
            config = parse_scenario(doc)
        except ScenarioError:
            assume(False)
        assert run_record(Simulation, config) == run_record(ParentStep, config)


class TestChangeLog:
    ROWS = [
        (3, 1, Change((2, 0), CellState.UNEXPLORED, CellState.OBSTACLE)),
        (3, 1, Change((1, 0), CellState.UNEXPLORED, CellState.FORBIDDEN)),
        (4, 2, Change((5, 7), CellState.UNEXPLORED, CellState.EXPLORED)),
    ]

    def logged(self, rows):
        log = ChangeLog()
        for tick, robot, change in rows:
            log.add(tick, robot, [change])
        return log

    def test_len_counts_changes(self):
        assert len(ChangeLog()) == 0
        log = ChangeLog()
        log.add(3, 1, [change for _tick, _robot, change in self.ROWS[:2]])
        assert len(log) == 2
        assert len(self.logged(self.ROWS)) == 3

    def test_equal_by_content(self):
        assert self.logged(self.ROWS) == self.logged(self.ROWS)
        assert self.logged(self.ROWS) != self.logged(self.ROWS[:2])
        assert self.logged(self.ROWS) != self.logged(self.ROWS[::-1])
        moved = [(tick + 1, robot, change) for tick, robot, change in self.ROWS]
        assert self.logged(self.ROWS) != self.logged(moved)

    def test_rows_come_back_as_logged(self):
        rows = list(self.logged(self.ROWS))
        assert rows == self.ROWS
        for _tick, _robot, change in rows:
            assert type(change) is Change
            assert type(change.old) is CellState and type(change.new) is CellState
        assert list(self.logged(self.ROWS).rows()) == [(3, 1, 2, 0, 3), (3, 1, 1, 0, 2), (4, 2, 5, 7, 1)]

    def test_the_log_holds_plain_ints(self):
        flat = self.logged(self.ROWS).flat
        assert len(flat) == 15 and all(type(v) is int for v in flat)


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

    def test_first_responder_builds_models_but_never_runs_max_logit(self, digest):
        tracing = perfbench("tracing")
        tracer = tracing.Tracer()
        simulation, parse, _write, restore = tracing.instrument(tracer)
        doc = json.loads((SCENARIOS / "scenario2.json").read_text())
        doc["seed"] = 1
        doc["strategy"] = "FR"
        try:
            result = simulation(parse(doc)).run()
        finally:
            restore()

        times = tracer.layer_times()
        assert result.logs.games
        assert times["supervisor.team_model"][0] > 0
        assert times.get("game.max_logit", (0,))[0] == 0
        assert digest(result) == committed_digests("paper")["scenario2/FR"]

    def test_the_sensing_layer_is_traced_and_senses_rarely(self, digest):
        # the sensor drops what every live belief holds, so most `_sense`
        # calls read nothing and never reach `mark_sensed`
        tracing = perfbench("tracing")
        tracer = tracing.Tracer()
        simulation, parse, _write, restore = tracing.instrument(tracer)
        doc = json.loads((SCENARIOS / "scenario1.json").read_text())
        doc["seed"] = 1
        doc["strategy"] = "CARE"
        try:
            result = simulation(parse(doc)).run()
        finally:
            restore()

        times = tracer.layer_times()
        senses, marks = times["engine.sense"][0], times["world.mark_sensed"][0]
        assert 0 < marks < senses
        assert digest(result) == committed_digests("paper")["scenario1/CARE"]
