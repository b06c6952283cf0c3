"""Supervisor automaton, failure confirmation, game construction, strips."""

import random

import pytest

from gridcover.models import BatteryParams
from gridcover.scenario import Params
from gridcover.supervisor import (
    DesState,
    RobotView,
    TeamSnapshot,
    build_noidling_game,
    build_resilience_game,
    build_team_model,
    detect_failures,
    noidling_action_menu,
    post_game_assign,
    step,
)
from gridcover.world import mark_covered, partition_subregions
from tests.test_world import make_world

BAT = BatteryParams(rho0=3.0e-3, rho1=1400.0)


class TestStateMachine:
    def test_start_to_working(self):
        assert step(DesState.ST, "e0") is DesState.WK

    def test_full_arrow_set(self):
        arrows = {
            (DesState.ST, "e0"): DesState.WK,
            (DesState.WK, "e1"): DesState.RG,
            (DesState.WK, "e2"): DesState.NG,
            (DesState.WK, "e5"): DesState.NG,
            (DesState.NG, "e3"): DesState.WK,
            (DesState.NG, "e4"): DesState.ID,
            (DesState.RG, "e3"): DesState.WK,
            (DesState.RG, "e4"): DesState.ID,
            (DesState.ID, "e1"): DesState.RG,
            (DesState.ID, "e5"): DesState.NG,
            (DesState.ID, "e6"): DesState.SP,
        }
        for state in (DesState.ST, DesState.WK, DesState.NG, DesState.RG, DesState.ID):
            arrows[(state, "e7")] = DesState.FL
        for event in ("e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7"):
            for state in DesState:
                if (state, event) in arrows:
                    assert step(state, event) is arrows[(state, event)]
                else:
                    with pytest.raises(ValueError):
                        step(state, event)

    def test_terminal_states_absorb(self):
        for event in ("e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7"):
            with pytest.raises(ValueError):
                step(DesState.SP, event)
            with pytest.raises(ValueError):
                step(DesState.FL, event)

    def test_idle_sequence(self):
        state = step(DesState.WK, "e2")
        assert state is DesState.NG
        assert step(state, "e4") is DesState.ID

    def test_unknown_event(self):
        with pytest.raises(ValueError):
            step(DesState.WK, "e9")


class TestHeartbeatDetection:
    def positions(self, n):
        return {v: (float(v), 0.0) for v in range(1, n + 1)}

    def test_silent_robot_confirmed_by_all(self):
        # robot 4 silent past the timeout; 3 nearest of 3 live all suspect
        votes = {l: {4: True} for l in (1, 2, 3)}
        got = detect_failures([4], [1, 2, 3], votes, self.positions(4), 3, set())
        assert got == {4}

    def test_minority_suspicion_not_confirmed(self):
        votes = {1: {4: True}, 2: {4: False}, 3: {4: False}}
        got = detect_failures([4], [1, 2, 3], votes, self.positions(4), 3, set())
        assert got == set()

    def test_strict_majority_required(self):
        # 2 of 4 listeners is not a strict majority
        votes = {1: {5: True}, 2: {5: True}, 3: {5: False}, 4: {5: False}}
        got = detect_failures([5], [1, 2, 3, 4], votes, self.positions(5), 4, set())
        assert got == set()
        votes[3] = {5: True}
        got = detect_failures([5], [1, 2, 3, 4], votes, self.positions(5), 4, set())
        assert got == {5}

    def test_only_nearest_kappa2_vote(self):
        # distant listeners suspect, but the 3 nearest do not
        positions = {1: (1.0, 0.0), 2: (2.0, 0.0), 3: (3.0, 0.0), 4: (50.0, 0.0), 5: (60.0, 0.0), 6: (0.0, 0.0)}
        votes = {1: {6: False}, 2: {6: False}, 3: {6: False}, 4: {6: True}, 5: {6: True}}
        got = detect_failures([6], [1, 2, 3, 4, 5], votes, positions, 3, set())
        assert got == set()

    def test_confirmed_is_sticky(self):
        votes = {1: {4: False}, 2: {4: False}, 3: {4: False}}
        got = detect_failures([4], [1, 2, 3], votes, self.positions(4), 3, {4})
        assert got == set()  # not re-reported, caller keeps it confirmed

    def test_single_survivor_confirms_alone(self):
        votes = {1: {2: True}}
        got = detect_failures([2], [1], votes, self.positions(2), 3, set())
        assert got == {2}


def snapshot_for_games():
    """Two tasks of 10x10 (312 s each, past gamma); robots 1, 2 working, 3 idle."""
    tasks = [{"x": 0, "y": 0, "w": 10, "h": 10}, {"x": 10, "y": 0, "w": 10, "h": 10}]
    grid = make_world(
        width=20,
        height=10,
        tasks=tasks,
        targets={"mode": "explicit", "cells": [[1, 1], [2, 2], [17, 7]]},
    )
    params = Params()
    views = {
        1: RobotView(1, (1.5, 1.5), 1, 100, "tasking", DesState.WK, BAT, 100.0),
        2: RobotView(2, (15.5, 7.5), 2, 100, "tasking", DesState.WK, BAT, 120.0),
        3: RobotView(3, (9.5, 5.0), None, 0, "idle", DesState.ID, BAT, 300.0),
    }
    return TeamSnapshot(grid=grid, params=params, robots=views)


class TestTeamModel:
    def test_remaining_time_formula(self):
        snap = snapshot_for_games()
        model = build_team_model(snap)
        assert model.t_c[1] == pytest.approx(100 / 0.32)
        mark_covered(snap.grid, (0, 0))
        model = build_team_model(snap)
        assert model.t_c[1] == pytest.approx(99 / 0.32)

    def test_pending_only_when_small_and_positive(self):
        snap = snapshot_for_games()
        views = dict(snap.robots)
        views[1] = RobotView(1, (1.5, 1.5), 1, 9, "tasking", DesState.WK, BAT, 100.0)
        model = build_team_model(TeamSnapshot(snap.grid, snap.params, views))
        assert model.pending_s[1] == pytest.approx(9 / 0.32)  # 28.1 s <= eta
        assert model.pending_s[2] == 0.0  # 50 cells is way past eta
        assert model.pending_s[3] == 0.0  # idle has no task

    def test_extra_time_applies_to_other_tasks_only(self):
        snap = snapshot_for_games()
        views = dict(snap.robots)
        views[1] = RobotView(1, (1.5, 1.5), 1, 9, "tasking", DesState.WK, BAT, 100.0)
        model = build_team_model(TeamSnapshot(snap.grid, snap.params, views))
        base = build_team_model(snap)
        assert model.prob[1][1] == base.prob[1][1]  # own task: no extra
        assert model.prob[1][2] < base.prob[1][2]  # other task pays the remainder


class TestNoidlingGame:
    def test_menu_gamma_filter_and_orphans(self):
        snap = snapshot_for_games()
        model = build_team_model(snap)
        # both tasks have 100 cells -> 312 s > gamma: both contested
        assert noidling_action_menu(model, snap.params.gamma) == [1, 2]
        # shrink task 1 below gamma while robot 1 still holds it: excluded
        for cell in list(snap.grid.tasks[1].cells)[:45]:
            mark_covered(snap.grid, cell)
        model = build_team_model(snap)
        assert model.t_c[1] < snap.params.gamma
        assert noidling_action_menu(model, snap.params.gamma) == [2]
        # orphan the small task: nobody assigned, so it comes back
        views = {2: snap.robots[2], 3: snap.robots[3]}
        model = build_team_model(TeamSnapshot(snap.grid, snap.params, views))
        assert noidling_action_menu(model, snap.params.gamma) == [1, 2]

    def test_near_finish_neighbor_joins(self):
        snap = snapshot_for_games()
        views = dict(snap.robots)
        views[2] = RobotView(2, (15.5, 7.5), 2, 5, "tasking", DesState.WK, BAT, 120.0)
        snap = TeamSnapshot(snap.grid, snap.params, views)
        model = build_team_model(snap)
        game = build_noidling_game(3, snap, model, random.Random(0))
        assert game is not None
        assert set(game.players) == {3, 2}  # idler + near-finishing neighbor
        assert 1 not in game.players  # far from done, keeps working

    def test_all_tasks_done_returns_none(self):
        snap = snapshot_for_games()
        for task in snap.grid.tasks.values():
            for cell in task.cells:
                mark_covered(snap.grid, cell)
        model = build_team_model(snap)
        game = build_noidling_game(3, snap, model, random.Random(0))
        assert game is None

    def test_initial_actions_drawn_from_menu(self):
        snap = snapshot_for_games()
        model = build_team_model(snap)
        game = build_noidling_game(3, snap, model, random.Random(5))
        assert all(a in game.actions for a in game.initial)

    def test_worth_discounted_by_non_players(self):
        snap = snapshot_for_games()
        model = build_team_model(snap)
        game = build_noidling_game(3, snap, model, random.Random(0))
        # robots 1 and 2 are busy (not near finish): they are non-players
        assert set(game.players) == {3}
        assert game.worth[1] == pytest.approx(model.remaining[1] * (1 - model.prob[1][1]))
        assert game.worth[2] == pytest.approx(model.remaining[2] * (1 - model.prob[2][2]))


class TestResilienceGame:
    def test_players_are_nearest_and_menu_has_orphan(self):
        snap = snapshot_for_games()
        model = build_team_model(snap)
        # robot 2 failed while holding task 2
        views = {1: snap.robots[1], 3: snap.robots[3]}
        snap2 = TeamSnapshot(snap.grid, snap.params, views)
        model = build_team_model(snap2)
        game = build_resilience_game(2, (15.5, 7.5), 2, snap2, model)
        assert set(game.players) == {1, 3}
        assert 2 in game.actions  # the orphaned task
        assert 1 in game.actions  # player 1's task has > eta left
        by_player = dict(zip(game.players, game.initial))
        assert by_player == {1: 1, 3: None}  # current tasks; idle player holds nothing
        assert game.players[0] == 3  # players ordered nearest-first

    def test_near_finished_player_task_left_out(self):
        snap = snapshot_for_games()
        for cell in list(snap.grid.tasks[1].cells)[:91]:
            mark_covered(snap.grid, cell)  # 9 cells left: t_c = 28 s <= eta
        views = {1: snap.robots[1], 3: snap.robots[3]}
        snap2 = TeamSnapshot(snap.grid, snap.params, views)
        model = build_team_model(snap2)
        game = build_resilience_game(2, (15.5, 7.5), 2, snap2, model)
        assert game.actions == (2,)  # only the orphan is contested

    def test_no_eligible_players(self):
        snap = snapshot_for_games()
        views = {
            1: RobotView(1, (1.5, 1.5), 1, 50, "idle", DesState.NG, BAT, 100.0),
        }
        snap2 = TeamSnapshot(snap.grid, snap.params, views)
        model = build_team_model(snap2)
        assert build_resilience_game(2, (15.5, 7.5), 2, snap2, model) is None


class TestPostGameAssign:
    def strips_grid(self):
        tasks = [
            {"x": c * 10, "y": r * 25, "w": 10, "h": 25} for r in range(2) for c in range(5)
        ]
        grid = make_world(width=50, height=50, tasks=tasks)
        return grid, partition_subregions(grid, 1, 4)

    def test_existing_keeps_position_strip_incoming_takes_nearest(self):
        grid, strips = self.strips_grid()
        # existing robot sits in strip 0 (top rows)
        assignment, standby = post_game_assign(
            strips,
            grid,
            incoming=[(9, 0.9, (5.0, 48.0))],
            existing=[(1, 0.8, (5.0, 2.0), None)],
        )
        assert assignment[1] == 0
        assert assignment[9] == 3  # nearest free strip to the bottom
        assert standby == []

    def test_lone_incoming_takes_nearest_strip(self):
        grid, strips = self.strips_grid()
        assignment, standby = post_game_assign(strips, grid, [(5, 0.5, (0.0, 0.0))], [])
        assert assignment[5] == 0
        assert standby == []

    def test_rank_by_probability_then_id(self):
        grid, strips = self.strips_grid()
        # only one incomplete strip left: cover strips 1-3 completely
        for s in strips[1:]:
            for cell in s:
                mark_covered(grid, cell)
        assignment, standby = post_game_assign(
            strips,
            grid,
            incoming=[(4, 0.3, (5.0, 2.0)), (2, 0.9, (5.0, 40.0))],
            existing=[],
        )
        assert assignment == {2: 0}  # higher probability wins the slot
        assert standby == [4]

    def test_shared_strip_conflict_lower_id_keeps(self):
        grid, strips = self.strips_grid()
        assignment, _ = post_game_assign(
            strips,
            grid,
            incoming=[],
            existing=[(7, 0.5, (5.0, 1.0), None), (3, 0.5, (5.0, 2.0), None)],
        )
        assert assignment[3] == 0  # lower id keeps the contested strip
        assert assignment[7] != 0

    def test_reservation_holds_strip(self):
        grid, strips = self.strips_grid()
        assignment, _ = post_game_assign(
            strips,
            grid,
            incoming=[(8, 0.99, (5.0, 1.0))],
            existing=[(2, 0.5, (45.0, 45.0), 1)],
        )
        assert assignment[2] == 1
        assert assignment[8] == 0
