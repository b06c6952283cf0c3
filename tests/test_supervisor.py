"""Supervisor automaton, failure confirmation, game construction, strips."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcover import supervisor
from gridcover.game import max_logit, potential, utility
from gridcover.models import BatteryParams, available_worth, success_probability
from gridcover.scenario import Params
from gridcover.supervisor import (
    DesState,
    RobotView,
    TeamSnapshot,
    build_first_responder_game,
    build_noidling_game,
    build_resilience_game,
    build_team_model,
    detect_failures,
    noidling_action_menu,
    post_game_assign,
    step,
    team_phi,
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
    def test_silence_must_exceed_the_timeout(self):
        assert detect_failures({4: 100.0}, 115.0, 15.0) == []
        assert detect_failures({4: 100.0}, 116.0, 15.0) == [4]
        assert detect_failures({4: 100.0}, 115.5, 15.0) == [4]

    def test_confirmed_in_id_order(self):
        silent = {9: 50.0, 2: 80.0, 5: 60.0, 7: 100.0}
        assert detect_failures(silent, 110.0, 15.0) == [2, 5, 9]

    def test_no_failed_robot_confirms_none(self):
        assert detect_failures({}, 1e9, 15.0) == []


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


@st.composite
def team_snapshots(draw):
    """A 1-12 x 6 grid of 1-4 column tasks holding targets, some partly or
    fully covered, and 1-6 live robots, some on a task with a near-finish
    remainder, some committed to a next task."""
    n_tasks = draw(st.integers(1, 4))
    widths = [draw(st.integers(1, 3)) for _ in range(n_tasks)]
    tasks, x = [], 0
    for w in widths:
        tasks.append({"x": x, "y": 0, "w": w, "h": 6})
        x += w
    lam = draw(st.sampled_from((0.0, 1.0, 4.0)))
    grid = make_world(width=x, height=6, tasks=tasks, targets={"mode": "sampled", "lambda": lam})
    for task in grid.tasks.values():
        for cell in task.cells[: draw(st.integers(0, len(task.cells)))]:
            mark_covered(grid, cell)
    views = {}
    for v in draw(st.lists(st.integers(1, 20), min_size=1, max_size=6, unique=True)):
        task = draw(st.one_of(st.none(), st.sampled_from(sorted(grid.tasks))))
        views[v] = RobotView(
            v,
            (draw(st.floats(0.0, 20.0)), draw(st.floats(0.0, 10.0))),
            task,
            draw(st.integers(0, 20)),  # up to 62 s: both sides of eta = 30 s
            "idle" if task is None else "tasking",
            draw(st.sampled_from((DesState.WK, DesState.ID))),
            BatteryParams(rho0=draw(st.floats(1e-4, 1e-2)), rho1=draw(st.floats(100.0, 3000.0))),
            draw(st.floats(0.0, 3000.0)),
            draw(st.one_of(st.none(), st.sampled_from(sorted(grid.tasks)))),
        )
    return TeamSnapshot(grid=grid, params=Params(), robots=views)


def worths(snap):
    return {r: t.worth for r, t in snap.grid.tasks.items()}


class TestRobotView:
    def test_builds_positionally_and_by_keyword(self):
        fields = (1, (1.5, 1.5), 1, 100, "tasking", DesState.WK, BAT, 100.0)
        view = RobotView(*fields)
        assert view == RobotView(
            id=1,
            pos_m=(1.5, 1.5),
            task=1,
            region_unexplored=100,
            mode="tasking",
            des=DesState.WK,
            battery=BAT,
            tasking_time_s=100.0,
        )
        assert view.next_task is None
        assert RobotView(*fields, next_task=2).next_task == RobotView(*fields, 2).next_task == 2

    def test_fields_cannot_be_assigned(self):
        view = snapshot_for_games().robots[1]
        with pytest.raises(AttributeError):
            view.task = 2
        assert view.task == 1


class TestTeamModel:
    def test_remaining_time_formula(self):
        # a resilience player's task stays on the menu only while its
        # n_unexplored / omega is past eta = 30 s: 31.25 s is, 28.1 s is not
        snap = snapshot_for_games()
        snap = TeamSnapshot(snap.grid, snap.params, {1: snap.robots[1], 3: snap.robots[3]})
        cells = snap.grid.tasks[1].cells
        for cell in cells[:90]:
            mark_covered(snap.grid, cell)
        for left, menu in ((10, (1, 2)), (9, (2,))):
            assert snap.grid.tasks[1].n_unexplored == left
            game = build_resilience_game(2, (15.5, 7.5), 2, snap, build_team_model(snap))
            assert game.actions == menu
            mark_covered(snap.grid, cells[100 - left])

    def test_pending_only_when_small_and_positive(self):
        snap = snapshot_for_games()
        views = dict(snap.robots)
        views[1] = RobotView(1, (1.5, 1.5), 1, 9, "tasking", DesState.WK, BAT, 100.0)
        rows = build_team_model(TeamSnapshot(snap.grid, snap.params, views))
        assert rows[1].pending_s == pytest.approx(9 / 0.32)  # 28.1 s <= eta
        assert rows[2].pending_s == 0.0  # 100 cells is way past eta
        assert rows[3].pending_s == 0.0  # idle has no task

    def test_extra_time_applies_to_other_tasks_only(self):
        snap = snapshot_for_games()
        views = dict(snap.robots)
        views[1] = RobotView(1, (1.5, 1.5), 1, 9, "tasking", DesState.WK, BAT, 100.0)
        rows = build_team_model(TeamSnapshot(snap.grid, snap.params, views))
        base = build_team_model(snap)
        assert rows[1][1] == base[1][1]  # own task: no extra
        assert rows[1][2] < base[1][2]  # other task pays the remainder

    def test_committed_robots_count_after_the_holders_once(self):
        snap = snapshot_for_games()
        views = {
            1: RobotView(1, (1.5, 1.5), 1, 100, "tasking", DesState.WK, BAT, 100.0, next_task=2),
            2: RobotView(2, (15.5, 7.5), 2, 100, "tasking", DesState.WK, BAT, 120.0, next_task=2),
            3: RobotView(3, (9.5, 5.0), None, 0, "idle", DesState.ID, BAT, 300.0, next_task=1),
        }
        snap = TeamSnapshot(snap.grid, snap.params, views)
        rows = build_team_model(snap)
        # robot 1 commits to task 2 after its holder 2, who commits to its own task
        assert snap.assigned == {1: [1, 3], 2: [2, 1]}
        # a game's worth discounts the committed robot as well as the holder
        game = build_noidling_game(3, snap, rows, noidling_action_menu(snap), random.Random(0))
        assert game.players == (3,)
        assert game.worth[2] == available_worth(snap.grid.tasks[2].worth, [rows[2][2], rows[1][2]])

    @settings(max_examples=100, deadline=None)
    @given(team_snapshots())
    def test_assigned_holds_exactly_the_tasks_someone_counts_on(self, snap):
        counted = {r for view in snap.robots.values() for r in (view.task, view.next_task) if r is not None}
        assert set(snap.assigned) == counted
        for r, robots in snap.assigned.items():
            holders = sorted(v for v, view in snap.robots.items() if view.task == r)
            committed = sorted(v for v, view in snap.robots.items() if view.next_task == r and view.task != r)
            assert robots == holders + committed


class TestTeamPhi:
    def test_a_non_players_next_task_counts(self):
        snap = snapshot_for_games()
        views = dict(snap.robots)
        views[2] = RobotView(2, (15.5, 7.5), 2, 100, "tasking", DesState.WK, BAT, 120.0, next_task=1)
        snap = TeamSnapshot(snap.grid, snap.params, views)
        w, p = worths(snap), build_team_model(snap)
        assert w[1] > 0 and w[2] > 0
        want = w[1] * (1 - (1 - p[1][1]) * (1 - p[2][1])) + w[2] * (1 - (1 - p[2][2]))
        assert team_phi(snap, p, (3,), (None,)) == want

    def test_a_player_finishing_first_counts_on_its_current_task(self):
        snap = snapshot_for_games()
        views = dict(snap.robots)
        views[1] = RobotView(1, (1.5, 1.5), 1, 9, "tasking", DesState.WK, BAT, 100.0)
        snap = TeamSnapshot(snap.grid, snap.params, views)
        w, p = worths(snap), build_team_model(snap)
        assert p[1].pending_s > 0.0
        want = w[1] * (1 - (1 - p[1][1])) + w[2] * (1 - (1 - p[1][2]) * (1 - p[2][2]))
        assert team_phi(snap, p, (1, 3), (2, None)) == want
        # without the near-done region robot 1 counts on its action only
        busy = snapshot_for_games()
        w, p = worths(busy), build_team_model(busy)
        assert team_phi(busy, p, (1, 3), (2, None)) == w[2] * (1 - (1 - p[1][2]) * (1 - p[2][2]))

    def test_a_resilience_players_initial_action_off_the_menu_counts(self):
        snap = snapshot_for_games()
        for cell in list(snap.grid.tasks[1].cells)[:91]:
            mark_covered(snap.grid, cell)  # task 1 is near done: off the menu
        snap2 = TeamSnapshot(snap.grid, snap.params, {1: snap.robots[1], 3: snap.robots[3]})
        rows = build_team_model(snap2)
        game = build_resilience_game(2, (15.5, 7.5), 2, snap2, rows)
        assert game.actions == (2,) and dict(zip(game.players, game.initial)) == {1: 1, 3: None}
        want = snap.grid.tasks[1].worth * (1 - (1 - rows[1][1]))
        assert want > 0
        assert team_phi(snap2, rows, game.players, game.initial) == want


def eager_prob(snap):
    """Oracle: every live robot x every task, computed at once."""
    p = snap.params
    grid = snap.grid
    pending_s = {}
    for v, view in snap.robots.items():
        rem = view.region_unexplored / p.omega
        pending_s[v] = rem if (view.task is not None and 0.0 < rem <= p.eta) else 0.0
    prob = {}
    for v, view in sorted(snap.robots.items()):
        row = {}
        for r, task in grid.tasks.items():
            extra = pending_s[v] if view.task != r else 0.0
            row[r] = success_probability(
                view.battery,
                view.tasking_time_s,
                math.dist(view.pos_m, task.centroid_m),
                p.u,
                task.n_unexplored,
                p.omega,
                extra,
            )
        prob[v] = row
    return prob


def cover_all(grid):
    for task in grid.tasks.values():
        for cell in task.cells:
            mark_covered(grid, cell)


class TestLazyTeamModel:
    @settings(max_examples=100, deadline=None)
    @given(team_snapshots(), st.randoms(use_true_random=False))
    def test_entries_equal_eager_oracle_bit_for_bit(self, snap, rnd):
        rows = build_team_model(snap)
        want = eager_prob(snap)
        keys = [(v, r) for v in want for r in want[v]]
        rnd.shuffle(keys)
        half = len(keys) // 2
        for v, r in keys[:half]:
            assert rows[v][r] == want[v][r]
        cover_all(snap.grid)  # entries read later still see the build-time grid
        for v, r in keys[half:] + keys:
            assert rows[v][r] == want[v][r]
        assert set(rows) == set(want)

    def test_grid_mutated_after_build(self):
        snap = snapshot_for_games()
        views = dict(snap.robots)
        views[1] = RobotView(1, (1.5, 1.5), 1, 9, "tasking", DesState.WK, BAT, 100.0)
        snap = TeamSnapshot(snap.grid, snap.params, views)
        rows = build_team_model(snap)
        assert rows[1].pending_s > 0.0
        want = eager_prob(snap)
        cover_all(snap.grid)
        assert eager_prob(snap) != want
        for v in want:
            for r in want[v]:
                assert rows[v][r] == want[v][r]

    def test_unknown_task_raises(self):
        rows = build_team_model(snapshot_for_games())
        with pytest.raises(KeyError):
            rows[1][99]

    @settings(max_examples=100, deadline=None)
    @given(team_snapshots(), st.integers(0, 2**32 - 1))
    def test_games_hold_players_by_menu(self, snap, seed):
        rows = build_team_model(snap)
        want = eager_prob(snap)
        for game in games_of(snap, rows, seed):
            assert set(game.prob) == set(game.players)
            for v in game.players:
                assert game.prob[v] is rows[v]  # the model's own row, not a copy
                for r in game.actions:
                    assert game.prob[v][r] == want[v][r]

    @settings(max_examples=100, deadline=None)
    @given(team_snapshots(), st.integers(0, 2**32 - 1))
    def test_lazy_games_play_like_materialised_copies(self, snap, seed):
        rows = build_team_model(snap)
        want = eager_prob(snap)
        for game in games_of(snap, rows, seed):
            copy = dataclasses.replace(
                game, prob={v: {r: want[v][r] for r in game.actions} for v in game.players}
            )
            # the lazy game is solved first, so its entries are computed on
            # the solver's reads
            a_star = max_logit(game, random.Random(seed))
            assert a_star == max_logit(copy, random.Random(seed))
            deviations = [
                game.initial[:i] + (r,) + game.initial[i + 1 :]
                for i in range(len(game.players))
                for r in (*game.actions, None)
            ]
            for a in (game.initial, a_star, *deviations):
                assert potential(game, a) == potential(copy, a)
                for i in range(len(game.players)):
                    assert utility(game, i, a) == utility(copy, i, a)
            for v in game.players:
                for r in game.actions:
                    assert game.prob[v][r] == copy.prob[v][r] == want[v][r]

    def test_an_out_of_range_entry_raises_on_read_and_is_not_kept(self, monkeypatch):
        snap = snapshot_for_games()
        rows = build_team_model(snap)
        game = build_noidling_game(3, snap, rows, noidling_action_menu(snap), random.Random(0))
        assert game.players == (3,)
        monkeypatch.setattr(supervisor, "success_probability", lambda *args: 1.5)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"probability out of range for \(3, 1\): 1.5"):
                utility(game, 0, (1,))
        with pytest.raises(ValueError, match="out of range"):
            max_logit(game, random.Random(0))


def games_of(snap, rows, seed):
    """The games one team model yields: no-idling and FR for the lowest
    robot id when the menu is not empty, and resilience over the lowest task
    id when a robot is eligible."""
    trigger = min(snap.robots)
    menu = noidling_action_menu(snap)
    games = []
    if menu:
        games.append(build_noidling_game(trigger, snap, rows, menu, random.Random(seed)))
        games.append(build_first_responder_game(trigger, snap, rows, menu))
    resilience = build_resilience_game(99, (0.5, 0.5), min(snap.grid.tasks), snap, rows)
    if resilience is not None:
        games.append(resilience)
    return games


class TestNoidlingGame:
    def test_menu_gamma_filter_and_orphans(self):
        snap = snapshot_for_games()
        # both tasks have 100 cells -> 312 s > gamma: both contested
        assert noidling_action_menu(snap) == [1, 2]
        # shrink task 1 below gamma while robot 1 still holds it: excluded
        for cell in list(snap.grid.tasks[1].cells)[:45]:
            mark_covered(snap.grid, cell)
        assert snap.grid.tasks[1].n_unexplored / snap.params.omega < snap.params.gamma
        assert noidling_action_menu(snap) == [2]
        # orphan the small task: nobody assigned, so it comes back
        views = {2: snap.robots[2], 3: snap.robots[3]}
        assert noidling_action_menu(TeamSnapshot(snap.grid, snap.params, views)) == [1, 2]

    def test_near_finish_neighbor_joins(self):
        snap = snapshot_for_games()
        views = dict(snap.robots)
        views[2] = RobotView(2, (15.5, 7.5), 2, 5, "tasking", DesState.WK, BAT, 120.0)
        snap = TeamSnapshot(snap.grid, snap.params, views)
        rows = build_team_model(snap)
        game = build_noidling_game(3, snap, rows, noidling_action_menu(snap), random.Random(0))
        assert game is not None
        assert set(game.players) == {3, 2}  # idler + near-finishing neighbor
        assert 1 not in game.players  # far from done, keeps working

    def test_all_tasks_done_leaves_an_empty_menu(self):
        snap = snapshot_for_games()
        cover_all(snap.grid)
        assert noidling_action_menu(snap) == []
        # the engine goes idle on an empty menu; a game over it is refused
        with pytest.raises(ValueError, match="at least one action"):
            build_first_responder_game(3, snap, build_team_model(snap), [])

    def test_initial_actions_drawn_from_menu(self):
        snap = snapshot_for_games()
        rows = build_team_model(snap)
        game = build_noidling_game(3, snap, rows, noidling_action_menu(snap), random.Random(5))
        assert all(a in game.actions for a in game.initial)

    def test_worth_discounted_by_non_players(self):
        snap = snapshot_for_games()
        w, rows = worths(snap), build_team_model(snap)
        game = build_noidling_game(3, snap, rows, noidling_action_menu(snap), random.Random(0))
        # robots 1 and 2 are busy (not near finish): they are non-players
        assert set(game.players) == {3}
        assert game.worth[1] == pytest.approx(w[1] * (1 - rows[1][1]))
        assert game.worth[2] == pytest.approx(w[2] * (1 - rows[2][2]))


class TestResilienceGame:
    def test_players_are_nearest_and_menu_has_orphan(self):
        snap = snapshot_for_games()
        # robot 2 failed while holding task 2
        views = {1: snap.robots[1], 3: snap.robots[3]}
        snap2 = TeamSnapshot(snap.grid, snap.params, views)
        game = build_resilience_game(2, (15.5, 7.5), 2, snap2, build_team_model(snap2))
        assert set(game.players) == {1, 3}
        assert 2 in game.actions  # the orphaned task
        assert 1 in game.actions  # player 1's task has > eta left
        by_player = dict(zip(game.players, game.initial))
        assert by_player == {1: 1, 3: None}  # current tasks; idle player holds nothing
        assert game.players[0] == 3  # players ordered nearest-first

    def test_near_finished_player_task_left_out(self):
        snap = snapshot_for_games()
        for cell in list(snap.grid.tasks[1].cells)[:91]:
            mark_covered(snap.grid, cell)  # 9 cells left: 28 s <= eta
        views = {1: snap.robots[1], 3: snap.robots[3]}
        snap2 = TeamSnapshot(snap.grid, snap.params, views)
        game = build_resilience_game(2, (15.5, 7.5), 2, snap2, build_team_model(snap2))
        assert game.actions == (2,)  # only the orphan is contested

    def test_no_eligible_players(self):
        snap = snapshot_for_games()
        views = {
            1: RobotView(1, (1.5, 1.5), 1, 50, "idle", DesState.NG, BAT, 100.0),
        }
        snap2 = TeamSnapshot(snap.grid, snap.params, views)
        assert build_resilience_game(2, (15.5, 7.5), 2, snap2, build_team_model(snap2)) is None


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
        assignment = post_game_assign(
            strips,
            grid,
            incoming=[(9, 0.9, (5.0, 48.0))],
            existing=[(1, 0.8, (5.0, 2.0), None)],
        )
        assert assignment == {1: 0, 9: 3}  # 9 takes the nearest free strip to the bottom

    def test_lone_incoming_takes_nearest_strip(self):
        grid, strips = self.strips_grid()
        assert post_game_assign(strips, grid, [(5, 0.5, (0.0, 0.0))], []) == {5: 0}

    def test_rank_by_probability_then_id(self):
        grid, strips = self.strips_grid()
        # only one incomplete strip left: cover strips 1-3 completely
        for s in strips[1:]:
            for cell in s:
                mark_covered(grid, cell)
        assignment = post_game_assign(
            strips,
            grid,
            incoming=[(4, 0.3, (5.0, 2.0)), (2, 0.9, (5.0, 40.0))],
            existing=[],
        )
        assert assignment == {2: 0}  # higher probability wins the slot; 4 is left out

    def test_shared_strip_conflict_lower_id_keeps(self):
        grid, strips = self.strips_grid()
        assignment = post_game_assign(
            strips,
            grid,
            incoming=[],
            existing=[(7, 0.5, (5.0, 1.0), None), (3, 0.5, (5.0, 2.0), None)],
        )
        assert assignment[3] == 0  # lower id keeps the contested strip
        assert assignment[7] != 0

    def test_reservation_holds_strip(self):
        grid, strips = self.strips_grid()
        assignment = post_game_assign(
            strips,
            grid,
            incoming=[(8, 0.99, (5.0, 1.0))],
            existing=[(2, 0.5, (45.0, 45.0), 1)],
        )
        assert assignment[2] == 1
        assert assignment[8] == 0

    def test_a_positioned_robot_claims_before_a_reservation_whatever_the_ids(self):
        grid, strips = self.strips_grid()
        # robot 5 stands in strip 1, which robot 2 has reserved: 2 is
        # displaced and ranks after incoming 9 by success probability
        assignment = post_game_assign(
            strips,
            grid,
            incoming=[(9, 0.9, (5.0, 1.0))],
            existing=[(5, 0.5, (5.0, 10.0), None), (2, 0.4, (45.0, 45.0), 1)],
        )
        assert assignment == {5: 1, 9: 0, 2: 3}
        assert list(assignment) == [5, 9, 2]
