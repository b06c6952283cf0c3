"""Potential-game machinery: alignment, Max-Logit, oracles, gains."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcover.game import (
    GameInstance,
    brute_force_optimum,
    gain,
    max_logit,
    potential,
    utility,
)
from gridcover.models import BatteryParams
from gridcover.scenario import Params
from gridcover.supervisor import DesState, RobotView, TeamSnapshot, build_team_model, team_phi
from tests.test_supervisor import BAT, snapshot_for_games, team_snapshots
from tests.test_world import make_world


def menu_potential(g: GameInstance, a) -> float:
    """Oracle: the potential summed over the whole menu, in menu order."""
    total = 0.0
    for r in g.actions:
        miss = 1.0
        for v, act in zip(g.players, a):
            if act == r:
                miss *= 1.0 - g.prob[v][r]
        total += g.worth[r] * (1.0 - miss)
    return total


def check_potential_game(g: GameInstance, samples: int, seed: int) -> tuple[float, bool]:
    """Spot-check the exact-alignment property on sampled unilateral deviations.

    Draws (player, action pair, context) tuples and compares the utility
    delta against the potential delta. Returns (max residual, ok at 1e-9).
    """
    rng = random.Random(seed)
    worst = 0.0
    menu = list(g.actions) + [None]
    for _ in range(samples):
        i = rng.randrange(len(g.players))
        context = [rng.choice(menu) for _ in g.players]
        a1, a2 = rng.choice(menu), rng.choice(menu)
        ja1 = tuple(a1 if j == i else c for j, c in enumerate(context))
        ja2 = tuple(a2 if j == i else c for j, c in enumerate(context))
        du = utility(g, i, ja1) - utility(g, i, ja2)
        dphi = potential(g, ja1) - potential(g, ja2)
        worst = max(worst, abs(du - dphi))
    return worst, worst <= 1e-9


def traced_max_logit(g: GameInstance, seed):
    """Oracle: Max-Logit that evaluates the potential of every visited joint
    action and returns (best action, trace of (action, potential))."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    current = list(g.initial)
    trace = []
    best_a = tuple(current)
    best_phi = menu_potential(g, best_a)
    trace.append((best_a, best_phi))
    for _ in range(g.cycles):
        i = rng.randrange(len(g.players))
        alt = g.actions[rng.randrange(len(g.actions))]
        if alt != current[i]:
            cur_u = utility(g, i, tuple(current))
            trial = list(current)
            trial[i] = alt
            alt_u = utility(g, i, tuple(trial))
            mu = math.exp(min(0.0, (alt_u - cur_u) / g.tau))
            if rng.random() < mu:
                current[i] = alt
        visited = tuple(current)
        phi = menu_potential(g, visited)
        trace.append((visited, phi))
        if phi > best_phi:
            best_phi = phi
            best_a = visited
    return best_a, trace


def random_instance(rng: random.Random, n_players=3, n_actions=4, cycles=50, tau=0.05):
    players = tuple(range(1, n_players + 1))
    actions = tuple(range(101, 101 + n_actions))
    worth = {r: rng.uniform(0.5, 10.0) for r in actions}
    prob = {v: {r: rng.uniform(0.05, 0.95) for r in actions} for v in players}
    initial = tuple(rng.choice(actions) for _ in players)
    return GameInstance(
        players=players, actions=actions, worth=worth, prob=prob, cycles=cycles, tau=tau, initial=initial
    )


class TestPotentialAndUtility:
    def test_all_null_is_zero(self):
        g = random_instance(random.Random(0))
        assert potential(g, (None, None, None)) == 0.0

    def test_shared_task_joint_probability(self):
        g = GameInstance(
            players=(1, 2),
            actions=(5,),
            worth={5: 10.0},
            prob={1: {5: 0.5}, 2: {5: 0.5}},
            cycles=10,
            tau=0.05,
            initial=(5, 5),
        )
        assert potential(g, (5, 5)) == pytest.approx(7.5, abs=1e-12)

    def test_disjoint_tasks_sum(self):
        g = GameInstance(
            players=(1, 2),
            actions=(1, 2),
            worth={1: 10.0, 2: 5.0},
            prob={1: {1: 0.8, 2: 0.1}, 2: {1: 0.2, 2: 0.4}},
            cycles=10,
            tau=0.05,
            initial=(1, 2),
        )
        assert potential(g, (1, 2)) == pytest.approx(10 * 0.8 + 5 * 0.4, abs=1e-12)

    def test_singleton_utility(self):
        g = random_instance(random.Random(1), n_players=1)
        for r in g.actions:
            assert utility(g, 0, (r,)) == pytest.approx(g.worth[r] * g.prob[1][r], abs=1e-12)

    def test_crowded_utility_discounts_peers(self):
        g = GameInstance(
            players=(1, 2),
            actions=(5,),
            worth={5: 10.0},
            prob={1: {5: 0.5}, 2: {5: 0.5}},
            cycles=10,
            tau=0.05,
            initial=(5, 5),
        )
        assert utility(g, 0, (5, 5)) == pytest.approx(2.5, abs=1e-12)

    def test_null_and_off_menu_actions_worthless(self):
        g = random_instance(random.Random(2))
        a = (None, 999, g.actions[0])
        assert utility(g, 0, a) == 0.0
        assert utility(g, 1, a) == 0.0
        assert potential(g, a) == pytest.approx(
            g.worth[g.actions[0]] * g.prob[3][g.actions[0]], abs=1e-12
        )

    def test_marginal_contribution_identity_sampled(self):
        rng = random.Random(3)
        for _ in range(200):
            g = random_instance(rng)
            menu = list(g.actions) + [None]
            a = tuple(rng.choice(menu) for _ in g.players)
            i = rng.randrange(len(g.players))
            nulled = tuple(None if j == i else x for j, x in enumerate(a))
            assert utility(g, i, a) == pytest.approx(
                potential(g, a) - potential(g, nulled), abs=1e-9
            )


class TestExactAlignment:
    def test_exhaustive_small_instances(self):
        rng = random.Random(4)
        for _ in range(20):
            g = random_instance(rng, n_players=2, n_actions=3)
            menu = list(g.actions) + [None]
            for i in range(len(g.players)):
                for context in itertools.product(menu, repeat=len(g.players) - 1):
                    for a1, a2 in itertools.product(menu, repeat=2):
                        ja1 = list(context)
                        ja1.insert(i, a1)
                        ja2 = list(context)
                        ja2.insert(i, a2)
                        du = utility(g, i, tuple(ja1)) - utility(g, i, tuple(ja2))
                        dphi = potential(g, tuple(ja1)) - potential(g, tuple(ja2))
                        assert abs(du - dphi) <= 1e-9

    def test_checker_reports_pass(self):
        g = random_instance(random.Random(7), n_players=4, n_actions=5)
        worst, ok = check_potential_game(g, samples=1000, seed=7)
        assert ok
        assert worst <= 1e-9

    def test_single_player_trivially_aligned(self):
        g = random_instance(random.Random(8), n_players=1)
        _, ok = check_potential_game(g, samples=100, seed=8)
        assert ok


class TestMaxLogit:
    def test_single_action_menu_is_fixed(self):
        g = GameInstance(
            players=(1, 2),
            actions=(9,),
            worth={9: 4.0},
            prob={1: {9: 0.5}, 2: {9: 0.6}},
            cycles=20,
            tau=0.05,
            initial=(9, 9),
        )
        assert max_logit(g, seed=0) == (9, 9)

    def test_single_player_finds_dominant_action(self):
        g = GameInstance(
            players=(1,),
            actions=(1, 2),
            worth={1: 9.0, 2: 1.0},
            prob={1: {1: 1.0, 2: 1.0}},
            cycles=50,
            tau=0.05,
            initial=(2,),
        )
        for seed in range(10):
            assert max_logit(g, seed=seed) == (1,)

    def test_best_visited_never_below_initial(self):
        rng = random.Random(11)
        for trial in range(100):
            g = random_instance(rng)
            a_star = max_logit(g, seed=trial)
            assert potential(g, a_star) >= potential(g, g.initial) - 1e-12

    def test_matches_traced_oracle(self):
        # coarse probabilities and worths make equal potentials, so the
        # earliest-visit tie rule is exercised too
        rng = random.Random(17)
        for trial in range(200):
            n_players = rng.randint(1, 5)
            actions = tuple(rng.sample(range(1, 30), rng.randint(1, 6)))
            players = tuple(range(1, n_players + 1))
            coarse = trial % 2 == 0
            worth = {r: rng.choice((1.0, 2.0, 4.0)) if coarse else rng.uniform(0.0, 10.0) for r in actions}
            prob = {
                v: {r: rng.choice((0.25, 0.5, 1.0)) if coarse else rng.random() for r in actions}
                for v in players
            }
            initial = tuple(rng.choice(actions + (None, 99)) for _ in players)
            g = GameInstance(
                players=players,
                actions=actions,
                worth=worth,
                prob=prob,
                cycles=rng.randint(1, 60),
                tau=rng.choice((0.01, 0.05, 0.5)),
                initial=initial,
            )
            ours, theirs = random.Random(trial), random.Random(trial)
            assert max_logit(g, ours) == traced_max_logit(g, theirs)[0]
            assert ours.getstate() == theirs.getstate()
            assert max_logit(g, seed=trial) == traced_max_logit(g, seed=trial)[0]

    def test_fixed_seed_reproducible(self):
        g = random_instance(random.Random(12))
        assert max_logit(g, seed=99) == max_logit(g, seed=99)

    def test_parameter_validation(self):
        g = random_instance(random.Random(13))
        g.tau = 0.0
        with pytest.raises(ValueError):
            max_logit(g, seed=0)
        g.tau = 0.05
        g.cycles = 0
        with pytest.raises(ValueError):
            max_logit(g, seed=0)


@st.composite
def games_and_actions(draw):
    """A game over an unsorted menu and a joint action whose entries may be
    None, off the menu or repeated."""
    actions = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=8, unique=True)))
    players = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=6, unique=True)))
    unit = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0))
    worth = {r: draw(st.floats(0.0, 100.0)) for r in actions}
    prob = {v: {r: draw(unit) for r in actions} for v in players}
    entries = st.one_of(st.sampled_from(actions), st.none(), st.integers(13, 15))
    joint = tuple(draw(entries) for _ in players)
    game = GameInstance(players=players, actions=actions, worth=worth, prob=prob, cycles=1, tau=0.05)
    return game, joint


class TestPotentialOracle:
    @settings(max_examples=300, deadline=None)
    @given(games_and_actions())
    def test_equals_full_menu_sum_bit_for_bit(self, case):
        g, a = case
        assert potential(g, a) == menu_potential(g, a)

    def test_sums_in_menu_order(self):
        # (0.1 + 0.2) + 0.4 != (0.1 + 0.4) + 0.2 in floating point
        g = GameInstance(
            players=(1, 2, 3),
            actions=(1, 2, 3),
            worth={1: 0.1, 2: 0.2, 3: 0.4},
            prob={v: {1: 1.0, 2: 1.0, 3: 1.0} for v in (1, 2, 3)},
            cycles=1,
            tau=0.05,
        )
        assert potential(g, (1, 3, 2)) == menu_potential(g, (1, 3, 2)) == (0.1 + 0.2) + 0.4

    def test_repeated_menu_task_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            GameInstance(
                players=(1,), actions=(3, 3), worth={3: 1.0}, prob={1: {3: 0.5}}, cycles=1, tau=0.05
            )

    @pytest.mark.parametrize("p", [1.5, -0.25])
    def test_hand_built_out_of_range_entry_rejected(self, p):
        # a plain dict row is checked in full at construction, off-menu
        # entries too
        for row in ({3: p}, {3: 0.5, 4: p}):
            with pytest.raises(ValueError, match=f"probability out of range for \\(1, [34]\\): {p}"):
                GameInstance(players=(1,), actions=(3,), worth={3: 1.0}, prob={1: row}, cycles=1, tau=0.05)


class TestBruteForce:
    def test_single_player_argmax(self):
        g = random_instance(random.Random(14), n_players=1, n_actions=6)
        a, phi = brute_force_optimum(g)
        best = max(g.actions, key=lambda r: g.worth[r] * g.prob[1][r])
        assert a == (best,)
        assert phi == pytest.approx(g.worth[best] * g.prob[1][best], abs=1e-12)

    def test_two_players_one_task_forced(self):
        g = GameInstance(
            players=(1, 2),
            actions=(3,),
            worth={3: 8.0},
            prob={1: {3: 0.4}, 2: {3: 0.7}},
            cycles=10,
            tau=0.05,
            initial=(3, 3),
        )
        a, phi = brute_force_optimum(g)
        assert a == (3, 3)
        assert phi == pytest.approx(8.0 * (1 - 0.6 * 0.3), abs=1e-12)

    def test_order_independent_recomputation(self):
        g = random_instance(random.Random(15))
        _, phi = brute_force_optimum(g)
        best = max(
            itertools.product(reversed(g.actions), repeat=len(g.players)),
            key=lambda a: potential(g, a),
        )
        assert potential(g, best) == pytest.approx(phi, abs=1e-12)

    def test_too_large_instance_rejected(self):
        g = random_instance(random.Random(16), n_players=9, n_actions=9, cycles=5)
        with pytest.raises(ValueError):
            brute_force_optimum(g)


class TestGains:
    # one function serves both G_P (over the game's worth) and G_T (over the
    # team's remaining worth)
    def test_no_improvement_is_zero(self):
        assert gain(7.5, 7.5, 15.0) == 0.0
        assert gain(20.0, 20.0, 60.0) == 0.0

    def test_arithmetic(self):
        assert gain(12.0, 7.5, 15.0) == pytest.approx(0.30, abs=1e-12)
        assert gain(23.0, 20.0, 60.0) == pytest.approx(0.05, abs=1e-12)
        assert gain(7.5, 12.0, 15.0) == pytest.approx(-0.30, abs=1e-12)

    def test_zero_denominator_defined_as_zero(self):
        assert gain(1.0, 0.0, 0.0) == 0.0
        assert gain(1.0, 0.0, -2.0) == 0.0


def team_potential(
    assignment: dict[int, set[int]],
    worth_remaining: dict[int, float],
    prob: dict[int, dict[int, float]],
) -> float:
    """Oracle: the total expected worth of the whole team, summed over every
    task of `worth_remaining` in its order.

    `assignment` maps each live robot to the set of tasks it contributes to.
    Each task's miss product is taken in `assignment` order; a task in no
    robot's set adds w * (1 - 1.0).
    """
    on_task: dict[int, list[int]] = {r: [] for r in worth_remaining}
    for v, tasks in assignment.items():
        for r in tasks:
            if r not in on_task:
                raise ValueError(f"robot {v} assigned to unknown task {r}")
            on_task[r].append(v)
    total = 0.0
    for r, w in worth_remaining.items():
        miss = 1.0
        for v in on_task[r]:
            miss *= 1.0 - prob[v][r]
        total += w * (1.0 - miss)
    return total


def full_team_phi(snap, rows, players, actions) -> float:
    """Oracle: `team_phi` summed over every task's worth, with each robot
    counting on the tasks `team_phi` documents."""
    action_of = dict(zip(players, actions))
    assignment = {}
    for v, view in sorted(snap.robots.items()):
        if v in action_of:
            tasks = {action_of[v]} | ({view.task} if rows[v].pending_s > 0.0 else set())
        else:
            tasks = {view.task, view.next_task}
        assignment[v] = tasks - {None}
    return team_potential(assignment, {r: t.worth for r, t in snap.grid.tasks.items()}, rows)


@st.composite
def team_phi_cases(draw):
    """A team snapshot, some of its robots as players in any order, each
    playing no task or any task, on a game's menu or not."""
    snap = draw(team_snapshots())
    players = draw(st.lists(st.sampled_from(sorted(snap.robots)), unique=True))
    actions = [draw(st.one_of(st.none(), st.sampled_from(sorted(snap.grid.tasks)))) for _ in players]
    return snap, tuple(players), tuple(actions)


class TestTeamPotential:
    """The team potential `supervisor.team_phi`, which sums only the tasks
    someone counts on, against the sum over every task."""

    @settings(max_examples=200, deadline=None)
    @given(team_phi_cases())
    def test_equals_the_full_task_oracle_bit_for_bit(self, case):
        snap, players, actions = case
        rows = build_team_model(snap)
        assert team_phi(snap, rows, players, actions) == full_team_phi(snap, rows, players, actions)

    def test_empty_assignment(self):
        snap = snapshot_for_games()
        idle = TeamSnapshot(snap.grid, snap.params, {3: snap.robots[3]})
        rows = build_team_model(idle)
        assert team_phi(idle, rows, (), ()) == 0.0
        assert team_phi(idle, rows, (3,), (None,)) == 0.0

    def test_decomposition_identity(self):
        # Phi(a) = phi(a_P) + sum_{r not on menu} w~_r p_P(r) + sum_r w_r q_N(r):
        # the players' game, their off-menu tasks at what the non-players
        # leave of them, and the non-players' own share
        rng = random.Random(21)
        tasks = list(range(1, 7))
        rects = [{"x": 2 * (r - 1), "y": 0, "w": 2, "h": 2} for r in tasks]
        for _ in range(100):
            lam = [rng.uniform(0.2, 9.0) for _ in tasks]
            grid = make_world(width=12, height=2, tasks=rects, targets={"mode": "sampled", "lambda": lam})
            robots = list(range(1, 8))
            players = robots[:3]
            task_of = {v: rng.choice(tasks + [None]) for v in robots}
            views = {
                v: RobotView(
                    v,
                    (rng.uniform(0.0, 12.0), rng.uniform(0.0, 2.0)),
                    task_of[v],
                    100,  # 312 s left: nobody finishes first
                    "idle" if task_of[v] is None else "tasking",
                    DesState.WK,
                    BatteryParams(rho0=rng.uniform(1e-3, 5e-3), rho1=rng.uniform(200.0, 1400.0)),
                    rng.uniform(0.0, 3000.0),
                )
                for v in robots
            }
            snap = TeamSnapshot(grid, Params(), views)
            rows = build_team_model(snap)
            w = {r: t.worth for r, t in grid.tasks.items()}

            def left(r):  # what the non-players on r leave uncollected
                return math.prod(1 - rows[v][r] for v in robots if v not in players and task_of[v] == r)

            menu = tuple(rng.sample(tasks, 3))
            g = GameInstance(
                players=tuple(players),
                actions=menu,
                worth={r: w[r] * left(r) for r in menu},
                prob={v: rows[v] for v in players},
                cycles=5,
                tau=0.05,
                initial=tuple(task_of[v] for v in players),
            )
            off_menu = sum(
                w[r] * left(r) * (1 - math.prod(1 - rows[v][r] for v in players if task_of[v] == r))
                for r in tasks
                if r not in menu
            )
            non_player = sum(w[r] * (1 - left(r)) for r in tasks)
            total = team_phi(snap, rows, g.players, g.initial)
            assert total == pytest.approx(potential(g, g.initial) + off_menu + non_player, abs=1e-9)

    def test_robot_counts_on_each_task_of_its_set(self):
        # a player finishing its near-done task before moving counts on both
        snap = snapshot_for_games()
        w = {r: t.worth for r, t in snap.grid.tasks.items()}
        finishing = RobotView(1, (1.5, 1.5), 1, 9, "tasking", DesState.WK, BAT, 100.0)
        helper = RobotView(2, (15.5, 7.5), 1, 100, "tasking", DesState.WK, BAT, 120.0)
        alone = TeamSnapshot(snap.grid, snap.params, {1: finishing})
        rows = build_team_model(alone)
        rows[1].update({1: 0.5, 2: 0.5})
        assert team_phi(alone, rows, (1,), (2,)) == w[1] * 0.5 + w[2] * 0.5
        pair = TeamSnapshot(snap.grid, snap.params, {1: finishing, 2: helper})
        rows = build_team_model(pair)
        rows[1].update({1: 0.5, 2: 0.5})
        rows[2][1] = 0.25
        assert team_phi(pair, rows, (1,), (2,)) == w[1] * (1 - 0.5 * 0.75) + w[2] * 0.5

    def test_miss_product_taken_in_assignment_order(self):
        # the product's rounding depends on its order: team_phi takes it in
        # ascending robot id, whatever the order of the snapshot or players
        snap = snapshot_for_games()
        views = {v: RobotView(v, (1.5, 1.5), 1, 100, "tasking", DesState.WK, BAT, 100.0) for v in (3, 2, 1)}
        team = TeamSnapshot(snap.grid, snap.params, views)
        rows = build_team_model(team)
        for v, p in ((1, 0.46), (2, 0.31), (3, 0.07)):
            rows[v][1] = p
        w = team.grid.tasks[1].worth
        by_id = w * (1.0 - (1.0 - 0.46) * (1.0 - 0.31) * (1.0 - 0.07))
        assert by_id != w * (1.0 - (1.0 - 0.07) * (1.0 - 0.31) * (1.0 - 0.46))
        assert team_phi(team, rows, (), ()) == by_id
        assert team_phi(team, rows, (3, 2, 1), (1, 1, 1)) == by_id

    def test_unknown_task_rejected(self):
        snap = snapshot_for_games()
        with pytest.raises(KeyError):
            team_phi(snap, build_team_model(snap), (3,), (9,))
