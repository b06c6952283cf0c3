"""Per-robot discrete event supervision: the state machine, failure
detection by heartbeat timeout, reallocation-game construction, and post-game
sub-region coordination.

Supervisors interact only through what the engine relays: heartbeats, map
changes and game outcomes. The state machine is deliberately partial; the
engine may only drive transitions along the defined arrows.

The first responder (FR) plays a one-player game: the idler alone on the
no-idling menu, starting from no task, with no random draw. Its best
response, the menu task that pays it most, needs no learning loop.

One rule decides who counts on a task: its holders, then the robots
committed to it next (`TeamSnapshot.assigned`, which lists only the tasks
someone counts on). The no-idling menu reads only that and the tasks'
unexplored counts, so it is taken from the snapshot before any team model
is built, and an empty menu builds none.

The team model is its rows: one lazy success-probability row per live
robot, which a game holds as it is. Each task's worth and time to complete
are read from the `world.TaskRegion` that owns them. That is exact: a
worth moves only when covering finds a target, and no cell is covered
between a game's snapshot and its log line.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from . import world as world_mod
from .game import GameInstance
from .models import BatteryParams, available_worth, success_probability
from .scenario import Params
from .world import Cell, CellState, GridMap


class DesState(Enum):
    ST = "ST"  # start
    WK = "WK"  # working
    NG = "NG"  # no-idling game
    RG = "RG"  # resilience game
    ID = "ID"  # idle
    FL = "FL"  # failed
    SP = "SP"  # stopped, coverage complete


EVENTS = ("e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7")

# Arrow set of the supervisor automaton. e7 (self-diagnosed failure) is
# defined from every non-terminal state; FL and SP absorb.
_TRANSITIONS: dict[tuple[DesState, str], DesState] = {
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
for _s in (DesState.ST, DesState.WK, DesState.NG, DesState.RG, DesState.ID):
    _TRANSITIONS[(_s, "e7")] = DesState.FL


@dataclass(frozen=True)
class EventRecord:
    tick: int
    robot: int
    event: str
    before: DesState
    after: DesState
    payload: tuple = ()


def step(state: DesState, event: str) -> DesState:
    """Follow one arrow of the supervisor automaton; reject anything else."""
    if event not in EVENTS:
        raise ValueError(f"unknown event {event!r}")
    try:
        return _TRANSITIONS[(state, event)]
    except KeyError:
        raise ValueError(f"transition ({state.value}, {event}) is undefined") from None


def detect_failures(silent_since: dict[int, float], now: float, t0_s: float) -> list[int]:
    """The failed robots, in id order, whose heartbeat has been silent for
    more than `t0_s` at time `now`; `silent_since` maps each to its last beat."""
    return sorted(u for u, last in silent_since.items() if now - last > t0_s)


class RobotView(NamedTuple):
    """Synchronized per-robot facts a game needs. A named tuple, not a
    frozen dataclass, because each game takes one per live robot."""

    id: int
    pos_m: tuple[float, float]
    task: int | None
    region_unexplored: int  # cells left in the robot's own assigned region
    mode: str  # "tasking" | "traveling" | "idle"
    des: DesState
    battery: BatteryParams
    tasking_time_s: float
    next_task: int | None = None  # task committed to once the current region is done


@dataclass(frozen=True)
class TeamSnapshot:
    grid: GridMap
    params: Params
    robots: dict[int, RobotView]  # live robots only

    @cached_property
    def assigned(self) -> dict[int, list[int]]:
        """Who counts on each task: its live holders in id order, then the
        robots committed to it in id order; `available_worth` multiplies in
        this order. A task nobody counts on has no entry."""
        assigned: dict[int, list[int]] = {}
        robots = sorted(self.robots.items())
        for v, view in robots:
            if view.task is not None:
                assigned.setdefault(view.task, []).append(v)
        for v, view in robots:
            r = view.next_task
            if r is not None and v not in assigned.get(r, ()):
                assigned.setdefault(r, []).append(v)
        return assigned


class _ProbRow(dict):
    """One live robot's row of the team model, task -> success probability.
    An entry is computed on its first read from inputs frozen at build time
    (the robot's view and `pending_s`, each task's centroid and unexplored
    count), checked to lie in [0, 1] and kept, so a read gives the same
    float whenever it happens. Rows are read by task id, never iterated: an
    iterated row would show only the entries computed so far."""

    __slots__ = ("view", "pending_s", "tasks", "u", "omega")

    def __init__(self, view: RobotView, pending_s: float, tasks, u: float, omega: float) -> None:
        super().__init__()
        self.view = view
        self.pending_s = pending_s  # near-finish remainder of its own region, 0.0 if none
        self.tasks = tasks  # task -> (centroid_m, n_unexplored) at build time
        self.u = u
        self.omega = omega

    def __missing__(self, r: int) -> float:
        centroid, n_unexplored = self.tasks[r]
        view = self.view
        # the robot's own task pays no near-finish remainder on top
        extra = self.pending_s if view.task != r else 0.0
        p = success_probability(
            view.battery,
            view.tasking_time_s,
            math.dist(view.pos_m, centroid),
            self.u,
            n_unexplored,
            self.omega,
            extra,
        )
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability out of range for ({view.id}, {r}): {p}")
        self[r] = p
        return p


def build_team_model(snap: TeamSnapshot) -> dict[int, _ProbRow]:
    """The team model: each live robot's lazy row, in id order. The tasks'
    centroids and unexplored counts are frozen here, because a game can
    write the map (`_resolve_pocket`) before it reads its last entry."""
    p = snap.params
    tasks = {r: (t.centroid_m, t.n_unexplored) for r, t in snap.grid.tasks.items()}
    rows = {}
    for v, view in sorted(snap.robots.items()):
        rem = view.region_unexplored / p.omega
        pending_s = rem if (view.task is not None and 0.0 < rem <= p.eta) else 0.0
        rows[v] = _ProbRow(view, pending_s, tasks, p.u, p.omega)
    return rows


def team_phi(snap: TeamSnapshot, rows: dict[int, _ProbRow], players, actions) -> float:
    """Team potential with the players at the given joint action.

    A non-player counts on its task and the task it has committed to. A
    player counts on its action, whether on the game's menu or not, and
    also on its current task while it finishes a near-done region there
    first. Each task's miss product is taken in ascending robot id. Only
    the tasks someone counts on are summed, in id order: any other would
    add w * 0.0 = 0.0, so this is the sum over every task bit for bit.
    """
    action_of = dict(zip(players, actions))
    on_task: dict[int, list[int]] = {}
    for v, view in sorted(snap.robots.items()):
        if v in action_of:
            tasks = {action_of[v], view.task if rows[v].pending_s > 0.0 else None}
        else:
            tasks = {view.task, view.next_task}
        for r in tasks - {None}:
            on_task.setdefault(r, []).append(v)
    regions = snap.grid.tasks
    total = 0.0
    for r in sorted(on_task):
        miss = 1.0
        for v in on_task[r]:
            miss *= 1.0 - rows[v][r]
        total += regions[r].worth * (1.0 - miss)
    return total


def _nearest(snap: TeamSnapshot, anchor: tuple[float, float], candidates: list[int], k: int) -> list[int]:
    return sorted(candidates, key=lambda v: (math.dist(snap.robots[v].pos_m, anchor), v))[:k]


def _game(
    snap: TeamSnapshot, rows: dict[int, _ProbRow], players: list[int], menu: list[int], initial: tuple
) -> GameInstance:
    """The game of the players over the menu, each task worth what the
    robots counted on it, players aside, leave uncollected."""
    regions, assigned = snap.grid.tasks, snap.assigned
    worth = {
        r: available_worth(regions[r].worth, [rows[v][r] for v in assigned.get(r, ()) if v not in players])
        for r in menu
    }
    return GameInstance(
        players=tuple(players),
        actions=tuple(menu),
        worth=worth,
        prob={v: rows[v] for v in players},
        cycles=snap.params.L,
        tau=snap.params.tau,
        initial=initial,
    )


def noidling_action_menu(snap: TeamSnapshot) -> list[int]:
    """Contested tasks for no-idling games, in id order.

    A task qualifies when it is incomplete and either still has at least
    gamma seconds of work left, or has no live robot assigned at all; a
    task nobody holds never finishes by itself, whatever its size.
    """
    omega, gamma, assigned = snap.params.omega, snap.params.gamma, snap.assigned
    return [
        r
        for r, t in snap.grid.tasks.items()  # in id order
        if t.n_unexplored > 0 and (t.n_unexplored / omega >= gamma or r not in assigned)
    ]


def build_noidling_game(
    trigger: int, snap: TeamSnapshot, rows: dict[int, _ProbRow], menu: list[int], rng: random.Random
) -> GameInstance:
    """Game between an idler and its near-finishing neighbors over the
    no-idling menu, which must not be empty."""
    p = snap.params
    eligible = [
        v
        for v, view in sorted(snap.robots.items())
        if v != trigger
        and view.des in (DesState.WK, DesState.ID)
        and (view.task is None or (view.mode == "tasking" and rows[v].pending_s > 0.0))
    ]
    players = [trigger] + _nearest(snap, snap.robots[trigger].pos_m, eligible, p.kappa1)
    initial = tuple(menu[rng.randrange(len(menu))] for _ in players)
    return _game(snap, rows, players, menu, initial)


def build_first_responder_game(
    trigger: int, snap: TeamSnapshot, rows: dict[int, _ProbRow], menu: list[int]
) -> GameInstance:
    """The idler alone over the no-idling menu, which must not be empty,
    starting from no task. Draws nothing: the idler's best response is
    deterministic."""
    return _game(snap, rows, [trigger], menu, (None,))


def build_resilience_game(
    failed: int,
    failed_pos: tuple[float, float],
    failed_task: int,
    snap: TeamSnapshot,
    rows: dict[int, _ProbRow],
) -> GameInstance | None:
    """Game among the failed robot's nearest neighbors over the orphaned
    task plus their current tasks with more than eta left. The caller has
    already ruled out takeover (no live robot holds the failed task) and
    checked it is incomplete."""
    p = snap.params
    eligible = [
        v for v, view in sorted(snap.robots.items()) if view.des in (DesState.WK, DesState.ID)
    ]
    players = _nearest(snap, failed_pos, eligible, p.kappa2)
    if not players:
        return None
    initial = tuple(snap.robots[v].task for v in players)
    regions = snap.grid.tasks
    menu = {failed_task} | {r for r in initial if r is not None and regions[r].n_unexplored / p.omega > p.eta}
    return _game(snap, rows, players, sorted(menu), initial)


def post_game_assign(
    strips: list[list[Cell]],
    grid: GridMap,
    incoming: list[tuple[int, float, tuple[float, float]]],
    existing: list[tuple[int, float, tuple[float, float], int | None]],
) -> dict[int, int]:
    """Allocate a task's sub-region strips among its robots.

    Existing robots keep the strip containing their position, then
    reservations of inbound robots hold their strip (lower id first in
    each group). The incomplete unclaimed strips then go to incoming and
    displaced robots in descending success-probability order, each taking
    the strip whose centroid is nearest. Robots left without a strip are
    absent from the result: the caller parks them on standby.

    Returns {robot: strip index}.
    """
    strip_cells = [set(cells) for cells in strips]
    taken: set[int] = set()
    assignment: dict[int, int] = {}
    demoted: list[tuple[int, float, tuple[float, float]]] = []
    for rid, p, pos, idx in sorted(existing, key=lambda e: (e[3] is not None, e[0])):
        if idx is None:
            cell = grid.cell_of_position(*pos)
            idx = next((k for k, cs in enumerate(strip_cells) if cell in cs), None)
        if idx is None or idx in taken:
            demoted.append((rid, p, pos))
        else:
            taken.add(idx)
            assignment[rid] = idx

    free = [
        k
        for k, cells in enumerate(strip_cells)
        if k not in taken and any(grid.state(c) is CellState.UNEXPLORED for c in cells)
    ]
    for rid, _, pos in sorted(incoming + demoted, key=lambda e: (-e[1], e[0])):
        if not free:
            break
        best = min(
            free,
            key=lambda k: (math.dist(pos, world_mod.centroid_m(strips[k], grid.epsilon)), k),
        )
        free.remove(best)
        assignment[rid] = best
    return assignment
