"""Per-robot discrete event supervision: the state machine, heartbeat-based
failure detection, reallocation-game construction, and post-game sub-region
coordination.

Supervisors interact only through what the engine relays: heartbeats, map
changes and game outcomes. The state machine is deliberately partial; the
engine may only drive transitions along the defined arrows.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum

from . import world as world_mod
from .game import GameInstance
from .models import BatteryParams, available_worth, remaining_worth, success_probability
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


def detect_failures(
    subjects,
    listeners,
    votes: dict[int, dict[int, bool]],
    positions: dict[int, tuple[float, float]],
    kappa2: int,
    confirmed: set[int],
) -> set[int]:
    """Majority-confirm silent robots.

    A subject is confirmed failed when strictly more than half of its
    kappa2 nearest listeners (fewer if fewer exist) currently suspect it.
    Already-confirmed subjects stay confirmed; the caller keeps the sticky
    set.
    """
    newly: set[int] = set()
    for u in subjects:
        if u in confirmed:
            continue
        candidates = [l for l in listeners if l != u]
        if not candidates:
            continue
        ux, uy = positions[u]
        candidates.sort(key=lambda l: (math.dist(positions[l], (ux, uy)), l))
        jury = candidates[:kappa2]
        count = sum(1 for l in jury if votes.get(l, {}).get(u, False))
        if count > len(jury) / 2:
            newly.add(u)
    return newly


@dataclass(frozen=True)
class RobotView:
    """Synchronized per-robot facts a game needs."""

    id: int
    pos_m: tuple[float, float]
    task: int | None
    region_unexplored: int  # cells left in the robot's own assigned region
    mode: str  # "tasking" | "traveling" | "idle"
    des: DesState
    battery: BatteryParams
    tasking_time_s: float


@dataclass(frozen=True)
class TeamSnapshot:
    grid: GridMap
    params: Params
    robots: dict[int, RobotView]  # live robots only


@dataclass(frozen=True)
class TeamModel:
    """Worths, time-to-complete and success probabilities at game time."""

    remaining: dict[int, float]  # task -> expected undiscovered targets
    t_c: dict[int, float]  # task -> remaining completion time, n_U / omega
    prob: dict[int, dict[int, float]]  # robot -> task -> success probability
    pending_s: dict[int, float]  # robot -> near-finish remainder (0 if none)
    assigned: dict[int, list[int]]  # task -> live robots currently holding it


def build_team_model(snap: TeamSnapshot) -> TeamModel:
    p = snap.params
    grid = snap.grid
    remaining = {r: remaining_worth(t.lam, t.found) for r, t in grid.tasks.items()}
    t_c = {r: t.n_unexplored / p.omega for r, t in grid.tasks.items()}

    pending_s: dict[int, float] = {}
    for v, view in snap.robots.items():
        rem = view.region_unexplored / p.omega
        pending_s[v] = rem if (view.task is not None and 0.0 < rem <= p.eta) else 0.0

    prob: dict[int, dict[int, float]] = {}
    for v, view in sorted(snap.robots.items()):
        row: dict[int, float] = {}
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

    assigned: dict[int, list[int]] = {r: [] for r in grid.tasks}
    for v, view in sorted(snap.robots.items()):
        if view.task is not None:
            assigned[view.task].append(v)
    return TeamModel(remaining=remaining, t_c=t_c, prob=prob, pending_s=pending_s, assigned=assigned)


def _nearest(
    snap: TeamSnapshot, anchor: tuple[float, float], candidates: list[int], k: int
) -> list[int]:
    ordered = sorted(candidates, key=lambda v: (math.dist(snap.robots[v].pos_m, anchor), v))
    return ordered[:k]


def _contested_worths(model: TeamModel, menu: list[int], players: list[int]) -> dict[int, float]:
    player_set = set(players)
    worth: dict[int, float] = {}
    for r in menu:
        occupants = [v for v in model.assigned[r] if v not in player_set]
        worth[r] = available_worth(model.remaining[r], [model.prob[v][r] for v in occupants])
    return worth


def noidling_action_menu(model: TeamModel, gamma: float) -> list[int]:
    """Contested tasks for no-idling games.

    A task qualifies when it is incomplete and either still has at least
    gamma seconds of work left, or has no live robot assigned at all; a
    task nobody holds never finishes by itself, whatever its size.
    """
    menu = []
    for r, t in sorted(model.t_c.items()):
        if t <= 0:
            continue
        if t >= gamma or not model.assigned[r]:
            menu.append(r)
    return menu


def build_noidling_game(
    trigger: int, snap: TeamSnapshot, model: TeamModel, rng: random.Random
) -> GameInstance | None:
    """Game between an idler and its near-finishing neighbors over the
    remaining rich (or orphaned) tasks; None when no such task exists."""
    p = snap.params
    menu = noidling_action_menu(model, p.gamma)
    if not menu:
        return None
    eligible = [
        v
        for v, view in sorted(snap.robots.items())
        if v != trigger
        and view.des in (DesState.WK, DesState.ID)
        and (view.task is None or (view.mode == "tasking" and model.pending_s[v] > 0.0))
    ]
    players = [trigger] + _nearest(snap, snap.robots[trigger].pos_m, eligible, p.kappa1)
    worth = _contested_worths(model, menu, players)
    initial = tuple(menu[rng.randrange(len(menu))] for _ in players)
    return GameInstance(
        players=tuple(players),
        actions=tuple(menu),
        worth=worth,
        prob={v: dict(model.prob[v]) for v in players},
        cycles=p.L,
        tau=p.tau,
        initial=initial,
    )


def build_resilience_game(
    failed: int,
    failed_pos: tuple[float, float],
    failed_task: int,
    snap: TeamSnapshot,
    model: TeamModel,
) -> GameInstance | None:
    """Game among the failed robot's nearest neighbors over their current
    tasks plus the orphaned one. The caller has already ruled out takeover
    (no live robot holds the failed task) and checked it is incomplete."""
    p = snap.params
    eligible = [
        v for v, view in sorted(snap.robots.items()) if view.des in (DesState.WK, DesState.ID)
    ]
    players = _nearest(snap, failed_pos, eligible, p.kappa2)
    if not players:
        return None
    menu = {failed_task}
    for v in players:
        task = snap.robots[v].task
        if task is not None and model.t_c[task] > p.eta:
            menu.add(task)
    menu = sorted(menu)
    worth = _contested_worths(model, menu, players)
    initial = tuple(snap.robots[v].task for v in players)
    return GameInstance(
        players=tuple(players),
        actions=tuple(menu),
        worth=worth,
        prob={v: dict(model.prob[v]) for v in players},
        cycles=p.L,
        tau=p.tau,
        initial=initial,
    )


def post_game_assign(
    strips: list[list[Cell]],
    grid: GridMap,
    incoming: list[tuple[int, float, tuple[float, float]]],
    existing: list[tuple[int, float, tuple[float, float], int | None]],
) -> tuple[dict[int, int], list[int]]:
    """Allocate a task's sub-region strips among its robots.

    Existing robots keep the strip containing their position (lower id wins
    a shared strip; reservations of inbound robots hold their strip). The
    incomplete unclaimed strips then go to incoming players in descending
    success-probability order, each taking the strip whose centroid is
    nearest. Players left without a strip go on standby.

    Returns ({robot: strip index}, standby robot ids).
    """
    strip_cells = [set(cells) for cells in strips]
    taken: dict[int, int] = {}
    assignment: dict[int, int] = {}
    demoted: list[tuple[int, float, tuple[float, float]]] = []

    positioned = [e for e in existing if e[3] is None]
    reserved = [e for e in existing if e[3] is not None]
    for rid, p, pos, _ in sorted(positioned, key=lambda e: e[0]):
        cell = grid.cell_of_position(*pos)
        idx = next((k for k, cs in enumerate(strip_cells) if cell in cs), None)
        if idx is None or idx in taken:
            demoted.append((rid, p, pos))
        else:
            taken[idx] = rid
            assignment[rid] = idx
    for rid, p, pos, idx in sorted(reserved, key=lambda e: e[0]):
        if idx in taken:
            demoted.append((rid, p, pos))
        else:
            taken[idx] = rid
            assignment[rid] = idx

    free = [
        k
        for k, cells in enumerate(strip_cells)
        if k not in taken and any(grid.state(c) is CellState.UNEXPLORED for c in cells)
    ]
    standby: list[int] = []
    queue = sorted(incoming + demoted, key=lambda e: (-e[1], e[0]))
    for rid, _, pos in queue:
        if not free:
            standby.append(rid)
            continue
        best = min(
            free,
            key=lambda k: (math.dist(pos, world_mod.centroid_m(strips[k], grid.epsilon)), k),
        )
        free.remove(best)
        taken[best] = rid
        assignment[rid] = best
    return assignment, standby
