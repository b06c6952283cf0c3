"""Deterministic discrete-time simulation of the robot team.

One-second ticks (configurable) drive message delivery, scheduled failures,
failure confirmation, robot motion and covering, event generation, and game
resolution (at most one game per tick, FIFO). Runs are bit-reproducible for a
fixed (scenario, seed), on every Python version `pyproject.toml` admits: the
float sums a run records are summed left to right (`models.sum_in_order`),
as `sum` no longer does from Python 3.12 on.

A robot's liveness is its supervisor's state: it has failed once `e7` has
taken it to FL, and no event leaves FL. `_fire`, the only writer of that
state, keeps the counts of FL, SP and ID robots that `_end_reason` reads, so
no tick rescans the team. A robot's position is its cell's center;
localization noise moves only the cell it covers, not the robot.

A run's records hold plain values, so a finished run costs about the size
of its data and the cyclic collector walks few objects. A change of the
team map is five ints in the flat `ChangeLog`: the tick, the robot, the
cell's x and y and the new state. Its old state is always UNEXPLORED, so
it is not kept. The cells the robots stood on, the cells CR counts, are a
flag byte per cell by flat index (`Simulation.visited`).

Failure confirmation is a heartbeat timeout. Live robots start together and
beat every `heartbeat_s`, so the team keeps one heartbeat clock, and a robot
that fails keeps the clock's last beat as the start of its silence. It is
confirmed on the first tick its silence exceeds `t0_s` while some robot is
still alive to hear it.

A robot's region, the task or strip it works, is the region its belief
watches (`BeliefView.watch`). The belief counts the region's unexplored
cells as sensing, covering and synced changes reach it, so `Robot.region`
and `Robot.region_unexplored()` are reads and no tick rescans a region.

A robot's belief takes its own sensing and covering at once and the rest
of the team's at each sync, which leaves every live robot knowing the team
map. So a belief is a view (`world.Beliefs`): the robot's own writes since
the last sync over the team map as of that sync. Whenever a view has
written since the last sync, so has the team map, so a sync has work only
when the team map has. A robot that fails keeps its view as it was at its
`e7`.

A travelling robot's path was free of blocked cells when it was planned,
and only a cell of its belief turning FORBIDDEN or OBSTACLE can block it.
So the robot keeps its belief's `n_blocked` from when it last planned or
checked the path (`Robot.path_checked_at`), and `_advance_travel` tests the
path's cells only when that count has moved.

Every reallocation takes one game path. CARE's no-idling and resilience
games are solved with Max-Logit; FR's one-player game is solved by the
idler's best response, with no draw from the game generator. Both settle
in `_apply_game`, which places, parks or idles the players and logs the
game with the potentials its solver reported. A no-idling attempt takes its
menu from the team snapshot first: on an empty one the idler goes idle
(`e4`) and no team model is built.

Who works, has committed to and waits on each task strip lives in one
`Assignments` table, written only by `assign`, `commit`, `release` and
`park`. A robot's recorded task (`Assignments.task`) means one of three
things:

- the task of the slot it works (it then also has an entry in `strip`);
- the task it just finished a region of, kept while it waits in NG/RG for
  its game;
- for a dead robot, the task it failed in.

After every tick the table keeps these invariants:

- no dead robot holds a slot, is committed to one or waits on standby;
- no robot appears twice in one standby list;
- a live robot that works a strip is that strip's recorded holder, unless
  another robot's assignment overwrote it: `assign` takes a slot over from
  whoever holds it, releasing a worked slot drops whoever holds it, and a
  commitment's reservation is dropped only if the robot still holds it.
"""

from __future__ import annotations

import logging
import math
import random
import time
from dataclasses import dataclass, field

from .game import gain, max_logit, potential, utility
from .models import BatteryParams, reliability, success_probability, sum_in_order
from .planner import Done, PlannerState, make_planner, next_waypoint, plan_travel_to_any
from .scenario import DEFAULT_RHO0, DEFAULT_RHO1, ScenarioConfig, ScenarioError
from .supervisor import (
    DesState,
    EventRecord,
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
from .world import (
    BeliefView,
    Beliefs,
    Cell,
    CellState,
    Change,
    GridMap,
    RangeSensor,
    build_world,
    centroid_m,
    coverage_fraction,
    map_text,
    mark_covered,
    mark_sensed,
    merge_maps,  # unused here: the benchmark's tracer patches it by this name
    partition_subregions,
)

log = logging.getLogger("gridcover.engine")

# Enum members the hot paths read, bound to module names as in `world`.
# States from _BLOCKED up block travel.
_UNEXPLORED = CellState.UNEXPLORED
_BLOCKED = CellState.FORBIDDEN
_FAILED = DesState.FL
_STOPPED = DesState.SP
_IDLE = DesState.ID
_WORKING = DesState.WK


class LivenessError(RuntimeError):
    """The run cannot make the progress the scenario contract promises."""


def apply_localization_noise(
    pos: tuple[float, float], sigma: float, rng: random.Random
) -> tuple[float, float]:
    """Perturb a position with independent zero-mean Gaussian noise per axis."""
    return (pos[0] + rng.gauss(0.0, sigma), pos[1] + rng.gauss(0.0, sigma))


@dataclass
class Robot:
    id: int
    battery: BatteryParams
    cell: Cell  # the robot stands at its center
    belief: BeliefView  # the team map at the last sync plus the robot's own writes since
    des: DesState = DesState.ST
    planner: PlannerState | None = None
    mode: str = "idle"  # tasking | traveling | idle
    path: list[Cell] = field(default_factory=list)
    path_checked_at: int = -1  # belief.n_blocked when `path` was last found free
    travel_m: float = 0.0  # meters banked toward the next hop
    work_s: float = 0.0  # seconds banked toward the next covering step
    t_k: float = 0.0  # accumulated tasking seconds
    last_active: int = 0

    @property
    def region(self) -> frozenset[Cell]:
        """The cells the robot works: the region its belief watches."""
        return self.belief.watched

    def region_unexplored(self) -> int:
        return self.belief.watched_unexplored


class Assignments:
    """Who works, has committed to and waits on each task strip.

    `assign`, `commit`, `release` and `park` are the only writers; the
    engine reads the fields and `claim`.
    """

    def __init__(self) -> None:
        self.task: dict[int, int] = {}  # robot -> task (three meanings, see the module docstring)
        self.strip: dict[int, int | None] = {}  # robot -> strip of `task` it works; None = whole task
        self.next: dict[int, tuple[int, int | None]] = {}  # robot -> (task, strip) after its region
        self.holder: dict[tuple[int, int], int] = {}  # (task, strip) -> robot working or committed
        self.standby: dict[int, dict[int, None]] = {}  # task -> waiting robots, an ordered set

    def claim(self, rid: int, task: int) -> tuple[str, int | None] | None:
        """Whether the robot holds or commits to the task: ("works", strip),
        ("commits", strip) or None."""
        if self.task.get(rid) == task and rid in self.strip:
            return "works", self.strip[rid]
        nxt = self.next.get(rid)
        if nxt is not None and nxt[0] == task:
            return "commits", nxt[1]
        return None

    def assign(self, rid: int, task: int, strip: int | None) -> None:
        """Work a slot now, the whole task (strip None) or one strip, taking
        it over from whoever holds it. Ends everything the robot held."""
        self.release(rid)
        self.task[rid] = task
        self.strip[rid] = strip
        if strip is not None:
            self.holder[(task, strip)] = rid

    def commit(self, rid: int, task: int, strip: int | None) -> None:
        """Reserve a slot to start once the current region is done. A new
        commitment replaces the old one and the standby ranks; committing
        again to the same task only moves the reserved strip."""
        old = self._drop_commitment(rid)
        if old is None or old[0] != task:
            self._unpark(rid)
        self.next[rid] = (task, strip)
        if strip is not None:
            self.holder[(task, strip)] = rid

    def release(self, rid: int, scope: str = "all") -> None:
        """End what the robot holds; the recorded task stays unless said.

        - "all" (failure, or before a new slot): the worked slot, the
          commitment and every standby rank.
        - "slot" (region finished): the worked slot only.
        - "task" (gone idle): the task and slot are forgotten, but the
          slot's holder entry, the commitment and the standby ranks stay.
        """
        if scope == "task":
            self.task.pop(rid, None)
            self.strip.pop(rid, None)
            return
        strip = self.strip.pop(rid, None)
        if strip is not None:
            self.holder.pop((self.task[rid], strip), None)
        if scope == "all":
            self._drop_commitment(rid)
            self._unpark(rid)

    def park(self, rid: int, task: int) -> None:
        """Wait on standby for a strip of the task; parking again keeps the
        first rank."""
        self.standby.setdefault(task, {}).setdefault(rid, None)

    def _drop_commitment(self, rid: int) -> tuple[int, int | None] | None:
        old = self.next.pop(rid, None)
        if old is not None and old[1] is not None and self.holder.get(old) == rid:
            del self.holder[old]
        return old

    def _unpark(self, rid: int) -> None:
        for members in self.standby.values():
            members.pop(rid, None)


@dataclass
class GameRecord:
    gid: int
    kind: str  # "noidle" | "resilience"
    tick: int
    trigger: int  # idling robot or failed robot
    players: tuple[int, ...]
    initial: tuple
    final: tuple
    phi_init: float
    phi_star: float
    gain_players: float
    team_phi_init: float
    team_phi_star: float
    gain_team: float
    assigned: dict[int, int | None]
    standby: tuple[int, ...]
    solve_wall_s: float


@dataclass
class MetricsRecord:
    cr: float
    ct_s: float
    rr_min: float | None
    rr_mean: float | None
    rr_max: float | None
    notf: int
    targets_placed: int
    totd: dict[int, float | None]
    games_noidle: int
    games_resilience: int
    gp_min: float | None
    gt_min: float | None
    end_reason: str
    ticks: int


@dataclass
class TrajectoryLog:
    """Each live robot's row (tick, robot, x_m, y_m, cell_x, cell_y, mode) at
    each tick, kept as the moves that change it. A robot's row is piecewise
    constant between events, so the log has an entry (tick, robot, cell_x,
    cell_y, mode) on its first row and whenever its cell or mode differs from
    its previous row, and (tick, robot, None, None, None) on the first tick it
    has no row, its failure. Every robot with a row has its first on the
    first entry's tick, and that tick's entries are in robot id order. The
    metres are the cell's center, read from `xs` and `ys`. Iterating yields
    every row, in tick then robot order."""

    xs: list[float] = field(default_factory=list)  # the center's metres per cell_x
    ys: list[float] = field(default_factory=list)  # and per cell_y
    moves: list[tuple[int, int, int | None, int | None, str | None]] = field(default_factory=list)
    last_tick: int = 0  # rows run up to this tick

    def by_tick(self, make):
        """Yield (tick, rows) for each tick from the first entry's to
        `last_tick`. `rows` maps each live robot, in id order, to
        `make(robot, cell_x, cell_y, mode)` of its last move, made once per
        move; it is one dict updated in place, so read it before the next
        tick."""
        moves = self.moves
        if not moves:
            return
        rows: dict = {}
        i, n = 0, len(moves)
        for tick in range(moves[0][0], self.last_tick + 1):
            while i < n and moves[i][0] == tick:
                _tick, rid, cx, cy, mode = moves[i]
                i += 1
                if mode is None:
                    del rows[rid]
                else:
                    rows[rid] = make(rid, cx, cy, mode)
            yield tick, rows

    def __iter__(self):
        xs, ys = self.xs, self.ys
        for tick, rows in self.by_tick(lambda rid, cx, cy, mode: (rid, xs[cx], ys[cy], cx, cy, mode)):
            for row in rows.values():
                yield (tick, *row)


_STATES = tuple(CellState)  # by value


class ChangeLog:
    """The team map's changes in the order made, kept flat: five plain ints
    per change in one list (`flat`), the tick, the robot, the cell's x and y
    and the new state's value. The old state is not kept, as it is always
    UNEXPLORED: the team map writes only UNEXPLORED cells. So the log holds
    no record per change, and the cyclic collector tracks only the list.

    `rows` yields the five ints per change; iterating yields (tick, robot,
    Change) rows. It compares by content."""

    __slots__ = ("flat",)

    def __init__(self) -> None:
        self.flat: list[int] = []

    def add(self, tick: int, robot: int, changes) -> None:
        """Log the changes, `Change` records of UNEXPLORED cells, that the
        robot made on the tick."""
        flat = self.flat
        for (x, y), _old, new in changes:
            flat += (tick, robot, x, y, int(new))

    def rows(self):
        """(tick, robot, x, y, new state value) of each change."""
        it = iter(self.flat)
        return zip(it, it, it, it, it)

    def __len__(self) -> int:
        return len(self.flat) // 5

    def __iter__(self):
        for tick, robot, x, y, new in self.rows():
            yield tick, robot, Change((x, y), _UNEXPLORED, _STATES[new])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChangeLog):
            return NotImplemented
        return self.flat == other.flat


@dataclass
class RunLogs:
    events: list[EventRecord] = field(default_factory=list)
    games: list[GameRecord] = field(default_factory=list)
    changes: ChangeLog = field(default_factory=ChangeLog)
    # logged per move; iterating it, like the files written from it, gives
    # one row per live robot per tick
    trajectories: TrajectoryLog = field(default_factory=TrajectoryLog)
    discoveries: list[tuple[int, int]] = field(default_factory=list)  # (tick, cumulative found)
    # (tick, robot, min(kappa2, live), min(kappa2, live)) per confirmation; the
    # run digests hash these rows, so the repeated field stays
    detector: list[tuple[int, int, int, int]] = field(default_factory=list)
    snapshots: list[tuple[int, str]] = field(default_factory=list)
    liveness_ok: bool = True


@dataclass
class RunResult:
    config: ScenarioConfig
    grid: GridMap
    metrics: MetricsRecord
    logs: RunLogs


class Simulation:
    def __init__(self, config: ScenarioConfig, snapshot_every: int = 0):
        self.config = config
        self.params = config.params
        self.strategy = config.strategy
        self.grid = build_world(config.world, config.seed)
        self.truth = self.grid.ground_truth
        self.snapshot_every = snapshot_every

        self.rng_game = random.Random(f"{config.seed}:game")
        self.rng_noise = random.Random(f"{config.seed}:noise")
        rng_battery = random.Random(f"{config.seed}:battery")

        self.beliefs = Beliefs(self.grid)
        self.robots: dict[int, Robot] = {}
        for spec in config.robots:
            rho0 = spec.rho0
            rho1 = spec.rho1
            if rho0 == "sample":
                rho0 = max(1e-9, rng_battery.gauss(DEFAULT_RHO0, 7.5e-5))
            if rho1 == "sample":
                rho1 = max(1e-9, rng_battery.gauss(DEFAULT_RHO1, 35.0))
            cell = spec.start
            if cell not in self.truth.free_space:  # the parser refuses obstacle cells, not their buffer
                raise ScenarioError(f"robot {spec.id}: start cell {list(cell)} is next to an obstacle")
            self.robots[spec.id] = Robot(
                id=spec.id,
                battery=BatteryParams(rho0=rho0, rho1=rho1),
                cell=cell,
                belief=self.beliefs.view(spec.id),
            )
        self.team = [self.robots[rid] for rid in sorted(self.robots)]
        self._n_failed = self._n_sp = self._n_idle = 0  # robots in FL, SP and ID, kept by `_fire`
        # per team position: the (cell, mode) of the robot's last trajectory
        # entry, None before its first and after its failure
        self._logged: list[tuple[Cell, str] | None] = [None] * len(self.team)

        self._sensor = RangeSensor(self.grid, self.params.sense_radius_m)
        self._strips: dict[int, list[list[Cell]]] = {}
        self.table = Assignments()
        self.queue: list[tuple[str, int]] = []
        self.failures = sorted(config.failures, key=lambda f: (f.time_s, f.robot))
        self._failure_i = 0
        self._last_beat = 0.0  # the team's last heartbeat: live robots all beat together
        self._silent_since: dict[int, float] = {}  # failed, unconfirmed robot -> its last beat
        self._next_sync = 0.0

        self.visited = bytearray(self.grid.width * self.grid.height)  # a flag per cell, 1 once a robot stood there
        self.found_total = 0
        eps = self.grid.epsilon
        self.logs = RunLogs(
            trajectories=TrajectoryLog(
                xs=[(x + 0.5) * eps for x in range(self.grid.width)],
                ys=[(y + 0.5) * eps for y in range(self.grid.height)],
            )
        )
        self.tick = 0
        self.now = 0.0
        self._gid = 0
        free = len(self.truth.free_space)
        self.tick_bound = 200 + int(10 * free / self.params.omega / self.params.tick_s)

    # ------------------------------------------------------------------ setup

    def _strips_of(self, task_id: int) -> list[list[Cell]]:
        if task_id not in self._strips:
            self._strips[task_id] = partition_subregions(self.grid, task_id, self.params.n_max)
        return self._strips[task_id]

    def _initial_assignments(self) -> None:
        for r in self.team:
            self._fire(r, "e0")
        by_task: dict[int, list[Robot]] = {}
        for r in self.team:
            by_task.setdefault(self.grid.task_of[self.grid.idx(r.cell)], []).append(r)
        for task in sorted(by_task):
            group = by_task[task]
            if len(group) == 1:
                self._assign_region(group[0], task, None)
                continue
            strips = self._strips_of(task)
            existing = [(r.id, self._probe_p(r, task), self._pos(r), None) for r in group]
            assignment = post_game_assign(strips, self.grid, [], existing)
            for r in group:
                if r.id in assignment:
                    self._assign_region(r, task, assignment[r.id])
                else:
                    # crowded start cell: no strip left, so the robot starts as
                    # if it had just finished a region of the task
                    self.table.assign(r.id, task, None)
                    self.table.release(r.id, "slot")
                    r.mode = "tasking"
        for r in self.team:
            self._sense(r, r.cell)

    def _probe_p(self, r: Robot, task_id: int) -> float:
        task = self.grid.tasks[task_id]
        return success_probability(
            r.battery,
            r.t_k,
            math.dist(self._pos(r), task.centroid_m),
            self.params.u,
            task.n_unexplored,
            self.params.omega,
        )

    # ------------------------------------------------------------- primitives

    def _pos(self, r: Robot) -> tuple[float, float]:
        """Where the robot stands: its cell's center, in meters."""
        return self.grid.cell_center(r.cell)

    def _fire(self, r: Robot, event: str, payload: tuple = ()) -> None:
        """The only writer of `r.des`, and of the FL, SP and ID counts."""
        before = r.des
        r.des = after = step(before, event)
        self._n_failed += (after is _FAILED) - (before is _FAILED)
        self._n_sp += (after is _STOPPED) - (before is _STOPPED)
        self._n_idle += (after is _IDLE) - (before is _IDLE)
        self.logs.events.append(
            EventRecord(tick=self.tick, robot=r.id, event=event, before=before, after=after, payload=payload)
        )

    def _sense(self, r: Robot, cell: Cell) -> bool:
        """Apply the range reading at `cell`; True if it read an obstacle."""
        obstacles = self._sensor.read(cell)
        if not obstacles:
            return False
        mark_sensed(r.belief, obstacles)
        self.logs.changes.add(self.tick, r.id, mark_sensed(self.grid, obstacles))
        return True

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

    def _assign_region(self, r: Robot, task_id: int, strip_idx: int | None) -> None:
        """Point a robot at a task (whole) or one strip of it and get it going."""
        self.table.assign(r.id, task_id, strip_idx)
        if strip_idx is None:
            unexplored = r.belief.watch(self.grid.tasks[task_id].cells)
        else:
            unexplored = r.belief.watch(self._strips_of(task_id)[strip_idx])
        self._dispatch(r, unexplored)

    def _free_strip(self, r: Robot, task: int) -> int | None:
        """Nearest strip of the task that nobody holds and that the robot's
        belief still shows unexplored cells in; None if there is none."""
        strips = self._strips_of(task)
        free = [
            k
            for k in range(len(strips))
            if (task, k) not in self.table.holder
            and any(r.belief.state(c) is _UNEXPLORED for c in strips[k])
        ]
        if not free:
            return None
        pos = self._pos(r)
        return min(free, key=lambda k: (math.dist(pos, centroid_m(strips[k], self.grid.epsilon)), k))

    def _go_idle(self, r: Robot) -> None:
        self._fire(r, "e4")
        self.table.release(r.id, "task")
        r.belief.watch(())
        r.mode = "idle"

    def _dispatch(self, r: Robot, targets: list[Cell] | None = None) -> None:
        """Route a robot toward its region's unexplored cells (`targets`, if just counted)."""
        for _ in range(2):
            if targets is None:
                targets = [c for c in r.region if r.belief.state(c) is _UNEXPLORED]
            found = plan_travel_to_any(r.belief, r.cell, targets) if targets else ([], None)
            if found is None:
                self._resolve_pocket(r, targets)
                targets = None
                continue
            path, _goal = found
            if not path:
                r.mode = "tasking"
                r.path = []
                r.planner = make_planner(r.region, r.cell)
            else:
                r.mode = "traveling"
                r.path = path
                r.path_checked_at = r.belief.n_blocked
                r.travel_m = 0.0
                r.planner = None
            return
        raise LivenessError(f"robot {r.id} cannot reach or resolve region cells")

    def _resolve_pocket(self, r: Robot, cells) -> None:
        """Mark a belief-enclosed unknown pocket from ground truth.

        Reachability is blocked only by known obstacle/forbidden cells, so
        with connected free space an enclosed pocket cannot contain
        coverable cells; anything else is a scenario-contract violation.
        """
        stuck = sorted(self.truth.free_space.intersection(cells))
        if stuck:
            raise LivenessError(
                f"coverable cells walled off (disconnected free space?): {stuck[:5]}"
            )
        obstacles: set[Cell] = set()
        for c in cells:
            if c in self.truth.obstacles:
                obstacles.add(c)
            x, y = c
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    nb = (x + dx, y + dy)
                    if nb in self.truth.obstacles:
                        obstacles.add(nb)
        found = sorted(obstacles)
        mark_sensed(r.belief, found)
        self.logs.changes.add(self.tick, r.id, mark_sensed(self.grid, found))
        leftover = [c for c in sorted(cells) if r.belief.state(c) is _UNEXPLORED]
        if leftover:
            raise LivenessError(f"pocket resolution left unexplored cells: {leftover[:5]}")

    # ------------------------------------------------------------------ ticks

    def run(self) -> RunResult:
        self._initial_assignments()
        if self.snapshot_every:
            self._snapshot()
        end = None
        while end is None:
            self.tick += 1
            self.now = self.tick * self.params.tick_s
            self._deliver_messages()
            self._apply_scheduled_failures()
            self._detection_pass()
            for r in self.team:
                if r.des is _WORKING:
                    self._advance(r)
            self._resolve_one_game()
            self._stop_sweep()
            self._log_trajectories()
            if self.snapshot_every and self.tick % self.snapshot_every == 0:
                self._snapshot()
            end = self._end_reason()
        ok_reasons = {"complete", "all_failed"}
        if self.strategy in ("NONCO", "FR"):
            ok_reasons.add("quiesced")
        self.logs.liveness_ok = end in ok_reasons
        if self.snapshot_every:
            self._snapshot()
        metrics = self._compute_metrics(end)
        log.info(
            "run finished: %s after %d ticks, CR=%.4f CT=%.1fs games=%d",
            end,
            self.tick,
            metrics.cr,
            metrics.ct_s,
            len(self.logs.games),
        )
        return RunResult(config=self.config, grid=self.grid, metrics=metrics, logs=self.logs)

    def _deliver_messages(self) -> None:
        if self.now - self._last_beat >= self.params.heartbeat_s - 1e-9:
            self._last_beat = self.now
        if self.now + 1e-9 >= self._next_sync:
            self._next_sync += self.params.sync_every_s
            if self.grid.since_sync:
                self._sensor.settle(self.grid.since_sync)
                self.beliefs.sync()

    def _apply_scheduled_failures(self) -> None:
        while self._failure_i < len(self.failures) and self.failures[self._failure_i].time_s <= self.now:
            spec = self.failures[self._failure_i]
            self._failure_i += 1
            r = self.robots[spec.robot]
            if r.des in (_FAILED, _STOPPED):
                log.warning("failure of robot %d at t=%.0f ignored (state %s)", r.id, spec.time_s, r.des.value)
                continue
            self._fire(r, "e7")
            self.beliefs.detach(r.id)
            self._silent_since[r.id] = self._last_beat
            r.mode = "idle"
            r.path = []
            r.planner = None
            self.table.release(r.id)

    def _detection_pass(self) -> None:
        """Confirm, in id order, the failed robots silent for more than `t0_s`
        if a live robot is left to hear the silence."""
        if not self._silent_since:
            return
        live = len(self.team) - self._n_failed
        if not live:
            return
        heard = min(self.params.kappa2, live)
        for u in detect_failures(self._silent_since, self.now, self.params.t0_s):
            del self._silent_since[u]
            self.logs.detector.append((self.tick, u, heard, heard))
            log.info("t=%d: robot %d confirmed failed", self.tick, u)
            if self.strategy == "CARE":
                self._handle_confirmed_failure(u)

    def _working_in(self, task: int, exclude: int | None = None) -> list[int]:
        """Live robots physically tasking inside the task right now."""
        return [
            r.id
            for r in self.team
            if r.id != exclude
            and r.des is not _FAILED
            and self.table.task.get(r.id) == task
            and r.mode == "tasking"
            and r.region
        ]

    def _handle_confirmed_failure(self, failed_id: int) -> None:
        task = self.table.task.get(failed_id)
        if task is None or self.grid.tasks[task].n_unexplored == 0:
            return
        if self._working_in(task, exclude=failed_id):
            # Takeover: co-workers keep the task, standbys fill the freed slot.
            self._reactivate_standbys(task)
            return
        self.queue.append(("resilience", failed_id))

    def _reactivate_standbys(self, task: int) -> None:
        for rid in list(self.table.standby.get(task, ())):
            r = self.robots[rid]
            if r.des is not _IDLE:
                continue
            best = self._free_strip(r, task)
            if best is None:
                break
            self._fire(r, "e1", payload=("reactivate", task))
            self._fire(r, "e3", payload=(task,))
            self._assign_region(r, task, best)

    # ------------------------------------------------------------ robot moves

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
            self._sense(r, r.cell)
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

    def _workload_complete(self, r: Robot) -> None:
        self.table.release(r.id, "slot")
        r.path = []
        r.planner = None
        if r.id in self.table.next:
            self._assign_region(r, *self.table.next[r.id])
            return
        # Stay on the same task while an unclaimed incomplete strip remains.
        task = self.table.task.get(r.id)
        if task is not None and self.grid.tasks[task].n_unexplored > 0:
            best = self._free_strip(r, task)
            if best is not None:
                self._assign_region(r, task, best)
                return
        r.belief.watch(())
        r.mode = "idle"
        self._fire(r, "e2", payload=(task,))
        if self.strategy == "NONCO":
            self._go_idle(r)
        else:
            self.queue.append(("noidle", r.id))

    # ------------------------------------------------------------------ games

    def _team_snapshot(self) -> TeamSnapshot:
        """The live team as its games see it."""
        views = {}
        for r in self.team:
            if r.des is _FAILED:
                continue
            nxt = self.table.next.get(r.id)
            views[r.id] = RobotView(
                id=r.id,
                pos_m=self._pos(r),
                task=self.table.task.get(r.id),
                region_unexplored=r.region_unexplored(),
                mode=r.mode,
                des=r.des,
                battery=r.battery,
                tasking_time_s=r.t_k,
                next_task=None if nxt is None else nxt[0],
            )
        return TeamSnapshot(grid=self.grid, params=self.params, robots=views)

    def _resolve_one_game(self) -> None:
        retry: list[tuple[str, int]] = []
        resolved = False
        while self.queue and not resolved:
            kind, subject = self.queue.pop(0)
            if kind == "noidle":
                r = self.robots[subject]
                if r.des is not DesState.NG:
                    continue
                resolved = self._resolve_noidling(r)
            else:
                task = self.table.task.get(subject)
                if task is None or self.grid.tasks[task].n_unexplored == 0:
                    continue
                if self._working_in(task, exclude=subject):
                    continue  # taken over meanwhile, nothing to re-optimize
                resolved = self._resolve_resilience(self.robots[subject], task)
                if not resolved:
                    retry.append((kind, subject))  # no eligible players right now
        self.queue = retry + self.queue

    def _solve(self, game) -> tuple[tuple, float, float, float]:
        """Max-Logit solve: (final action, initial and final potential, wall time)."""
        t0 = time.perf_counter()
        a_star = max_logit(game, self.rng_game)
        wall = time.perf_counter() - t0
        return a_star, potential(game, game.initial), potential(game, a_star), wall

    def _resolve_noidling(self, trigger: Robot) -> bool:
        """The idler's no-idling game, or idle (`e4`) on an empty menu. FR's
        one-player game is settled by the idler's best response, the menu
        task that pays it most, ties to the lowest task id."""
        snap = self._team_snapshot()
        menu = noidling_action_menu(snap)
        if not menu:
            self._go_idle(trigger)
            return False
        rows = build_team_model(snap)
        if self.strategy == "FR":
            game = build_first_responder_game(trigger.id, snap, rows, menu)
            pay = {r: utility(game, 0, (r,)) for r in game.actions}
            best = min(game.actions, key=lambda r: (-pay[r], r))
            solved = ((best,), 0.0, pay[best], 0.0)
        else:
            game = build_noidling_game(trigger.id, snap, rows, menu, self.rng_game)
            for v in game.players:
                if v != trigger.id:
                    self._fire(self.robots[v], "e5", payload=(trigger.id,))
            solved = self._solve(game)
        self._apply_game(game, snap, rows, "noidle", trigger.id, solved)
        return True

    def _resolve_resilience(self, dead: Robot, task: int) -> bool:
        snap = self._team_snapshot()
        rows = build_team_model(snap)
        game = build_resilience_game(dead.id, self._pos(dead), task, snap, rows)
        if game is None:
            return False
        for v in game.players:
            self._fire(self.robots[v], "e1", payload=(dead.id,))
        self._apply_game(game, snap, rows, "resilience", dead.id, self._solve(game))
        return True

    def _place_incoming(
        self, task: int, arrivals: list[int], rows, skip: set[int]
    ) -> dict[int, int | None]:
        """Slot new arrivals into a task and re-strip its current holders.

        A single arrival into an unheld task takes it whole; otherwise the
        strip coordination runs: holders keep (or shrink to) the strip at
        their position, inbound reservations hold theirs, arrivals rank by
        success probability. Returns arrival placements; unplaced arrivals
        are absent (standby).
        """
        existing = []
        committed = set()
        for r in self.team:
            claim = self.table.claim(r.id, task)
            if claim is None or r.des is _FAILED or r.id in skip or r.id in arrivals:
                continue
            existing.append((r.id, rows[r.id][task], self._pos(r), claim[1]))
            if claim[0] == "commits":
                committed.add(r.id)
        if not existing and len(arrivals) == 1:
            return {arrivals[0]: None}
        incoming = [(v, rows[v][task], self._pos(self.robots[v])) for v in arrivals]
        placement = post_game_assign(self._strips_of(task), self.grid, incoming, existing)
        for rid, _p, _pos, old_strip in existing:
            if rid in placement and placement[rid] != old_strip:
                if rid in committed:
                    self.table.commit(rid, task, placement[rid])
                else:
                    self._assign_region(self.robots[rid], task, placement[rid])
        return {v: placement[v] for v in arrivals if v in placement}

    def _apply_game(self, game, snap: TeamSnapshot, rows, kind: str, trigger: int, solved: tuple) -> None:
        """Settle a solved game: place, park or idle its players and log it.
        `solved` is the solver's (final action, initial and final potential,
        wall time); the potentials are logged as given, never recomputed."""
        a_star, phi_init, phi_star, solve_wall_s = solved
        gp = gain(phi_star, phi_init, sum_in_order(game.worth.values()))

        # The reallocation changes only the players' slice of the team
        # potential: non-player and finish-first contributions are invariant,
        # so the team potential moves exactly with the players' potential.
        # The tasks' worths are still the snapshot's: no cell has been
        # covered since it was taken.
        team_init = team_phi(snap, rows, game.players, game.initial)
        team_star = team_init + (phi_star - phi_init)
        gt = gain(team_star, team_init, sum_in_order(t.worth for t in self.grid.tasks.values()))

        players = list(game.players)
        assigned_log: dict[int, int | None] = {}
        standby_log: list[int] = []
        stay: dict[int, bool] = {}
        incoming_by_task: dict[int, list[int]] = {}
        for v, act in zip(players, a_star):
            if act not in game.rank:
                assigned_log[v] = None
                continue
            assigned_log[v] = act
            if self.table.claim(v, act) is not None:
                stay[v] = True
            else:
                incoming_by_task.setdefault(act, []).append(v)

        skip = {v for v in players if not stay.get(v)}
        for task in sorted(incoming_by_task):
            arrivals = incoming_by_task[task]
            placements = self._place_incoming(task, arrivals, rows, skip)
            for v in arrivals:
                r = self.robots[v]
                if v in placements:
                    self._fire(r, "e3", payload=(task,))
                    if rows[v].pending_s > 0.0 and r.region:
                        # finish the near-done current region first
                        self.table.commit(v, task, placements[v])
                    else:
                        self._assign_region(r, task, placements[v])
                else:
                    standby_log.append(v)
                    assigned_log[v] = None
                    self.table.park(v, task)
                    if r.region_unexplored() > 0:
                        self._fire(r, "e3", payload=(self.table.task.get(v),))
                    else:
                        self._go_idle(r)

        for v in players:
            r = self.robots[v]
            if r.des not in (DesState.NG, DesState.RG):
                continue  # already routed above
            if stay.get(v) or (assigned_log[v] is None and r.region_unexplored() > 0):
                self._fire(r, "e3", payload=(self.table.task.get(v),))
            else:
                self._go_idle(r)

        self._gid += 1
        self.logs.games.append(
            GameRecord(
                gid=self._gid,
                kind=kind,
                tick=self.tick,
                trigger=trigger,
                players=tuple(players),
                initial=tuple(game.initial),
                final=tuple(a_star),
                phi_init=phi_init,
                phi_star=phi_star,
                gain_players=gp,
                team_phi_init=team_init,
                team_phi_star=team_star,
                gain_team=gt,
                assigned=assigned_log,
                standby=tuple(standby_log),
                solve_wall_s=solve_wall_s,
            )
        )
        log.info(
            "t=%d: %s game %d players=%s G_P=%.4f G_T=%.4f",
            self.tick,
            kind,
            self._gid,
            players,
            gp,
            gt,
        )

    # ------------------------------------------------------------- accounting

    def _stop_sweep(self) -> None:
        if self.grid.unexplored_total > 0:
            return
        for r in self.team:
            if r.des is _IDLE:
                self._fire(r, "e6")  # ID is entered only through _go_idle: no task, mode idle

    def _log_trajectories(self) -> None:
        """Log each live robot whose cell or mode differs from its last
        entry, and the end of each robot that failed this tick."""
        trajectories, logged = self.logs.trajectories, self._logged
        tick = trajectories.last_tick = self.tick
        moves = trajectories.moves
        for i, r in enumerate(self.team):
            last = logged[i]
            if r.des is _FAILED:
                if last is not None:
                    moves.append((tick, r.id, None, None, None))
                    logged[i] = None
            elif last is None or r.cell != last[0] or r.mode != last[1]:
                cell, mode = logged[i] = r.cell, r.mode
                moves.append((tick, r.id, cell[0], cell[1], mode))

    def _snapshot(self) -> None:
        self.logs.snapshots.append((self.tick, map_text(self.grid)))

    def _end_reason(self) -> str | None:
        live = len(self.team) - self._n_failed
        if not live:
            return "all_failed"
        if self._n_sp == live:
            return "complete"
        if self._n_idle == live and not self.queue:
            return "stalled" if self.strategy == "CARE" else "quiesced"
        if self.tick >= self.tick_bound:
            return "tick_bound"
        return None

    def _compute_metrics(self, end: str) -> MetricsRecord:
        live = [r for r in self.team if r.des is not _FAILED]
        cr = coverage_fraction(self.truth, self.visited)
        if live:
            ct = max(r.last_active for r in live) * self.params.tick_s
            rr = sorted(reliability(r.battery, r.t_k) for r in live)
            rr_min, rr_max = rr[0], rr[-1]
            rr_mean = sum_in_order(rr) / len(rr)
        else:
            ct = max((r.last_active for r in self.team), default=0) * self.params.tick_s
            rr_min = rr_mean = rr_max = None
        placed = len(self.grid.targets)
        totd: dict[int, float | None] = {}
        for pct in range(10, 101, 10):
            need = pct * placed / 100.0 - 1e-9
            hit = next((t for t, cum in self.logs.discoveries if cum >= need), None)
            if placed == 0:
                hit = None
            totd[pct] = None if hit is None else hit * self.params.tick_s
        games = self.logs.games
        gps = [g.gain_players for g in games]
        gts = [g.gain_team for g in games]
        return MetricsRecord(
            cr=cr,
            ct_s=ct,
            rr_min=rr_min,
            rr_mean=rr_mean,
            rr_max=rr_max,
            notf=self.found_total,
            targets_placed=placed,
            totd=totd,
            games_noidle=sum(1 for g in games if g.kind == "noidle"),
            games_resilience=sum(1 for g in games if g.kind == "resilience"),
            gp_min=min(gps) if gps else None,
            gt_min=min(gts) if gts else None,
            end_reason=end,
            ticks=self.tick,
        )


def run(config: ScenarioConfig, snapshot_every: int = 0) -> RunResult:
    """Execute one scenario to completion; bit-reproducible per (config, seed)."""
    return Simulation(config, snapshot_every=snapshot_every).run()
