"""Grid tiling, per-cell state, task partition, targets, map merging and
the robots' beliefs.

The team's symbolic map starts fully unexplored; obstacle and forbidden
cells are discovered online from sensor readings against a hidden ground
truth layer. Cell states only ever move away from Unexplored and never
change again afterwards, which makes merging change sets a simple
precedence join.

Only the team map keeps per-task records: the unexplored and found
counts and the worth still to find (`TaskRegion.worth`), which moves only
when a target is found there.

Every sync leaves every live robot's belief the team map, so the team map
is the only map. It keeps the state each cell written since the last sync
had then (`since_sync`), and a robot's belief is a `BeliefView`: the
robot's own writes since the last sync over the team map as of that sync.
A view counts the unexplored cells of one watched region, the cells the
robot is working, so "is my region done?" is a read, never a rescan; a
cell -> watching robots index lets a sync update those counts from
`since_sync`.

Every map counts its writes of FORBIDDEN or OBSTACLE (`n_blocked`), and a
view counts the team map's as of the last sync and its own. Only such a
write can block a path planned on the map, so the engine re-checks a
travelling robot's path only when its belief's count has moved.

The range sensor (`RangeSensor`) holds only the truth obstacles some live
belief may still lack. A reading changes only UNEXPLORED cells, and a sync
leaves every live belief holding each cell the team map wrote since the
last one, for good; so at each sync the sensor drops those cells
(`RangeSensor.settle`), and a reading of a dropped cell would have changed
nothing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple

from .models import remaining_worth
from .scenario import Rect, WorldSpec

Cell = tuple[int, int]


class CellState(IntEnum):
    """Per-cell knowledge. Integer order doubles as merge precedence."""

    UNEXPLORED = 0
    EXPLORED = 1
    FORBIDDEN = 2
    OBSTACLE = 3


# Module names for the members the hot paths read, because reading an enum
# member off its class costs about 0.2 us on CPython 3.11.
_UNEXPLORED = CellState.UNEXPLORED
_EXPLORED = CellState.EXPLORED
_FORBIDDEN = CellState.FORBIDDEN
_OBSTACLE = CellState.OBSTACLE
_BLOCKED = _FORBIDDEN  # states from this one up block travel


class Change(NamedTuple):
    cell: Cell
    old: CellState
    new: CellState


@dataclass
class Target:
    cell: Cell
    discovered: bool = False


@dataclass
class TaskRegion:
    id: int
    cells: tuple[Cell, ...]
    bbox: Rect
    lam: float  # expected target count
    found: int = 0  # targets discovered so far
    n_unexplored: int = 0
    worth: float = 0.0  # remaining_worth(lam, found), kept by build_world and mark_covered
    centroid_m: tuple[float, float] = (0.0, 0.0)


@dataclass(frozen=True)
class GroundTruth:
    """Hidden occupancy layer used by the sensing oracle and the metrics."""

    obstacles: frozenset[Cell]
    free_space: frozenset[Cell]  # coverable cells: neither obstacle nor 8-adjacent to one


@dataclass
class GridMap:
    width: int
    height: int
    epsilon: float
    cells: list[CellState]
    task_of: list[int]  # task id per cell index, shared and immutable
    tasks: dict[int, TaskRegion]
    targets: list[Target] = field(default_factory=list)
    targets_at: dict[Cell, list[int]] = field(default_factory=dict)
    ground_truth: GroundTruth | None = None
    unexplored_total: int = 0
    n_blocked: int = 0  # writes of FORBIDDEN or OBSTACLE so far
    # flat index -> state at the last sync, for each cell written since
    since_sync: dict[int, CellState] = field(default_factory=dict)

    def idx(self, cell: Cell) -> int:
        return cell[1] * self.width + cell[0]

    def in_bounds(self, cell: Cell) -> bool:
        return 0 <= cell[0] < self.width and 0 <= cell[1] < self.height

    def state(self, cell: Cell) -> CellState:
        return self.cells[self.idx(cell)]

    def at(self, i: int) -> CellState:
        return self.cells[i]

    def state_bytes(self) -> bytearray:
        """A new bytearray of the cell states, for the travel planner."""
        return bytearray(self.cells)

    def cell_center(self, cell: Cell) -> tuple[float, float]:
        return ((cell[0] + 0.5) * self.epsilon, (cell[1] + 0.5) * self.epsilon)

    def cell_of_position(self, x_m: float, y_m: float) -> Cell:
        return (int(x_m // self.epsilon), int(y_m // self.epsilon))

    def _set_state(self, i: int, cell: Cell, new: CellState) -> None:
        """Write `new` (never UNEXPLORED) to `cell`, whose index is i. The
        only writer of the cells, of `since_sync`, of the unexplored
        counters, which a cell leaves when it leaves UNEXPLORED, once, and
        of `n_blocked`."""
        if new >= _BLOCKED:
            self.n_blocked += 1
        old = self.cells[i]
        self.since_sync.setdefault(i, old)
        if old is _UNEXPLORED:
            self.unexplored_total -= 1
            task = self.tasks.get(self.task_of[i])
            if task is not None:
                task.n_unexplored -= 1
        self.cells[i] = new


class BeliefView:
    """One robot's belief: the robot's own writes since the last sync
    (`own`, flat index -> state) over the team map as of that sync, which
    is the team map's cells (`base`) under its `since_sync` (`since`).

    It reads like a `GridMap` (`state`, `at`, `idx`, `in_bounds`, `width`,
    `height`, `n_blocked`, `state_bytes`), but `cells` builds a new list. Its
    writes (`mark_sensed`, `explore`) go to `own` and only ever replace an
    UNEXPLORED cell, so a cell's state is its own write if it has one, else
    the synced one. Made by `Beliefs.view`.
    """

    __slots__ = (
        "rid",
        "width",
        "height",
        "base",
        "since",
        "own",
        "synced_blocked",
        "own_blocked",
        "watchers",
        "watched",
        "watched_unexplored",
    )

    def __init__(self, rid: int, grid: GridMap, synced_blocked: int, watchers: list[tuple[int, ...]]) -> None:
        self.rid = rid
        self.width = grid.width
        self.height = grid.height
        self.base = grid.cells  # the team map's cells; a snapshot once detached
        self.since = grid.since_sync
        self.own: dict[int, CellState] = {}
        self.synced_blocked = synced_blocked  # the team map's `n_blocked` at the last sync
        self.own_blocked = 0  # own writes of FORBIDDEN or OBSTACLE, all time
        self.watchers = watchers  # the shared index: flat index -> watching robots
        self.watched: frozenset[Cell] = frozenset()  # region whose unexplored cells are counted
        self.watched_unexplored = 0

    def idx(self, cell: Cell) -> int:
        return cell[1] * self.width + cell[0]

    def in_bounds(self, cell: Cell) -> bool:
        return 0 <= cell[0] < self.width and 0 <= cell[1] < self.height

    def at(self, i: int) -> CellState:
        # an own write is never UNEXPLORED, the only false state
        return self.own.get(i) or self.since.get(i, self.base[i])

    def state(self, cell: Cell) -> CellState:
        i = cell[1] * self.width + cell[0]
        return self.own.get(i) or self.since.get(i, self.base[i])

    @property
    def cells(self) -> list[CellState]:
        """A new list of the view's cell states."""
        cells = list(self.base)
        for layer in (self.since, self.own):
            for i, state in layer.items():
                cells[i] = state
        return cells

    def state_bytes(self) -> bytearray:
        """A new bytearray of the view's cell states, built without `cells`'s list."""
        states = bytearray(self.base)
        for layer in (self.since, self.own):
            for i, state in layer.items():
                states[i] = state
        return states

    @property
    def n_blocked(self) -> int:
        """Moves whenever a blocked cell lands in the view, and also when a
        sync brings one the view already held."""
        return self.synced_blocked + self.own_blocked

    def watch(self, region) -> list[Cell]:
        """Watch a new region (empty for none); count and return its unexplored cells."""
        self._leave_index()
        self.watched = frozenset(region)
        watchers, width, me = self.watchers, self.width, (self.rid,)
        for x, y in self.watched:
            watchers[y * width + x] += me  # a cell's first watcher shares `me`
        unexplored = [c for c in self.watched if self.state(c) is _UNEXPLORED]
        self.watched_unexplored = len(unexplored)
        return unexplored

    def explore(self, cell: Cell) -> None:
        """Mark the cell explored if the view holds it unexplored."""
        i = self.idx(cell)
        if self.at(i) is _UNEXPLORED:
            self._set_state(i, cell, _EXPLORED)

    def _set_state(self, i: int, cell: Cell, new: CellState) -> None:
        """Write `new` (never UNEXPLORED) to `cell`, whose index is i and
        which the view holds UNEXPLORED."""
        if new >= _BLOCKED:
            self.own_blocked += 1
        self.own[i] = new
        if cell in self.watched:
            self.watched_unexplored -= 1

    def _leave_index(self) -> None:
        watchers, width, rid, me = self.watchers, self.width, self.rid, (self.rid,)
        for x, y in self.watched:
            i = y * width + x
            held = watchers[i]
            watchers[i] = () if held == me else tuple(v for v in held if v != rid)


def neighbors8(cell: Cell, width: int, height: int) -> list[Cell]:
    x, y = cell
    out = []
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            nx, ny = x + dx, y + dy
            if 0 <= nx < width and 0 <= ny < height:
                out.append((nx, ny))
    return out


def centroid_m(cells: tuple[Cell, ...] | list[Cell], epsilon: float) -> tuple[float, float]:
    n = len(cells)
    if n == 0:
        return (0.0, 0.0)
    sx = sum(c[0] + 0.5 for c in cells)
    sy = sum(c[1] + 0.5 for c in cells)
    return (sx * epsilon / n, sy * epsilon / n)


def _sample_poisson(lam: float, rng: random.Random) -> int:
    """Knuth's product method: one uniform draw per count, so it suits the
    small per-task means used here."""
    if lam <= 0:
        return 0
    limit = math.exp(-lam)
    count = 0
    product = rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count


def build_ground_truth(spec: WorldSpec) -> GroundTruth:
    obstacles = frozenset(spec.obstacles)
    buffer: set[Cell] = set()
    for cell in obstacles:
        for nb in neighbors8(cell, spec.width, spec.height):
            if nb not in obstacles:
                buffer.add(nb)
    free = frozenset(
        (x, y)
        for y in range(spec.height)
        for x in range(spec.width)
        if (x, y) not in obstacles and (x, y) not in buffer
    )
    return GroundTruth(obstacles=obstacles, free_space=free)


def build_world(spec: WorldSpec, seed: int) -> GridMap:
    """Construct the team map: all cells unexplored, targets hidden.

    Target placement is seeded: sampled mode draws a Poisson count per task
    and scatters uniformly over that task's coverable ground-truth cells
    (repeats allowed, so targets may stack); explicit mode places the listed
    cells verbatim. In explicit mode each task's expected count is set to
    the number actually placed there.
    """
    truth = build_ground_truth(spec)
    task_of = [0] * (spec.width * spec.height)
    tasks: dict[int, TaskRegion] = {}
    for i, rect in enumerate(spec.tasks, start=1):
        cells = tuple(sorted(rect.cells(), key=lambda c: c[1] * spec.width + c[0]))
        for cell in cells:
            task_of[cell[1] * spec.width + cell[0]] = i
        tasks[i] = TaskRegion(
            id=i,
            cells=cells,
            bbox=rect,
            lam=0.0,
            n_unexplored=len(cells),
            centroid_m=centroid_m(cells, spec.epsilon_m),
        )

    grid = GridMap(
        width=spec.width,
        height=spec.height,
        epsilon=spec.epsilon_m,
        cells=[CellState.UNEXPLORED] * (spec.width * spec.height),
        task_of=task_of,
        tasks=tasks,
        ground_truth=truth,
        unexplored_total=spec.width * spec.height,
    )

    placed: list[Cell] = []
    if spec.targets.mode == "sampled":
        rng = random.Random(f"{seed}:targets")
        for i, rect in enumerate(spec.tasks, start=1):
            lam = spec.targets.lam[i - 1] if spec.targets.lam else 0.0
            tasks[i].lam = lam
            open_cells = sorted(c for c in tasks[i].cells if c in truth.free_space)
            if not open_cells:
                continue
            for _ in range(_sample_poisson(lam, rng)):
                placed.append(open_cells[rng.randrange(len(open_cells))])
    else:
        placed = list(spec.targets.cells)
        for cell in placed:
            tasks[task_of[cell[1] * spec.width + cell[0]]].lam += 1.0

    for n, cell in enumerate(placed):
        grid.targets.append(Target(cell=cell))
        grid.targets_at.setdefault(cell, []).append(n)
    for task in tasks.values():
        task.worth = remaining_worth(task.lam, 0)
    return grid


class RangeSensor:
    """The sensing oracle: reads the held ground-truth obstacle cells whose
    centers lie within radius_m of a cell's center, in (x, y) order.

    It holds the truth obstacles some live belief may still lack (`held`).
    `mark_sensed` skips a reading of a cell that is not UNEXPLORED, and a
    sync leaves every live belief the team map, whose cells never return to
    UNEXPLORED. So once a sync has brought a written cell to every live
    belief, a reading of it changes nothing anywhere: `settle` drops the
    cells written since the last sync, just before that sync. A sensor that
    is never settled reads every truth obstacle, with the same effect.

    A reading tests only the cells of a disk stencil of offsets, computed
    once and clipped to the grid, and skips the stencil's columns that hold
    no held cell at all.
    """

    def __init__(self, grid: GridMap, radius_m: float) -> None:
        self.grid = grid  # the team map, which holds the truth
        self.radius = radius_m + 1e-9
        eps = grid.epsilon
        reach = int(radius_m / eps) + 2
        # no offset past the grid's side reaches a cell of the grid
        reach_x, reach_y = min(reach, grid.width), min(reach, grid.height)
        # (dx, [dy, ...]) in (dx, dy) order; a cell of slack leaves the
        # decision on every cell that can be in range to the exact test
        self.columns = []
        for dx in range(-reach_x, reach_x + 1):
            dys = [dy for dy in range(-reach_y, reach_y + 1) if math.hypot(dx, dy) * eps <= radius_m + eps]
            if dys:
                self.columns.append((dx, dys))
        self.held = set(grid.ground_truth.obstacles)
        self.held_in_column: dict[int, int] = {}  # x -> held cells in column x, for x with some
        for x, _y in self.held:
            self.held_in_column[x] = self.held_in_column.get(x, 0) + 1

    def settle(self, written) -> None:
        """Drop the held cells among `written` (flat indices of cells the
        team map wrote since the last sync), just before that sync."""
        held, per_column, width = self.held, self.held_in_column, self.grid.width
        if not held:
            return
        for i in written:
            y, x = divmod(i, width)
            if (x, y) in held:
                held.remove((x, y))
                per_column[x] -= 1
                if not per_column[x]:
                    del per_column[x]

    def read(self, cell: Cell) -> list[Cell]:
        """The obstacle cells in range, for `mark_sensed`."""
        held, per_column = self.held, self.held_in_column
        if not held:
            return []
        pos = self.grid.cell_center(cell)
        x, y = cell
        readings = []
        for dx, dys in self.columns:
            if x + dx not in per_column:
                continue
            for dy in dys:
                c = (x + dx, y + dy)
                if c in held and math.dist(self.grid.cell_center(c), pos) <= self.radius:
                    readings.append(c)
        return readings


def mark_sensed(grid: GridMap, obstacles) -> list[Change]:
    """Apply sensed obstacle cells: they become obstacles and their
    unexplored 8-neighborhood becomes forbidden. Idempotent; only
    unexplored cells ever change state."""
    changes: list[Change] = []
    marked: list[Cell] = []
    at = grid.at
    for cell in obstacles:
        if not grid.in_bounds(cell):
            raise ValueError(f"reading outside the grid: {cell}")
        i = grid.idx(cell)
        if at(i) is not _UNEXPLORED:
            continue
        grid._set_state(i, cell, _OBSTACLE)
        changes.append(Change(cell, _UNEXPLORED, _OBSTACLE))
        marked.append(cell)
    # buffers go in a second pass so adjacent obstacles within one batch
    # never shadow each other into Forbidden
    for cell in marked:
        for nb in neighbors8(cell, grid.width, grid.height):
            i = grid.idx(nb)
            if at(i) is _UNEXPLORED:
                grid._set_state(i, nb, _FORBIDDEN)
                changes.append(Change(nb, _UNEXPLORED, _FORBIDDEN))
    return changes


def mark_covered(grid: GridMap, cell: Cell) -> tuple[Change | None, int]:
    """Mark a visited cell explored and surface any targets hidden there."""
    i = grid.idx(cell)
    state = grid.cells[i]
    if state >= _BLOCKED:
        raise ValueError(f"covering a blocked cell {cell} ({state.name}): planner bug")
    if state is _EXPLORED:
        return None, 0
    grid._set_state(i, cell, _EXPLORED)
    discovered = 0
    for t_index in grid.targets_at.get(cell, ()):
        target = grid.targets[t_index]
        if not target.discovered:
            target.discovered = True
            discovered += 1
    if discovered:
        task = grid.tasks[grid.task_of[i]]
        task.found += discovered
        task.worth = remaining_worth(task.lam, task.found)
    return Change(cell, _UNEXPLORED, _EXPLORED), discovered


def merge_maps(grid: GridMap, remote_changes) -> GridMap:
    """Fold remote state changes into a map.

    Conflicts resolve by precedence Obstacle > Forbidden > Explored >
    Unexplored, making the merge commutative and idempotent over change
    sets. Mutates and returns `grid`; builds no change records.
    """
    cells, width, height = grid.cells, grid.width, grid.height
    for change in remote_changes:
        x, y = cell = change.cell
        if not (0 <= x < width and 0 <= y < height):
            raise ValueError(f"change outside the grid: {cell}")
        i = y * width + x
        if change.new > cells[i]:
            grid._set_state(i, cell, change.new)
    return grid


class Beliefs:
    """The robots' beliefs over the team map: a view per live robot.

    Nothing in the team map or the views refers back to this object or to
    another view, so a finished run is freed without the cyclic collector.
    The index holds tuples, mostly shared one-robot ones, because nearly
    every task cell is watched at some time and a set per cell would cost
    more memory.
    """

    def __init__(self, grid: GridMap) -> None:
        self.grid = grid
        self.n_blocked = grid.n_blocked  # the team map's at the last sync
        # flat index -> robots whose view watches the cell
        self.watchers: list[tuple[int, ...]] = [()] * len(grid.cells)
        self.views: dict[int, BeliefView] = {}  # the live robots' views

    def view(self, rid: int) -> BeliefView:
        """A new robot's view, which watches nothing yet."""
        self.views[rid] = view = BeliefView(rid, self.grid, self.n_blocked, self.watchers)
        return view

    def sync(self) -> None:
        """Bring every live view to the team map. A view drops its own
        writes, each of a cell UNEXPLORED at the last sync, which its
        watched count takes back: the team map may not have written the
        cell, as it skips a reading on a cell it wrote since. Then each cell
        the team map took out of UNEXPLORED since lowers its watchers'
        counts."""
        grid, watchers, views = self.grid, self.watchers, self.views
        self.n_blocked = n_blocked = grid.n_blocked
        for rid, view in views.items():
            for i in view.own:
                if rid in watchers[i]:
                    view.watched_unexplored += 1
            view.own.clear()
            view.synced_blocked = n_blocked
        for i, old in grid.since_sync.items():
            if old is _UNEXPLORED:
                for rid in watchers[i]:
                    views[rid].watched_unexplored -= 1
        grid.since_sync.clear()

    def detach(self, rid: int) -> None:
        """Stop syncing a failed robot's view. It keeps what it holds now,
        as a snapshot list of its cells, and leaves the index."""
        view = self.views.pop(rid)
        view._leave_index()
        view.watchers = None  # a failed robot watches no new region
        view.base = view.cells
        view.since, view.own = {}, {}


def coverage_fraction(truth: GroundTruth, visited: set[Cell]) -> float:
    """Coverage over cells a robot actually occupied (noise-independent)."""
    if not truth.free_space:
        return 1.0
    return len(visited & truth.free_space) / len(truth.free_space)


def map_text(grid: GridMap) -> str:
    """The map as text, one line per row: U/E/F/O for unexplored, explored,
    forbidden and obstacle cells."""
    return "".join(
        "".join("UEFO"[grid.state((x, y))] for x in range(grid.width)) + "\n" for y in range(grid.height)
    )


def partition_subregions(grid: GridMap, task_id: int, n_max: int) -> list[list[Cell]]:
    """Split a task into n_max equal strips along its longer bbox axis.

    Strip boundaries fall on whole rows/columns; when the side is not
    evenly divisible the leading strips take the extra line. A square bbox
    splits into columns. If n_max exceeds the cell count, each cell becomes
    its own sub-region and the extras stay empty.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    task = grid.tasks[task_id]
    cells = sorted(task.cells, key=lambda c: grid.idx(c))
    if n_max >= len(cells):
        out = [[c] for c in cells]
        out.extend([] for _ in range(n_max - len(cells)))
        return out
    bbox = task.bbox
    split_rows = bbox.h > bbox.w
    side = bbox.h if split_rows else bbox.w
    base, extra = divmod(side, n_max)
    bounds = []
    lo = bbox.y if split_rows else bbox.x
    for k in range(n_max):
        size = base + (1 if k < extra else 0)
        bounds.append((lo, lo + size))
        lo += size
    out = [[] for _ in range(n_max)]
    for cell in cells:
        coord = cell[1] if split_rows else cell[0]
        for k, (a, b) in enumerate(bounds):
            if a <= coord < b:
                out[k].append(cell)
                break
    return out
