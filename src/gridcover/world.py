"""Grid tiling, per-cell state, task partition, targets, map merging and
the robots' beliefs.

The team's symbolic map starts fully unexplored; obstacle and forbidden
cells are discovered online from sensor readings against a hidden ground
truth layer. Cell states only ever move away from Unexplored and never
change again afterwards, which makes merging change sets a simple
precedence join.

Only the team map keeps per-task records: the unexplored and found
counts and the worth still to find (`TaskRegion.worth`), which moves only
when a target is found there: when its cell, coverable and so never
blocked, turns EXPLORED on the team map.

Every sync leaves every live robot's belief the team map, so the team map
is the only map. It keeps the state each cell written since the last sync
had then (`since_sync`), and a robot's belief is a `BeliefView`: the
robot's own writes since the last sync over the team map as of that sync.
A view counts the unexplored cells of one watched region, the cells the
robot is working, so "is my region done?" is a read, never a rescan; a
cell -> watching robots index lets a sync update those counts from
`since_sync`.

Every map counts its writes of FORBIDDEN or OBSTACLE (`n_blocked`), and a
view counts the team map's as of the last sync, which the live views share,
and its own. So a sync visits only the views written since the last one.
Only a blocked write can block a path planned on the map, so the engine
re-checks a travelling robot's path only when its belief's count has moved.

The travel planner reads a map's free cells as one int (`free_mask`). A
`GridMap` builds it on every call. The live views share one mask of the
team map as of the last sync, kept with the synced `n_blocked` it was
built at (`_Synced.mask_at`), so it is built on first use and again only
once a sync has moved that count. That is exact: the team map's blocked
cells never leave that state, and each new one moves the count. A view
serves the shared mask while it holds no blocked write of its own since
the sync: its own writes then all turn UNEXPLORED cells EXPLORED, both
free, so its free cells are the synced map's. Otherwise it builds its own.

The ground truth is built from row bits (`build_world`), which also give
its coverable cells as flag bytes, one per cell by flat index
(`GroundTruth.free_flags`). A run keeps the cells its robots stood on as
flag bytes of the same layout, so CR (`coverage_fraction`) is one bit count
of the two flag strings' AND, with no set and no loop over cells.

The range sensor (`RangeSensor`) holds, as row bits per column, only the
truth obstacles some live belief may still lack. A reading changes only
UNEXPLORED cells, and a sync leaves every live belief holding each cell the
team map wrote since the last one, for good; so at each sync the sensor
drops those cells (`RangeSensor.settle`), and a reading of a dropped cell
would have changed nothing. A reading whose disk reaches no column holding
a held cell returns at once, which is most readings once the nearby
obstacles are known.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from enum import IntEnum
from functools import partial
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
# bytes.translate table from a cell state to its free-cell bit digit
_FREE_DIGIT = bytes.maketrans(bytes(CellState), b"".join(b"1" if s < _BLOCKED else b"0" for s in CellState))
_DIGIT_FLAG = bytes.maketrans(b"01", b"\0\1")  # bytes.translate table: binary digit -> flag byte


def free_cells(states: bytearray) -> int:
    """The free-cell mask of a map's cell states, bit i set when cell i is
    not blocked. Reverses `states` in place."""
    # the digit string is reversed because int() reads the highest bit first
    states.reverse()
    return int(states.translate(_FREE_DIGIT), 2)


class Change(NamedTuple):
    cell: Cell
    old: CellState
    new: CellState


# Change((cell, old, new)) without the Python-level `__new__` of a NamedTuple,
# for the hot writers
_change = partial(tuple.__new__, Change)


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
    free_flags: bytes  # a byte per cell by flat index: 1 if coverable, neither an obstacle nor next to one, else 0


@dataclass
class GridMap:
    width: int
    height: int
    epsilon: float
    cells: list[CellState]
    task_of: list[int]  # task id per cell index, shared and immutable
    tasks: dict[int, TaskRegion]  # in ascending id order, as build_world inserts them
    targets: list[Cell] = field(default_factory=list)  # the placed cells, in placement order; repeats stack
    targets_at: dict[Cell, int] = field(default_factory=dict)  # cell -> targets placed there
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
        """A new bytearray of the cell states."""
        return bytearray(self.cells)

    def free_mask(self) -> int:
        """The free-cell mask, for the travel planner, built on every call."""
        return free_cells(self.state_bytes())

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


class _Synced:
    """What the live views share with their `Beliefs`: the synced team map's
    `n_blocked` and free-cell mask, the robots whose views wrote since the
    last sync, so that a sync visits only those, and the watcher index."""

    __slots__ = ("n_blocked", "writers", "watchers", "mask", "mask_at")

    def __init__(self, grid: GridMap) -> None:
        self.n_blocked = grid.n_blocked
        self.writers: list[int] = []
        # flat index -> robots whose view watches the cell
        self.watchers: list[tuple[int, ...]] = [()] * len(grid.cells)
        self.mask, self.mask_at = 0, -1  # no mask built yet


class BeliefView:
    """One robot's belief: the robot's own writes since the last sync
    (`own`, flat index -> state) over the team map as of that sync, which
    is the team map's cells (`base`) under its `since_sync` (`since`).

    It reads like a `GridMap` (`state`, `at`, `idx`, `in_bounds`, `width`,
    `height`, `n_blocked`, `state_bytes`, `free_mask`), but `cells` builds a
    new list. Its writes (`mark_sensed`, `explore`) go to `own` and only ever
    replace an UNEXPLORED cell, so a cell's state is its own write if it has
    one, else the synced one. Made by `Beliefs.view`.
    """

    __slots__ = (
        "rid",
        "width",
        "height",
        "base",
        "since",
        "own",
        "synced",
        "own_blocked",
        "own_blocked_at_sync",
        "watched",
        "watched_unexplored",
    )

    def __init__(self, rid: int, grid: GridMap, synced: _Synced) -> None:
        self.rid = rid
        self.width = grid.width
        self.height = grid.height
        self.base = grid.cells  # the team map's cells
        self.since = grid.since_sync
        self.own: dict[int, CellState] = {}
        self.synced = synced  # the live views' shared one
        self.own_blocked = 0  # own writes of FORBIDDEN or OBSTACLE, all time
        self.own_blocked_at_sync = 0  # `own_blocked` at the last sync
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

    def free_mask(self) -> int:
        """The free-cell mask: the shared one while the view holds no blocked
        write of its own since the last sync, else built from its cells."""
        if self.own_blocked != self.own_blocked_at_sync:
            return free_cells(self.state_bytes())
        synced = self.synced
        if synced.mask_at != synced.n_blocked:
            # the view's free cells are the synced map's
            synced.mask, synced.mask_at = free_cells(self.state_bytes()), synced.n_blocked
        return synced.mask

    @property
    def n_blocked(self) -> int:
        """Moves whenever a blocked cell lands in the view, and also when a
        sync brings one the view already held."""
        return self.synced.n_blocked + self.own_blocked

    def watch(self, region) -> list[Cell]:
        """Watch a new region (empty for none); count and return its unexplored cells."""
        self._leave_index()
        self.watched = frozenset(region)
        watchers, width, me = self.synced.watchers, self.width, (self.rid,)
        own, since, base = self.own, self.since, self.base
        unexplored = []
        for cell in self.watched:
            x, y = cell
            i = y * width + x
            watchers[i] += me  # a cell's first watcher shares `me`
            if (own.get(i) or since.get(i, base[i])) is _UNEXPLORED:
                unexplored.append(cell)
        self.watched_unexplored = len(unexplored)
        return unexplored

    def explore(self, cell: Cell, i: int | None = None) -> None:
        """Mark the cell explored if the view holds it unexplored; `i` is
        its flat index, when the caller has it."""
        if i is None:
            i = cell[1] * self.width + cell[0]
        if (self.own.get(i) or self.since.get(i, self.base[i])) is _UNEXPLORED:
            self._set_state(i, cell, _EXPLORED)

    def _set_state(self, i: int, cell: Cell, new: CellState) -> None:
        """Write `new` (never UNEXPLORED) to `cell`, whose index is i and
        which the view holds UNEXPLORED."""
        if new >= _BLOCKED:
            self.own_blocked += 1
        if not self.own:
            self.synced.writers.append(self.rid)
        self.own[i] = new
        if cell in self.watched:
            self.watched_unexplored -= 1

    def _leave_index(self) -> None:
        watchers, width, rid, me = self.synced.watchers, self.width, self.rid, (self.rid,)
        for x, y in self.watched:
            i = y * width + x
            held = watchers[i]
            watchers[i] = () if held == me else tuple(v for v in held if v != rid)


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


def build_world(spec: WorldSpec, seed: int) -> GridMap:
    """Construct the team map: all cells unexplored, targets hidden.

    Target placement is seeded: sampled mode draws a Poisson count per task
    and scatters uniformly over that task's coverable ground-truth cells
    (repeats allowed, so targets may stack); explicit mode places the listed
    cells verbatim. In explicit mode each task's expected count is set to
    the number actually placed there.
    """
    w, h, eps = spec.width, spec.height, spec.epsilon_m
    # each row's obstacles as an int, cell x at bit w-1-x so that its binary
    # digits read in x order, dilated by a cell in x and in y into the buffer
    rows = [0] * (h + 2)  # an empty row above the grid and one below it
    for x, y in spec.obstacles:
        rows[y + 1] |= 1 << (w - 1 - x)
    wide = [r | r << 1 | r >> 1 for r in rows]
    full, digits = (1 << w) - 1, f"0{w}b"
    free_rows = [format(~(a | b | c) & full, digits) for a, b, c in zip(wide, wide[1:], wide[2:])]
    free = "".join(free_rows).encode("ascii").translate(_DIGIT_FLAG)  # a byte per cell, 1 if coverable
    table = [(x, y) for y in range(h) for x in range(w)]  # the cells by flat index
    truth = GroundTruth(obstacles=frozenset(spec.obstacles), free_flags=free)
    task_of = [0] * (w * h)
    tasks: dict[int, TaskRegion] = {}
    for i, rect in enumerate(spec.tasks, start=1):
        starts = range(rect.y * w + rect.x, (rect.y + rect.h) * w, w)  # the flat index of each row's first cell
        for start in starts:
            task_of[start : start + rect.w] = [i] * rect.w
        n = rect.w * rect.h
        # `centroid_m` of the cells: their centres' coordinates sum to half-integers, which floats hold exactly
        tasks[i] = TaskRegion(
            id=i,
            cells=tuple(itertools.chain.from_iterable(table[start : start + rect.w] for start in starts)),
            bbox=rect,
            lam=0.0,
            n_unexplored=n,
            centroid_m=(n * (2 * rect.x + rect.w) / 2 * eps / n, n * (2 * rect.y + rect.h) / 2 * eps / n),
        )

    grid = GridMap(
        width=w,
        height=h,
        epsilon=eps,
        cells=[CellState.UNEXPLORED] * (w * h),
        task_of=task_of,
        tasks=tasks,
        ground_truth=truth,
        unexplored_total=w * h,
    )

    placed: list[Cell] = []
    if spec.targets.mode == "sampled":
        rng = random.Random(f"{seed}:targets")
        for i, rect in enumerate(spec.tasks, start=1):
            lam = spec.targets.lam[i - 1] if spec.targets.lam else 0.0
            tasks[i].lam = lam
            # the task's coverable cells in (x, y) order, a column at a time
            columns = [slice(rect.y * w + x, (rect.y + rect.h) * w, w) for x in range(rect.x, rect.x + rect.w)]
            open_cells = list(itertools.chain.from_iterable(itertools.compress(table[c], free[c]) for c in columns))
            if not open_cells:
                continue
            for _ in range(_sample_poisson(lam, rng)):
                placed.append(open_cells[rng.randrange(len(open_cells))])
    else:
        placed = list(spec.targets.cells)
        for cell in placed:
            tasks[task_of[cell[1] * w + cell[0]]].lam += 1.0

    grid.targets = placed
    for cell in placed:
        grid.targets_at[cell] = grid.targets_at.get(cell, 0) + 1
    for task in tasks.values():
        task.worth = remaining_worth(task.lam, 0)
    return grid


class RangeSensor:
    """The sensing oracle: reads the held ground-truth obstacle cells whose
    centers lie within radius_m of a cell's center, in (x, y) order.

    It holds the truth obstacles some live belief may still lack (`held`),
    as row bits per column (`held_rows`). `mark_sensed` skips a reading of a
    cell that is not UNEXPLORED, and a sync leaves every live belief the team
    map, whose cells never return to UNEXPLORED. So once a sync has brought
    a written cell to every live belief, a reading of it changes nothing
    anywhere: `settle` drops the cells written since the last sync, just
    before that sync. A sensor that is never settled reads every truth
    obstacle, with the same effect.

    A reading tests only the held cells of a disk stencil, a span of rows
    per column computed once and clipped to the grid, in the stencil's
    columns holding one (`held_columns`, as bits); a reading whose stencil
    reaches none returns at once, the commonest case once most are settled.
    """

    def __init__(self, grid: GridMap, radius_m: float) -> None:
        self.grid = grid  # the team map, which holds the truth
        self.radius = radius_m + 1e-9
        eps = grid.epsilon
        reach = int(radius_m / eps) + 2
        # no offset past the grid's side reaches a cell of the grid
        reach_x, reach_y = min(reach, grid.width), min(reach, grid.height)
        # (dx, k, 2k + 1 one bits) for column dx's rows -k .. k; a cell of slack
        # leaves the decision on every cell that can be in range to the exact test
        self.columns = []
        for dx in range(-reach_x, reach_x + 1):
            k = max((dy for dy in range(reach_y + 1) if math.hypot(dx, dy) * eps <= radius_m + eps), default=None)
            if k is not None:
                self.columns.append((dx, k, (1 << 2 * k + 1) - 1))
        self.reach = -self.columns[0][0]  # the stencil spans columns x - reach .. x + reach
        self.window = (1 << (2 * self.reach + 1)) - 1
        self.held_rows = [0] * grid.width  # x -> bit y set for each held cell (x, y)
        self.held_columns = 0  # bit x + reach set for each x whose `held_rows` is not 0
        for x, y in grid.ground_truth.obstacles:
            self.held_rows[x] |= 1 << y
            self.held_columns |= 1 << (x + self.reach)

    @property
    def held(self) -> set[Cell]:
        return {(x, y) for x, rows in enumerate(self.held_rows) for y in range(rows.bit_length()) if rows >> y & 1}

    def settle(self, written) -> None:
        """Drop the held cells among `written` (flat indices of cells the
        team map wrote since the last sync), just before that sync."""
        if not self.held_columns:
            return
        held_rows, width = self.held_rows, self.grid.width
        for i in written:
            y, x = divmod(i, width)
            rows = held_rows[x]
            if rows >> y & 1:
                held_rows[x] = rows = rows ^ 1 << y
                if not rows:
                    self.held_columns ^= 1 << (x + self.reach)

    def read(self, cell: Cell) -> list[Cell]:
        """The obstacle cells in range, for `mark_sensed`."""
        x, y = cell
        near = self.held_columns >> x & self.window  # bit j: column x + j - reach holds a held cell
        if not near:
            return []
        held_rows, columns, center = self.held_rows, self.columns, self.grid.cell_center
        pos = center(cell)
        readings = []
        while near:
            bit = near & -near
            near ^= bit
            dx, k, span = columns[bit.bit_length() - 1]
            cx, top = x + dx, y - k
            # the column's held rows top .. y + k, as bits from bit 0
            rows = (held_rows[cx] >> top if top >= 0 else held_rows[cx] << -top) & span
            while rows:
                bit = rows & -rows
                rows ^= bit
                c = (cx, top + bit.bit_length() - 1)
                if math.dist(center(c), pos) <= self.radius:
                    readings.append(c)
        return readings


def mark_sensed(grid: GridMap, obstacles) -> list[Change]:
    """Apply sensed obstacle cells: they become obstacles and their
    unexplored 8-neighborhood becomes forbidden. Idempotent; only
    unexplored cells ever change state."""
    changes: list[Change] = []
    marked: list[Cell] = []
    at, w, h = grid.at, grid.width, grid.height
    for cell in obstacles:
        x, y = cell
        if not (0 <= x < w and 0 <= y < h):
            raise ValueError(f"reading outside the grid: {cell}")
        i = y * w + x
        if at(i) is not _UNEXPLORED:
            continue
        grid._set_state(i, cell, _OBSTACLE)
        changes.append(_change((cell, _UNEXPLORED, _OBSTACLE)))
        marked.append(cell)
    # buffers go in a second pass so adjacent obstacles within one batch
    # never shadow each other into Forbidden. The 8-neighbourhood is walked
    # row by row on flat indices; its centre is an obstacle by now, never
    # UNEXPLORED.
    for x, y in marked:
        for ny in range(max(y - 1, 0), min(y + 2, h)):
            row = ny * w
            for nx in range(max(x - 1, 0), min(x + 2, w)):
                if at(row + nx) is _UNEXPLORED:
                    nb = (nx, ny)
                    grid._set_state(row + nx, nb, _FORBIDDEN)
                    changes.append(_change((nb, _UNEXPLORED, _FORBIDDEN)))
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
    # the cell left UNEXPLORED just now, so its targets are found just now
    found = grid.targets_at.get(cell, 0)
    if found:
        task = grid.tasks[grid.task_of[i]]
        task.found += found
        task.worth = remaining_worth(task.lam, task.found)
    return _change((cell, _UNEXPLORED, _EXPLORED)), found


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
    """The robots' beliefs over the team map: a view per live robot, and
    what the live views share (`_Synced`), such as the synced free-cell
    mask (see the module docstring for why it is exact).

    Nothing in the team map, the views or what they share refers back to
    this object or to a view, so a finished run is freed without the
    cyclic collector. The index holds tuples, mostly shared one-robot
    ones, because nearly every task cell is watched at some time and a set
    per cell would cost more memory.
    """

    def __init__(self, grid: GridMap) -> None:
        self.grid = grid
        self.synced = _Synced(grid)
        self.views: dict[int, BeliefView] = {}  # the live robots' views

    def view(self, rid: int) -> BeliefView:
        """A new robot's view, which watches nothing yet."""
        self.views[rid] = view = BeliefView(rid, self.grid, self.synced)
        return view

    def sync(self) -> None:
        """Bring every live view to the team map. The shared count takes
        the team map's `n_blocked`. Each view that wrote since the last sync
        drops its own writes, each of a cell UNEXPLORED at the last sync,
        which its watched count takes back: the team map may not have
        written the cell, as it skips a reading on a cell it wrote since.
        Then each cell the team map took out of UNEXPLORED since lowers its
        watchers' counts."""
        grid, views, synced, watchers = self.grid, self.views, self.synced, self.synced.watchers
        synced.n_blocked = grid.n_blocked
        for rid in synced.writers:
            view = views.get(rid)
            if view is None:  # dropped since it wrote
                continue
            for i in view.own:
                if rid in watchers[i]:
                    view.watched_unexplored += 1
            view.own.clear()
            view.own_blocked_at_sync = view.own_blocked
        synced.writers.clear()
        for i, old in grid.since_sync.items():
            if old is _UNEXPLORED:
                for rid in watchers[i]:
                    views[rid].watched_unexplored -= 1
        grid.since_sync.clear()

    def drop(self, rid: int) -> None:
        """Stop syncing a failed robot's view, which nothing reads again, and take it out of the index."""
        self.views.pop(rid)._leave_index()


def coverage_fraction(truth: GroundTruth, visited: bytes | bytearray) -> float:
    """CR: the share of the coverable cells that a robot stood on, whatever
    noise did to the cell it marked. `visited` holds a flag byte per cell by
    flat index, 1 once a robot stood there; the count of cells flagged in it
    and in `truth.free_flags` is one bit count of their AND."""
    coverable = truth.free_flags.count(1)
    if not coverable:
        return 1.0
    both = int.from_bytes(visited, "big") & int.from_bytes(truth.free_flags, "big")
    return both.bit_count() / coverable


_MAP_LETTERS = bytes.maketrans(bytes(CellState), b"UEFO")  # bytes.translate table: state -> map_text letter


def map_text(grid: GridMap) -> str:
    """The map as text, one line per row: U/E/F/O for unexplored, explored,
    forbidden and obstacle cells."""
    letters, w = bytes(grid.cells).translate(_MAP_LETTERS), grid.width
    return b"".join(letters[y * w : (y + 1) * w] + b"\n" for y in range(grid.height)).decode("ascii")


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
