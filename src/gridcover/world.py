"""Grid tiling, per-cell state, task partition, targets, and map merging.

The team's symbolic map starts fully unexplored; obstacle and forbidden
cells are discovered online from sensor readings against a hidden ground
truth layer. Cell states only ever move away from Unexplored and never
change again afterwards, which makes merging change sets a simple
precedence join.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import IntEnum

from .scenario import Rect, WorldSpec

Cell = tuple[int, int]


class CellState(IntEnum):
    """Per-cell knowledge. Integer order doubles as merge precedence."""

    UNEXPLORED = 0
    EXPLORED = 1
    FORBIDDEN = 2
    OBSTACLE = 3


@dataclass(frozen=True)
class Change:
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

    def idx(self, cell: Cell) -> int:
        return cell[1] * self.width + cell[0]

    def in_bounds(self, cell: Cell) -> bool:
        return 0 <= cell[0] < self.width and 0 <= cell[1] < self.height

    def state(self, cell: Cell) -> CellState:
        return self.cells[self.idx(cell)]

    def cell_center(self, cell: Cell) -> tuple[float, float]:
        return ((cell[0] + 0.5) * self.epsilon, (cell[1] + 0.5) * self.epsilon)

    def cell_of_position(self, x_m: float, y_m: float) -> Cell:
        return (int(x_m // self.epsilon), int(y_m // self.epsilon))

    def belief_copy(self) -> "GridMap":
        """Per-robot planning map: same cell states, no targets, no truth."""
        tasks = {
            r: TaskRegion(
                id=t.id,
                cells=t.cells,
                bbox=t.bbox,
                lam=t.lam,
                found=t.found,
                n_unexplored=t.n_unexplored,
                centroid_m=t.centroid_m,
            )
            for r, t in self.tasks.items()
        }
        return GridMap(
            width=self.width,
            height=self.height,
            epsilon=self.epsilon,
            cells=list(self.cells),
            task_of=self.task_of,
            tasks=tasks,
            unexplored_total=self.unexplored_total,
        )

    def _set_state(self, cell: Cell, new: CellState) -> Change:
        i = self.idx(cell)
        old = self.cells[i]
        self.cells[i] = new
        if old is CellState.UNEXPLORED and new is not CellState.UNEXPLORED:
            self.unexplored_total -= 1
            task = self.tasks.get(self.task_of[i])
            if task is not None:
                task.n_unexplored -= 1
        return Change(cell=cell, old=old, new=new)


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
    return grid


def mark_sensed(grid: GridMap, readings) -> list[Change]:
    """Apply occupancy readings: occupied cells become obstacles and their
    unexplored 8-neighborhood becomes forbidden. Idempotent; only
    unexplored cells ever change state."""
    changes: list[Change] = []
    marked: list[Cell] = []
    for cell, occupied in readings:
        if not grid.in_bounds(cell):
            raise ValueError(f"reading outside the grid: {cell}")
        if not occupied:
            continue
        if grid.state(cell) is not CellState.UNEXPLORED:
            continue
        changes.append(grid._set_state(cell, CellState.OBSTACLE))
        marked.append(cell)
    # buffers go in a second pass so adjacent obstacles within one batch
    # never shadow each other into Forbidden
    for cell in marked:
        for nb in neighbors8(cell, grid.width, grid.height):
            if grid.state(nb) is CellState.UNEXPLORED:
                changes.append(grid._set_state(nb, CellState.FORBIDDEN))
    return changes


def mark_covered(grid: GridMap, cell: Cell) -> tuple[Change | None, int]:
    """Mark a visited cell explored and surface any targets hidden there."""
    state = grid.state(cell)
    if state in (CellState.OBSTACLE, CellState.FORBIDDEN):
        raise ValueError(f"covering a blocked cell {cell} ({state.name}): planner bug")
    if state is CellState.EXPLORED:
        return None, 0
    change = grid._set_state(cell, CellState.EXPLORED)
    discovered = 0
    for t_index in grid.targets_at.get(cell, ()):
        target = grid.targets[t_index]
        if not target.discovered:
            target.discovered = True
            discovered += 1
    if discovered:
        grid.tasks[grid.task_of[grid.idx(cell)]].found += discovered
    return change, discovered


def merge_maps(grid: GridMap, remote_changes) -> GridMap:
    """Fold remote state changes into a map.

    Conflicts resolve by precedence Obstacle > Forbidden > Explored >
    Unexplored, making the merge commutative and idempotent over change
    sets. Mutates and returns `grid`.
    """
    for change in remote_changes:
        if not grid.in_bounds(change.cell):
            raise ValueError(f"change outside the grid: {change.cell}")
        if change.new > grid.state(change.cell):
            grid._set_state(change.cell, change.new)
    return grid


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
