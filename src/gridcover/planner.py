"""In-task waypoint generation and between-task travel planning.

Coverage inside a region follows a boustrophedon sweep: advance along the
current column, direction alternating with column parity; whenever the sweep
continuation is blocked or already explored, fall back to the nearest
unexplored region cell by breadth-first distance (unknown cells count as
traversable) and walk the detour path one cell per call. That search stays
a loop, over flat indices y*w + x read through `grid.at`: its detours are a
few cells long, so building the whole grid's bit masks on each call would
cost more than it saves.

Travel between regions is a shortest 4-connected path over cells not
currently known to be blocked. Its ties break by a fixed contract, and the
run digests depend on it: each distance's frontier is expanded in (x, y)
order, neighbours are tried in the order (x-1, y), (x, y-1), (x, y+1),
(x+1, y), a cell's first expander becomes its parent, and among the goals
at the minimal distance the one with the lowest row-major index wins.

`plan_travel_to_any` runs that search one distance layer at a time on
Python ints, bit y*w + x per cell (a bit-parallel BFS, as in Beamer,
Asanovic & Patterson, "Direction-Optimizing Breadth-First Search", SC 2012).
Each clause of the contract maps to a bit operation:

- Expansion: the next layer is the layer shifted by +1 and -1, each masked
  so that a row's end cannot wrap into the next row, and by +w and -w,
  ANDed with the free cells not reached yet. A cell joins the layer after
  the first one it neighbours, whatever the expansion order.
- Goal: the lowest set bit of `layer & goals`, the lowest row-major index.
- Parent: walking back from the goal, the first cell of (x-1, y), (x, y-1),
  (x, y+1), (x+1, y) set in the layer before. Those four are in (x, y)
  order, so this is the cell's first expander.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .world import Cell, CellState, GridMap

# Enum members the hot paths read, bound to module names as in `world`.
# States from _BLOCKED up block travel.
_UNEXPLORED = CellState.UNEXPLORED
_BLOCKED = CellState.FORBIDDEN
# bytes.translate table from a cell state to its free-cell bit digit
_FREE_DIGIT = bytes.maketrans(bytes(CellState), b"".join(b"1" if s < _BLOCKED else b"0" for s in CellState))


@dataclass(frozen=True)
class Done:
    """Region finished: nothing unexplored, or nothing reachable anymore."""

    unreachable: frozenset[Cell] = frozenset()


@dataclass
class PlannerState:
    region: frozenset[Cell]
    lane_origin: int  # x of the region bbox's left edge, anchors lane parity
    base_dir: int  # +1 sweeps toward increasing y first, -1 the other way
    pending: list[Cell] = field(default_factory=list)  # detour path, consumed head-first


def make_planner(region, pose: Cell) -> PlannerState:
    cells = frozenset(region)
    if not cells:
        return PlannerState(region=cells, lane_origin=0, base_dir=1)
    min_y = min(c[1] for c in cells)
    max_y = max(c[1] for c in cells)
    base_dir = 1 if (pose[1] - min_y) <= (max_y - pose[1]) else -1
    return PlannerState(region=cells, lane_origin=min(c[0] for c in cells), base_dir=base_dir)


def _nearest_unexplored_path(grid: GridMap, pose: Cell, region: frozenset[Cell]) -> list[Cell] | None:
    """BFS to the closest unexplored region cell; equidistant candidates
    resolve to the lowest cell index, the first hit of a frontier sorted by
    index. Path excludes the pose."""
    w, h, at = grid.width, grid.height, grid.at
    right, bottom = w - 1, h - 1
    start = pose[1] * w + pose[0]
    parent: dict[int, int] = {start: start}
    frontier = [start]
    while frontier:
        for i in frontier:
            y, x = divmod(i, w)
            if (x, y) in region and at(i) is _UNEXPLORED:
                path = []
                while i != start:
                    y, x = divmod(i, w)
                    path.append((x, y))
                    i = parent[i]
                path.reverse()
                return path
        nxt = []
        for i in frontier:
            y, x = divmod(i, w)
            if y and (j := i - w) not in parent and at(j) < _BLOCKED:
                parent[j] = i
                nxt.append(j)
            if x and (j := i - 1) not in parent and at(j) < _BLOCKED:
                parent[j] = i
                nxt.append(j)
            if x < right and (j := i + 1) not in parent and at(j) < _BLOCKED:
                parent[j] = i
                nxt.append(j)
            if y < bottom and (j := i + w) not in parent and at(j) < _BLOCKED:
                parent[j] = i
                nxt.append(j)
        nxt.sort()
        frontier = nxt
    return None


def next_waypoint(grid: GridMap, state: PlannerState, pose: Cell):
    """Next cell to step onto, or Done when the region holds no unexplored
    reachable cell. Returns the pose itself when it still needs covering.

    A finished region is found only by the final search; callers that keep
    the region's unexplored count check it first."""
    if pose in state.region and grid.state(pose) is _UNEXPLORED:
        state.pending.clear()
        return pose

    if state.pending:
        goal = state.pending[-1]
        if grid.state(goal) is _UNEXPLORED and all(grid.state(c) < _BLOCKED for c in state.pending):
            return state.pending.pop(0)
        state.pending.clear()

    lane_dir = state.base_dir * (1 if (pose[0] - state.lane_origin) % 2 == 0 else -1)
    sweep = (pose[0], pose[1] + lane_dir)
    if sweep in state.region and grid.in_bounds(sweep) and grid.state(sweep) is _UNEXPLORED:
        return sweep

    path = _nearest_unexplored_path(grid, pose, state.region)
    if path is None:
        return Done(unreachable=frozenset(c for c in state.region if grid.state(c) is _UNEXPLORED))
    state.pending = path
    return state.pending.pop(0)


@lru_cache(maxsize=16)
def _column_masks(width: int, height: int) -> tuple[int, int]:
    """Bit masks of the cells off the first column and off the last column
    of a width x height grid, bit y*width + x per cell."""
    row = b"1" * (width - 1)
    return int((row + b"0") * height, 2), int((b"0" + row) * height, 2)


def plan_travel_to_any(grid: GridMap, start: Cell, goals) -> tuple[list[Cell], Cell] | None:
    """Multi-target shortest path over cells not known blocked. Returns
    (path, goal), the path excluding the start, or None when no goal is
    reachable; raises ValueError on a blocked start.

    Tie-breaks (the run digests depend on them): each distance's frontier
    is expanded in (x, y) order, neighbours are tried in the order
    (x-1, y), (x, y-1), (x, y+1), (x+1, y), and a cell's first expander
    becomes its parent; among the goals at the minimal distance the one
    with the lowest row-major index wins. Goals outside the grid are never
    reached.

    Each distance layer is one int with bit y*w + x set for its cells (see
    the module docstring for the clause-by-clause mapping). `open_` holds
    the free cells not reached yet; the next layer is the last one shifted
    by +-1 under the column masks and by +-w, ANDed with `open_`. The goal
    is the lowest set bit of `layer & goal_bits`, and the path walks back
    through the layers taking the first set cell of (x-1, y), (x, y-1),
    (x, y+1), (x+1, y) in each.
    """
    goals = set(goals)
    if not goals:
        return None
    w, h = grid.width, grid.height
    sx, sy = start
    if grid.at(sy * w + sx) >= _BLOCKED:
        raise ValueError(f"travel start {start} is a blocked cell")
    if start in goals:
        return [], start
    goal_bits = 0
    for x, y in goals:
        if 0 <= x < w and 0 <= y < h:
            goal_bits |= 1 << (y * w + x)
    if not goal_bits:
        return None
    off_first, off_last = _column_masks(w, h)
    # the free cells, bit i from cell i's state: the digit string is
    # reversed because int() reads the highest bit first
    start_bit = 1 << (sy * w + sx)
    states = grid.state_bytes()
    states.reverse()
    open_ = int(states.translate(_FREE_DIGIT), 2) ^ start_bit
    layers = []  # the layers between the start and the goal
    layer = start_bit
    while True:
        layer = (
            ((layer << 1) & off_first) | ((layer >> 1) & off_last) | (layer << w) | (layer >> w)
        ) & open_
        if not layer:
            return None
        hits = layer & goal_bits
        if hits:
            break
        open_ ^= layer
        layers.append(layer)
    i = (hits & -hits).bit_length() - 1
    y, x = divmod(i, w)
    goal = (x, y)
    path = [goal]
    top = h - 1
    for before in reversed(layers):
        if x and before >> (i - 1) & 1:
            x -= 1
            i -= 1
        elif y and before >> (i - w) & 1:
            y -= 1
            i -= w
        elif y < top and before >> (i + w) & 1:
            y += 1
            i += w
        else:
            x += 1
            i += 1
        path.append((x, y))
    path.reverse()
    return path, goal
