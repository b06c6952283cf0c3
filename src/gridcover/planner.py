"""In-task waypoint generation and between-task travel planning.

Coverage inside a region follows a boustrophedon sweep: advance along the
current column, direction alternating with column parity; whenever the sweep
continuation is blocked or already explored, fall back to the nearest
unexplored region cell by breadth-first distance (unknown cells count as
traversable) and walk the detour path one cell per call.

Travel between regions is a shortest 4-connected path over cells not
currently known to be blocked. Its ties break by a fixed contract, and the
run digests depend on it: each distance's frontier is expanded in (x, y)
order, neighbours are tried in the order (x-1, y), (x, y-1), (x, y+1),
(x+1, y), a cell's first expander becomes its parent, and among the goals
at the minimal distance the one with the lowest row-major index wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .world import Cell, CellState, GridMap

# Enum members the hot paths read, bound to module names as in `world`.
# States from _BLOCKED up block travel.
_UNEXPLORED = CellState.UNEXPLORED
_BLOCKED = CellState.FORBIDDEN


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


def _traversable(grid: GridMap, cell: Cell) -> bool:
    return grid.state(cell) < _BLOCKED


def _nearest_unexplored_path(grid: GridMap, pose: Cell, region: frozenset[Cell]) -> list[Cell] | None:
    """BFS to the closest unexplored region cell; equidistant candidates
    resolve to the lowest cell index. Path excludes the pose."""
    parent: dict[Cell, Cell | None] = {pose: None}
    frontier = [pose]
    while frontier:
        hits = [c for c in frontier if c in region and grid.state(c) is _UNEXPLORED]
        if hits:
            goal = min(hits, key=grid.idx)
            path = []
            node: Cell | None = goal
            while node is not None and node != pose:
                path.append(node)
                node = parent[node]
            path.reverse()
            return path
        nxt = []
        for cell in frontier:
            x, y = cell
            for nb in ((x, y - 1), (x - 1, y), (x + 1, y), (x, y + 1)):
                if nb in parent or not grid.in_bounds(nb) or not _traversable(grid, nb):
                    continue
                parent[nb] = cell
                nxt.append(nb)
        nxt.sort(key=grid.idx)
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
        if grid.state(goal) is _UNEXPLORED and all(_traversable(grid, c) for c in state.pending):
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

    Cells are numbered column-major, t = x*h + y, so ascending t is (x, y)
    order: the frontier sorts as plain ints, the four neighbours are t-h,
    t-1, t+1, t+h in that order, and `parent` is a list indexed by t. The
    next frontier is sorted before it is expanded, so the neighbour order
    decides nothing beyond the frontier order.
    """
    goals = set(goals)
    if not goals:
        return None
    w, h, cells = grid.width, grid.height, grid.cells
    blocked = _BLOCKED  # this state and OBSTACLE
    sx, sy = start
    if cells[sy * w + sx] >= blocked:
        raise ValueError(f"travel start {start} is a blocked cell")
    if start in goals:
        return [], start
    goal_ts = {x * h + y for x, y in goals if 0 <= x < w and 0 <= y < h}
    top = h - 1
    parent = [-2] * (w * h)  # -2: not reached; the start's parent is -1
    t0 = sx * h + sy
    parent[t0] = -1
    frontier = [t0]
    while frontier and goal_ts:
        nxt = []
        add = nxt.append
        for t in frontier:
            x, y = divmod(t, h)
            i = y * w + x  # row-major index into `cells`
            if x and parent[t - h] == -2 and cells[i - 1] < blocked:
                parent[t - h] = t
                add(t - h)
            if y and parent[t - 1] == -2 and cells[i - w] < blocked:
                parent[t - 1] = t
                add(t - 1)
            if y < top and parent[t + 1] == -2 and cells[i + w] < blocked:
                parent[t + 1] = t
                add(t + 1)
            if x + 1 < w and parent[t + h] == -2 and cells[i + 1] < blocked:
                parent[t + h] = t
                add(t + h)
        hits = goal_ts.intersection(nxt)
        if hits:
            goal = min(hits, key=lambda t: (t % h, t // h))
            path = []
            node = goal
            while node != -1:
                path.append(divmod(node, h))
                node = parent[node]
            path.pop()  # the start
            path.reverse()
            return path, path[-1]
        nxt.sort()
        frontier = nxt
    return None
