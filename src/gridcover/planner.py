"""In-task waypoint generation and between-task travel planning.

Coverage inside a region follows a boustrophedon sweep: advance along the
current column, direction alternating with column parity; whenever the sweep
continuation is blocked or already explored, fall back to the nearest
unexplored region cell by breadth-first distance (unknown cells count as
traversable) and walk the detour path one cell per call. Travel between
regions is a shortest 4-connected path over cells not currently known to be
blocked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .world import Cell, CellState, GridMap


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
    return grid.state(cell) not in (CellState.OBSTACLE, CellState.FORBIDDEN)


def _nearest_unexplored_path(grid: GridMap, pose: Cell, region: frozenset[Cell]) -> list[Cell] | None:
    """BFS to the closest unexplored region cell; equidistant candidates
    resolve to the lowest cell index. Path excludes the pose."""
    parent: dict[Cell, Cell | None] = {pose: None}
    frontier = [pose]
    while frontier:
        hits = [c for c in frontier if c in region and grid.state(c) is CellState.UNEXPLORED]
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
    reachable cell. Returns the pose itself when it still needs covering."""
    unexplored = [c for c in state.region if grid.state(c) is CellState.UNEXPLORED]
    if not unexplored:
        state.pending.clear()
        return Done()

    if pose in state.region and grid.state(pose) is CellState.UNEXPLORED:
        state.pending.clear()
        return pose

    if state.pending:
        goal = state.pending[-1]
        if grid.state(goal) is CellState.UNEXPLORED and all(_traversable(grid, c) for c in state.pending):
            return state.pending.pop(0)
        state.pending.clear()

    lane_dir = state.base_dir * (1 if (pose[0] - state.lane_origin) % 2 == 0 else -1)
    sweep = (pose[0], pose[1] + lane_dir)
    if sweep in state.region and grid.in_bounds(sweep) and grid.state(sweep) is CellState.UNEXPLORED:
        return sweep

    path = _nearest_unexplored_path(grid, pose, state.region)
    if path is None:
        return Done(unreachable=frozenset(unexplored))
    state.pending = path
    return state.pending.pop(0)


def plan_travel(grid: GridMap, start: Cell, goal: Cell) -> list[Cell] | None:
    """Shortest 4-connected path over cells not known blocked, expanding
    neighbors in lexicographic (x, y) order. Excludes the start cell;
    returns None when the goal is unreachable on the current map."""
    found = plan_travel_to_any(grid, start, {goal})
    return None if found is None else found[0]


def plan_travel_to_any(grid: GridMap, start: Cell, goals) -> tuple[list[Cell], Cell] | None:
    """Multi-target shortest path; the reached goal is the lowest-index one
    at the minimal distance. Returns (path, goal) or None."""
    goal_set = set(goals)
    if not goal_set:
        return None
    if not _traversable(grid, start):
        raise ValueError(f"travel start {start} is a blocked cell")
    if start in goal_set:
        return [], start
    parent: dict[Cell, Cell | None] = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for cell in frontier:
            for nb in sorted(
                ((cell[0] + dx, cell[1] + dy) for dx, dy in ((-1, 0), (0, -1), (0, 1), (1, 0)))
            ):
                if nb in parent or not grid.in_bounds(nb) or not _traversable(grid, nb):
                    continue
                parent[nb] = cell
                nxt.append(nb)
        hits = [c for c in nxt if c in goal_set]
        if hits:
            goal = min(hits, key=grid.idx)
            path = []
            node: Cell | None = goal
            while node is not None and node != start:
                path.append(node)
                node = parent[node]
            path.reverse()
            return path, goal
        nxt.sort()
        frontier = nxt
    return None
