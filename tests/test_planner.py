"""Serpentine coverage and shortest-path travel against brute-force oracles."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from gridcover.planner import Done, _nearest_unexplored_path, make_planner, next_waypoint, plan_travel_to_any
from gridcover.world import Beliefs, CellState, GridMap, mark_covered, mark_sensed
from tests.test_world import make_world


def bfs_oracle(grid, start, goal):
    """Independent shortest-path length over non-blocked cells; None if cut off."""
    if start == goal:
        return 0
    seen = {start}
    q = deque([(start, 0)])
    while q:
        (x, y), d = q.popleft()
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nb in seen or not grid.in_bounds(nb):
                continue
            if grid.state(nb) in (CellState.OBSTACLE, CellState.FORBIDDEN):
                continue
            if nb == goal:
                return d + 1
            seen.add(nb)
            q.append((nb, d + 1))
    return None


def tuple_travel_to_any(grid, start, goals):
    """The tuple-based multi-target BFS the flat-index one replaced, kept as
    its oracle: same contract, same tie-breaks, cells as (x, y) tuples."""
    goal_set = set(goals)
    if not goal_set:
        return None
    if grid.state(start) in (CellState.OBSTACLE, CellState.FORBIDDEN):
        raise ValueError(f"travel start {start} is a blocked cell")
    if start in goal_set:
        return [], start
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for cell in frontier:
            for nb in sorted(
                ((cell[0] + dx, cell[1] + dy) for dx, dy in ((-1, 0), (0, -1), (0, 1), (1, 0)))
            ):
                if nb in parent or not grid.in_bounds(nb):
                    continue
                if grid.state(nb) in (CellState.OBSTACLE, CellState.FORBIDDEN):
                    continue
                parent[nb] = cell
                nxt.append(nb)
        hits = [c for c in nxt if c in goal_set]
        if hits:
            goal = min(hits, key=grid.idx)
            path = []
            node = goal
            while node is not None and node != start:
                path.append(node)
                node = parent[node]
            path.reverse()
            return path, goal
        nxt.sort()
        frontier = nxt
    return None


def tuple_nearest_unexplored_path(grid, pose, region):
    """The detour search on cell tuples that the flat-index one replaced,
    kept as its oracle: same contract, same tie-breaks."""
    parent = {pose: None}
    frontier = [pose]
    while frontier:
        hits = [c for c in frontier if c in region and grid.state(c) is CellState.UNEXPLORED]
        if hits:
            goal = min(hits, key=grid.idx)
            path = []
            node = goal
            while node is not None and node != pose:
                path.append(node)
                node = parent[node]
            path.reverse()
            return path
        nxt = []
        for cell in frontier:
            x, y = cell
            for nb in ((x, y - 1), (x - 1, y), (x + 1, y), (x, y + 1)):
                if nb in parent or not grid.in_bounds(nb) or grid.state(nb) >= CellState.FORBIDDEN:
                    continue
                parent[nb] = cell
                nxt.append(nb)
        nxt.sort(key=grid.idx)
        frontier = nxt
    return None


@st.composite
def detour_cases(draw):
    """A grid of up to 12x12 with random blocked and explored cells, a pose
    anywhere on it and a random region."""
    width = draw(st.integers(1, 12))
    height = draw(st.integers(1, 12))
    grid = make_world(width=width, height=height)
    cells = [(x, y) for x in range(width) for y in range(height)]
    rng = draw(st.randoms(use_true_random=True))
    density = rng.choice((0.0, 0.15, 0.35, 0.6))
    for cell in cells:
        if rng.random() < density:
            grid.cells[grid.idx(cell)] = rng.choice((CellState.FORBIDDEN, CellState.OBSTACLE))
        elif rng.random() < 0.5:
            grid.cells[grid.idx(cell)] = CellState.EXPLORED
    share = rng.choice((0.1, 0.5, 1.0))  # sparse regions force long detours
    region = frozenset(c for c in cells if rng.random() < share)
    return grid, rng.choice(cells), region


@st.composite
def travel_cases(draw, max_side=12):
    """A non-square grid with random blocked cells, a start and a goal set
    that may hold blocked, unreachable and out-of-grid cells and the start."""
    width = draw(st.integers(1, max_side))
    height = draw(st.integers(1, max_side))
    grid = make_world(width=width, height=height)
    cells = [(x, y) for x in range(width) for y in range(height)]
    density = draw(st.sampled_from((0.0, 0.15, 0.35, 0.6)))
    # a seeded random.Random: hypothesis's shrinkable one draws mostly
    # zeros, which put most starts and goals at (0, 0)
    rng = draw(st.randoms(use_true_random=True))
    for cell in cells:
        if rng.random() < density:
            grid.cells[grid.idx(cell)] = rng.choice((CellState.FORBIDDEN, CellState.OBSTACLE))
        elif rng.random() < 0.3:
            grid.cells[grid.idx(cell)] = CellState.EXPLORED
    start = rng.choice(cells)
    if rng.random() < 0.9:  # mostly a free start: a blocked one only raises
        grid.cells[grid.idx(start)] = CellState.UNEXPLORED
    goals = {
        rng.choice(cells) if rng.random() < 0.8 else (rng.randint(-2, width + 2), rng.randint(-2, height + 2))
        for _ in range(rng.randint(0, 8))
    }
    if rng.random() < 0.1:
        goals.add(start)
    return grid, start, goals


def assert_plans_like(reference, grid, start, goals):
    """`plan_travel_to_any` returns what `reference` returns, or raises
    ValueError where it does."""
    try:
        expected = reference(grid, start, goals)
    except ValueError:
        with pytest.raises(ValueError):
            plan_travel_to_any(grid, start, goals)
        return
    assert plan_travel_to_any(grid, start, goals) == expected


def sweep_region(grid, region, start):
    """Drive the planner to completion; returns (visit order, covered cells)."""
    state = make_planner(region, start)
    pose = start
    visits = []
    covered = []
    for _ in range(10 * len(region) + 20):
        wp = next_waypoint(grid, state, pose)
        if isinstance(wp, Done):
            return visits, covered, wp
        pose = wp
        visits.append(wp)
        if wp in region and grid.state(wp) is CellState.UNEXPLORED:
            mark_covered(grid, wp)
            covered.append(wp)
    raise AssertionError("planner failed to terminate")


class TestNextWaypoint:
    def test_empty_3x3_serpentine(self):
        grid = make_world(width=3, height=3)
        region = [(x, y) for x in range(3) for y in range(3)]
        visits, covered, done = sweep_region(grid, region, (0, 0))
        assert len(visits) == 9
        assert len(covered) == 9
        assert done.unreachable == frozenset()
        # pure serpentine: lane 0 down, lane 1 up, lane 2 down
        assert visits == [
            (0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0), (2, 0), (2, 1), (2, 2),
        ]

    def test_fully_explored_region_done(self):
        grid = make_world(width=3, height=3)
        region = [(x, y) for x in range(3) for y in range(3)]
        for cell in region:
            mark_covered(grid, cell)
        state = make_planner(region, (0, 0))
        assert isinstance(next_waypoint(grid, state, (0, 0)), Done)

    def test_center_obstacle_covers_eight(self):
        grid = make_world(width=3, height=3, obstacles=[[1, 1]])
        mark_sensed(grid, [(1, 1)])
        # buffer swallows the whole 3x3 except... everything is adjacent; use 5x5
        grid = make_world(width=5, height=5, obstacles=[[2, 2]])
        mark_sensed(grid, [(2, 2)])
        region = [(x, y) for x in range(5) for y in range(5)]
        reachable = sum(
            1 for c in region if grid.state(c) is CellState.UNEXPLORED
        )
        visits, covered, done = sweep_region(grid, region, (0, 0))
        assert len(covered) == reachable == 25 - 9
        assert done.unreachable == frozenset()

    def test_progress_strictly_decreases_unexplored(self):
        grid = make_world(width=6, height=4, obstacles=[[3, 1]])
        mark_sensed(grid, [(3, 1)])
        region = [(x, y) for x in range(6) for y in range(4)]
        state = make_planner(region, (0, 0))
        pose = (0, 0)
        remaining = sum(1 for c in region if grid.state(c) is CellState.UNEXPLORED)
        for _ in range(200):
            wp = next_waypoint(grid, state, pose)
            if isinstance(wp, Done):
                break
            pose = wp
            if grid.state(wp) is CellState.UNEXPLORED:
                mark_covered(grid, wp)
                now = sum(1 for c in region if grid.state(c) is CellState.UNEXPLORED)
                assert now == remaining - 1
                remaining = now
        assert remaining == 0

    def test_no_double_covering(self):
        grid = make_world(width=7, height=7, obstacles=[[3, 0], [3, 1], [3, 2], [3, 3]])
        mark_sensed(grid, [(3, y) for y in range(4)])
        region = [(x, y) for x in range(7) for y in range(7)]
        free = sum(1 for c in region if grid.state(c) is CellState.UNEXPLORED)
        _, covered, _ = sweep_region(grid, region, (0, 0))
        assert len(covered) == len(set(covered)) == free

    def test_walled_off_pocket_reported(self):
        # a known box around (5,5): the unexplored inside is unreachable
        grid = make_world(width=9, height=9)
        box = [(x, y) for x in range(3, 8) for y in range(3, 8) if x in (3, 7) or y in (3, 7)]
        mark_sensed(grid, box)
        region = [(5, 5), (0, 0)]
        state = make_planner(region, (0, 0))
        wp = next_waypoint(grid, state, (0, 0))
        assert wp == (0, 0)  # cover the reachable cell first
        mark_covered(grid, (0, 0))
        wp = next_waypoint(grid, state, (0, 0))
        assert isinstance(wp, Done)
        assert wp.unreachable == frozenset({(5, 5)})

    def test_pose_itself_covered_first(self):
        grid = make_world(width=4, height=4)
        region = [(x, y) for x in range(4) for y in range(4)]
        state = make_planner(region, (2, 2))
        assert next_waypoint(grid, state, (2, 2)) == (2, 2)

    @settings(max_examples=300, deadline=None)
    @given(detour_cases())
    def test_detour_search_matches_the_tuple_oracle(self, case):
        assert _nearest_unexplored_path(*case) == tuple_nearest_unexplored_path(*case)


class TestPlanTravel:
    def test_same_cell_empty_path(self):
        grid = make_world()
        assert plan_travel_to_any(grid, (3, 3), {(3, 3)}) == ([], (3, 3))

    def test_corridor_straight_line(self):
        grid = make_world(width=5, height=1, tasks=[{"x": 0, "y": 0, "w": 5, "h": 1}])
        found = plan_travel_to_any(grid, (0, 0), {(4, 0)})
        assert found == ([(1, 0), (2, 0), (3, 0), (4, 0)], (4, 0))

    def test_detour_matches_bfs_oracle(self):
        # wall across the middle column except the top cell
        grid = make_world(width=3, height=3)
        grid.cells[grid.idx((1, 0))] = CellState.OBSTACLE
        grid.cells[grid.idx((1, 1))] = CellState.OBSTACLE
        found = plan_travel_to_any(grid, (0, 1), {(2, 1)})
        assert found is not None
        assert len(found[0]) == bfs_oracle(grid, (0, 1), (2, 1)) == 4

    def test_random_maps_match_oracle(self):
        import random

        rng = random.Random(99)
        for trial in range(30):
            grid = make_world(width=8, height=8)
            for _ in range(10):
                cell = (rng.randrange(8), rng.randrange(8))
                if cell not in ((0, 0), (7, 7)):
                    grid.cells[grid.idx(cell)] = CellState.OBSTACLE
            expected = bfs_oracle(grid, (0, 0), (7, 7))
            found = plan_travel_to_any(grid, (0, 0), {(7, 7)})
            if expected is None:
                assert found is None
            else:
                assert found is not None
                path, _goal = found
                assert len(path) == expected
                assert path[-1] == (7, 7)
                prev = (0, 0)
                for cell in path:
                    assert abs(cell[0] - prev[0]) + abs(cell[1] - prev[1]) == 1
                    assert grid.state(cell) not in (CellState.OBSTACLE, CellState.FORBIDDEN)
                    prev = cell

    def test_unreachable_returns_none(self):
        grid = make_world(width=3, height=1, tasks=[{"x": 0, "y": 0, "w": 3, "h": 1}])
        grid.cells[grid.idx((1, 0))] = CellState.OBSTACLE
        assert plan_travel_to_any(grid, (0, 0), {(2, 0)}) is None

    def test_unknown_cells_optimistically_traversable(self):
        grid = make_world(width=4, height=4)
        path, _goal = plan_travel_to_any(grid, (0, 0), {(3, 3)})
        assert len(path) == 6

    def test_blocked_start_rejected(self):
        grid = make_world()
        mark_sensed(grid, [(2, 2)])
        with pytest.raises(ValueError):
            plan_travel_to_any(grid, (2, 2), {(0, 0)})

    def test_multi_target_picks_nearest(self):
        grid = make_world(width=6, height=6)
        found = plan_travel_to_any(grid, (0, 0), {(5, 5), (2, 0), (0, 3)})
        assert found is not None
        path, goal = found
        assert goal == (2, 0)
        assert len(path) == 2

    @settings(max_examples=200, deadline=None)
    @given(travel_cases())
    def test_matches_the_tuple_oracle(self, case):
        assert_plans_like(tuple_travel_to_any, *case)

    @settings(max_examples=40, deadline=None)
    @given(travel_cases(max_side=70))
    def test_matches_the_tuple_oracle_on_wide_grids(self, case):
        # rows of up to 70 cells straddle the 30-bit digits of CPython's ints
        assert_plans_like(tuple_travel_to_any, *case)

    @pytest.mark.parametrize(
        "start, goal, path",
        [
            # the cell after (3, 0) in row-major order is (0, 1), a row below
            ((3, 0), (0, 1), [(2, 0), (1, 0), (0, 0), (0, 1)]),
            # and the cell before (0, 1) is (3, 0), a row above
            ((0, 1), (3, 0), [(0, 0), (1, 0), (2, 0), (3, 0)]),
        ],
    )
    def test_a_row_end_does_not_wrap_into_the_next_row(self, start, goal, path):
        grid = make_world(width=4, height=3)
        assert plan_travel_to_any(grid, start, {goal}) == (path, goal)

    def test_goals_at_the_first_and_the_last_cell(self):
        grid = make_world(width=5, height=3)
        ends = {(0, 0), (4, 2)}
        assert plan_travel_to_any(grid, (1, 0), ends) == ([(0, 0)], (0, 0))
        assert plan_travel_to_any(grid, (4, 1), ends) == ([(4, 2)], (4, 2))
        # both 3 steps from (2, 1): the lowest index wins
        assert plan_travel_to_any(grid, (2, 1), ends) == ([(1, 1), (0, 1), (0, 0)], (0, 0))
        assert plan_travel_to_any(grid, (3, 1), ends) == ([(3, 2), (4, 2)], (4, 2))

    @pytest.mark.parametrize("width, height", [(1, 7), (7, 1), (1, 1)])
    def test_one_cell_wide_grids(self, width, height):
        grid = make_world(width=width, height=height)
        last = (width - 1, height - 1)
        line = [(x, y) for x in range(width) for y in range(height)]
        assert plan_travel_to_any(grid, (0, 0), {last}) == (line[1:], last)
        assert plan_travel_to_any(grid, last, {(0, 0)}) == (line[-2::-1], (0, 0))
        if len(line) > 2:
            grid.cells[grid.idx(line[1])] = CellState.OBSTACLE
            assert plan_travel_to_any(grid, (0, 0), {last}) is None
            assert plan_travel_to_any(grid, last, {line[2]}) == (line[-2:1:-1], line[2])

    def test_blocked_start_raises_in_both(self):
        grid = make_world(width=5, height=3)
        grid.cells[grid.idx((4, 1))] = CellState.FORBIDDEN
        for bfs in (plan_travel_to_any, tuple_travel_to_any):
            with pytest.raises(ValueError):
                bfs(grid, (4, 1), {(0, 0), (9, 9)})

    def test_first_expander_becomes_parent(self):
        # (0, 1) and (1, 0) both reach (1, 1); (0, 1) comes first in (x, y) order
        grid = make_world(width=6, height=6)
        assert plan_travel_to_any(grid, (0, 0), {(1, 1)}) == ([(0, 1), (1, 1)], (1, 1))

    def test_frontier_order_picks_between_equal_paths(self):
        # two shortest paths reach (2, 6); an unsorted frontier takes the
        # northern one
        rows = [
            "........#..",
            "#.....#....",
            "........#..",
            ".##....##..",
            ".......#...",
            "..#....#...",
            "....#...#..",
            "...........",
            ".#.........",
            "...........",
        ]
        grid = make_world(width=11, height=10)
        for y, row in enumerate(rows):
            for x, char in enumerate(row):
                if char == "#":
                    grid.cells[grid.idx((x, y))] = CellState.OBSTACLE
        goals = {(7, 2), (2, 6), (10, 6), (1, 4)}
        expected = ([(5, 7), (4, 7), (3, 7), (2, 7), (2, 6)], (2, 6))
        assert tuple_travel_to_any(grid, (5, 6), goals) == expected
        assert plan_travel_to_any(grid, (5, 6), goals) == expected

    def test_goals_outside_the_grid_are_never_reached(self):
        grid = make_world(width=3, height=2)
        # (0, 2) would alias cell (1, 0) under a column-major number x*h + y
        assert plan_travel_to_any(grid, (0, 0), {(0, 2), (-1, 0), (3, 1)}) is None

    def test_multi_target_tie_breaks_lowest_index(self):
        grid = make_world(width=6, height=6)
        # both at distance 2: (2, 0) idx 2 and (0, 2) idx 12
        found = plan_travel_to_any(grid, (0, 0), {(0, 2), (2, 0)})
        _, goal = found
        assert goal == (2, 0)


@st.composite
def belief_cases(draw):
    """A team map and two robots' views of it after random sensing,
    covering and syncs; robot 1's view may be detached."""
    width = draw(st.integers(1, 14))
    height = draw(st.integers(1, 14))
    grid = make_world(width=width, height=height)
    beliefs = Beliefs(grid)
    views = [beliefs.view(1), beliefs.view(2)]
    cells = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    kinds = st.sampled_from(("sense", "cover", "sync", "detach"))
    # who writes: the team map (None) or a robot's view
    ops = st.tuples(kinds, st.sampled_from((None, 0, 1)), cells)
    for op, who, cell in draw(st.lists(ops, max_size=20)):
        target = grid if who is None else views[who]
        if op == "sense":
            mark_sensed(target, [cell])
        elif op == "cover":
            if target.state(cell) is CellState.UNEXPLORED:
                if who is None:
                    mark_covered(grid, cell)
                else:
                    target.explore(cell)
        elif op == "sync":
            beliefs.sync()
        elif op == "detach" and 1 in beliefs.views:
            beliefs.detach(1)
    start = draw(cells)
    goals = set(draw(st.lists(cells, max_size=6)))
    return grid, views, start, goals


@settings(max_examples=150, deadline=None)
@given(belief_cases())
def test_planning_on_a_belief_view_equals_planning_on_its_cells(case):
    grid, views, start, goals = case
    for view in views:
        copy = GridMap(grid.width, grid.height, grid.epsilon, view.cells, grid.task_of, tasks={})
        assert_plans_like(lambda _view, s, g: plan_travel_to_any(copy, s, g), view, start, goals)


@settings(max_examples=150, deadline=None)
@given(belief_cases())
def test_the_detour_search_on_a_belief_view_matches_the_tuple_oracle(case):
    grid, views, pose, goals = case
    cells = [(x, y) for x in range(grid.width) for y in range(grid.height)]
    for view in views:
        # every cell some write touched, so hits must skip the view's explored
        # cells and detours go round its obstacles, plus a few others
        region = frozenset(goals).union(c for c in cells if view.state(c) is not CellState.UNEXPLORED)
        copy = GridMap(grid.width, grid.height, grid.epsilon, view.cells, grid.task_of, tasks={})
        assert _nearest_unexplored_path(view, pose, region) == tuple_nearest_unexplored_path(copy, pose, region)
