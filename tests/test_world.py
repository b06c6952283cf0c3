"""Tiling, sensing, covering, merging, the belief views, and sub-region partitioning."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from gridcover import world
from gridcover.models import remaining_worth
from gridcover.planner import plan_travel_to_any
from gridcover.scenario import Rect, TargetSpec, WorldSpec, parse_scenario
from gridcover.world import (
    Beliefs,
    CellState,
    Change,
    GridMap,
    GroundTruth,
    RangeSensor,
    TaskRegion,
    build_world,
    coverage_fraction,
    free_cells,
    mark_covered,
    mark_sensed,
    merge_maps,
    partition_subregions,
)


def world_doc(width=10, height=10, tasks=None, obstacles=(), targets=None, robots=None):
    return {
        "world": {
            "width": width,
            "height": height,
            "tasks": tasks or [{"x": 0, "y": 0, "w": width, "h": height}],
            "obstacles": list(obstacles),
            "targets": targets or {"mode": "sampled", "lambda": 0.0},
        },
        "robots": robots or [{"id": 1, "start": [0, 0]}],
    }


def make_world(seed=0, **kwargs):
    config = parse_scenario(world_doc(**kwargs))
    return build_world(config.world, seed)


class TestBuildWorld:
    def test_benchmark_shape(self):
        tasks = [
            {"x": c * 10, "y": r * 25, "w": 10, "h": 25} for r in range(2) for c in range(5)
        ]
        grid = make_world(width=50, height=50, tasks=tasks)
        assert len(grid.tasks) == 10
        assert all(len(t.cells) == 250 for t in grid.tasks.values())
        assert grid.unexplored_total == 2500

    def test_minimal_world(self):
        grid = make_world(width=1, height=1)
        assert grid.unexplored_total == 1
        assert grid.targets == []
        assert grid.state((0, 0)) is CellState.UNEXPLORED

    def test_same_seed_same_targets(self):
        kwargs = dict(width=10, height=10, targets={"mode": "sampled", "lambda": 2.0})
        a = make_world(seed=42, **kwargs)
        b = make_world(seed=42, **kwargs)
        assert a.targets == b.targets
        c = make_world(seed=43, **kwargs)
        assert a.targets != c.targets or not a.targets

    def test_targets_only_on_coverable_cells(self):
        grid = make_world(
            seed=5,
            obstacles=[{"x": 3, "y": 3, "w": 2, "h": 2}],
            targets={"mode": "sampled", "lambda": 8.0},
        )
        assert grid.targets
        for x, y in grid.targets:
            assert grid.ground_truth.free_flags[y * grid.width + x]

    def test_explicit_targets_set_task_lambda(self):
        grid = make_world(targets={"mode": "explicit", "cells": [[1, 1], [1, 1], [5, 5]]})
        assert len(grid.targets) == 3
        assert grid.tasks[1].lam == 3.0

    def test_every_cell_belongs_to_one_task(self):
        tasks = [{"x": 0, "y": 0, "w": 5, "h": 10}, {"x": 5, "y": 0, "w": 5, "h": 10}]
        grid = make_world(tasks=tasks)
        seen = set()
        for t in grid.tasks.values():
            assert not (seen & set(t.cells))
            seen |= set(t.cells)
        assert len(seen) == 100


def reference_build_world(spec: WorldSpec, seed: int) -> GridMap:
    """`build_world` as it was built cell by cell: the buffer from each
    obstacle's 8 neighbours, centroids summed over the cells, and each
    target pool sorted from a filter of the task's cells."""

    def neighbors8(cell):
        x, y = cell
        near = [(x + dx, y + dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dx or dy]
        return [(nx, ny) for nx, ny in near if 0 <= nx < spec.width and 0 <= ny < spec.height]

    def centroid(cells):
        sx = sum(c[0] + 0.5 for c in cells)
        sy = sum(c[1] + 0.5 for c in cells)
        return (sx * spec.epsilon_m / len(cells), sy * spec.epsilon_m / len(cells))

    obstacles = frozenset(spec.obstacles)
    buffer = {nb for cell in obstacles for nb in neighbors8(cell)}
    every = frozenset(itertools.product(range(spec.width), range(spec.height)))
    free = every.difference(obstacles, buffer)
    flags = bytes((x, y) in free for y in range(spec.height) for x in range(spec.width))
    truth = GroundTruth(obstacles=obstacles, free_flags=flags)
    w = spec.width
    task_of = [0] * (w * spec.height)
    tasks = {}
    for i, rect in enumerate(spec.tasks, start=1):
        cells = tuple(rect.cells())
        for x, y in cells:
            task_of[y * w + x] = i
        tasks[i] = TaskRegion(
            id=i, cells=cells, bbox=rect, lam=0.0, n_unexplored=len(cells), centroid_m=centroid(cells)
        )
    grid = GridMap(
        width=w,
        height=spec.height,
        epsilon=spec.epsilon_m,
        cells=[CellState.UNEXPLORED] * (w * spec.height),
        task_of=task_of,
        tasks=tasks,
        ground_truth=truth,
        unexplored_total=w * spec.height,
    )
    placed = []
    if spec.targets.mode == "sampled":
        rng = random.Random(f"{seed}:targets")
        for i in tasks:
            lam = spec.targets.lam[i - 1] if spec.targets.lam else 0.0
            tasks[i].lam = lam
            open_cells = sorted(c for c in tasks[i].cells if c in free)
            if not open_cells:
                continue
            for _ in range(world._sample_poisson(lam, rng)):
                placed.append(open_cells[rng.randrange(len(open_cells))])
    else:
        placed = list(spec.targets.cells)
        for x, y in placed:
            tasks[task_of[y * w + x]].lam += 1.0
    for cell in placed:
        grid.targets.append(cell)
        grid.targets_at[cell] = placed.count(cell)
    for task in tasks.values():
        task.worth = remaining_worth(task.lam, 0)
    return grid


@st.composite
def world_specs(draw):
    """Worlds as the parser leaves them: tasks partitioning the grid, each
    band of rows cut into its own columns (1-cell tasks included), sorted
    obstacles that favour the edges, the corners and neighbouring pairs,
    and sampled targets under a zero, a shared or a listed lambda, or
    explicit targets."""
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    epsilon = draw(st.sampled_from([0.1, 0.3, 0.5, 1.0, 1.3]))

    def cuts(side):
        inner = draw(st.lists(st.integers(1, side - 1), unique=True)) if side > 1 else []
        return [0, *sorted(inner), side]

    tasks = []
    rows = cuts(height)
    for y0, y1 in zip(rows, rows[1:]):
        columns = cuts(width)
        tasks += [Rect(x0, y0, x1 - x0, y1 - y0) for x0, x1 in zip(columns, columns[1:])]
    cells = [(x, y) for y in range(height) for x in range(width)]
    edges = [(x, y) for x, y in cells if x in (0, width - 1) or y in (0, height - 1)]
    obstacles = set(draw(st.lists(st.sampled_from(cells), max_size=len(cells) // 3)))
    obstacles |= set(draw(st.lists(st.sampled_from(edges), max_size=4)))
    for x, y in draw(st.lists(st.sampled_from(cells), max_size=3)):
        obstacles |= {(x, y), (min(x + 1, width - 1), y), (x, min(y + 1, height - 1))}
    kind = draw(st.sampled_from(["zero", "shared", "listed", "explicit"]))
    if kind == "explicit":
        open_cells = [c for c in cells if c not in obstacles]
        listed = draw(st.lists(st.sampled_from(open_cells), max_size=6)) if open_cells else []
        targets = TargetSpec(mode="explicit", cells=tuple(sorted(listed)))
    else:
        lam = {"zero": st.just(0.0), "shared": st.floats(0.0, 6.0), "listed": None}[kind]
        if lam is None:
            lams = tuple(draw(st.lists(st.floats(0.0, 6.0), min_size=len(tasks), max_size=len(tasks))))
        else:
            lams = (draw(lam),) * len(tasks)
        targets = TargetSpec(mode="sampled", lam=lams)
    return WorldSpec(width, height, epsilon, tuple(sorted(obstacles)), tuple(tasks), targets)


@settings(max_examples=300, deadline=None)
@given(world_specs(), st.integers(0, 2**16))
def test_the_world_is_built_like_the_reference(spec, seed):
    built, reference = build_world(spec, seed), reference_build_world(spec, seed)
    assert built.ground_truth.obstacles == reference.ground_truth.obstacles
    assert built.ground_truth.free_flags == reference.ground_truth.free_flags
    assert built.task_of == reference.task_of
    assert list(built.tasks) == list(reference.tasks)
    for task, want in zip(built.tasks.values(), reference.tasks.values()):
        assert task.cells == want.cells  # in the same order
        assert [v.hex() for v in task.centroid_m] == [v.hex() for v in want.centroid_m]
        assert vars(task) == vars(want)
    assert built.targets == reference.targets
    assert built.targets_at == reference.targets_at
    assert built == reference


class TestMarkSensed:
    def test_obstacle_and_buffer(self):
        grid = make_world()
        changes = mark_sensed(grid, [(5, 5)])
        assert grid.state((5, 5)) is CellState.OBSTACLE
        neighbors = [
            (x, y) for x in (4, 5, 6) for y in (4, 5, 6) if (x, y) != (5, 5)
        ]
        for nb in neighbors:
            assert grid.state(nb) is CellState.FORBIDDEN
        assert len(changes) == 9

    def test_corner_obstacle_clips_neighborhood(self):
        grid = make_world()
        changes = mark_sensed(grid, [(0, 0)])
        states = {c.cell: c.new for c in changes}
        assert states[(0, 0)] is CellState.OBSTACLE
        assert set(states) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_explored_cell_unaffected(self):
        grid = make_world()
        mark_covered(grid, (5, 5))
        changes = mark_sensed(grid, [(5, 6)])
        assert grid.state((5, 5)) is CellState.EXPLORED
        assert (5, 5) not in {c.cell for c in changes}

    def test_idempotent(self):
        grid = make_world()
        first = mark_sensed(grid, [(5, 5)])
        second = mark_sensed(grid, [(5, 5)])
        assert first and not second

    def test_out_of_grid_rejected(self):
        grid = make_world()
        with pytest.raises(ValueError):
            mark_sensed(grid, [(99, 0)])


class TestMarkCovered:
    def test_discovers_target(self):
        grid = make_world(targets={"mode": "explicit", "cells": [[2, 3]]})
        change, found = mark_covered(grid, (2, 3))
        assert change.new is CellState.EXPLORED
        assert found == 1
        assert grid.tasks[1].found == 1

    def test_recover_is_noop(self):
        grid = make_world(targets={"mode": "explicit", "cells": [[2, 3]]})
        mark_covered(grid, (2, 3))
        change, found = mark_covered(grid, (2, 3))
        assert change is None and found == 0
        assert grid.tasks[1].found == 1

    def test_stacked_targets_both_found(self):
        grid = make_world(targets={"mode": "explicit", "cells": [[2, 3], [2, 3]]})
        _, found = mark_covered(grid, (2, 3))
        assert found == 2

    def test_covering_blocked_cell_raises(self):
        grid = make_world()
        mark_sensed(grid, [(5, 5)])
        with pytest.raises(ValueError):
            mark_covered(grid, (5, 5))
        with pytest.raises(ValueError):
            mark_covered(grid, (5, 6))


class TestMergeMaps:
    def test_disjoint_union(self):
        grid = make_world()
        changes = [
            Change((1, 1), CellState.UNEXPLORED, CellState.EXPLORED),
            Change((2, 2), CellState.UNEXPLORED, CellState.OBSTACLE),
        ]
        merge_maps(grid, changes)
        assert grid.state((1, 1)) is CellState.EXPLORED
        assert grid.state((2, 2)) is CellState.OBSTACLE

    def test_precedence_obstacle_wins(self):
        grid = make_world()
        mark_covered(grid, (4, 4))
        merge_maps(grid, [Change((4, 4), CellState.UNEXPLORED, CellState.OBSTACLE)])
        assert grid.state((4, 4)) is CellState.OBSTACLE
        # and the reverse direction cannot downgrade
        merge_maps(grid, [Change((4, 4), CellState.UNEXPLORED, CellState.EXPLORED)])
        assert grid.state((4, 4)) is CellState.OBSTACLE

    def test_idempotent_and_commutative(self):
        changes_a = [
            Change((1, 1), CellState.UNEXPLORED, CellState.EXPLORED),
            Change((1, 2), CellState.UNEXPLORED, CellState.FORBIDDEN),
        ]
        changes_b = [
            Change((1, 1), CellState.UNEXPLORED, CellState.OBSTACLE),
            Change((3, 3), CellState.UNEXPLORED, CellState.EXPLORED),
        ]
        ab = make_world()
        merge_maps(merge_maps(ab, changes_a), changes_b)
        ba = make_world()
        merge_maps(merge_maps(ba, changes_b), changes_a)
        twice = make_world()
        merge_maps(merge_maps(merge_maps(twice, changes_a), changes_a), changes_b)
        assert ab.cells == ba.cells == twice.cells
        assert ab.unexplored_total == ba.unexplored_total

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_merge_algebra_property(self, data):
        cells = [(x, y) for x in range(4) for y in range(4)]
        states = [CellState.EXPLORED, CellState.FORBIDDEN, CellState.OBSTACLE]
        chg = st.lists(
            st.tuples(st.sampled_from(cells), st.sampled_from(states)).map(
                lambda t: Change(t[0], CellState.UNEXPLORED, t[1])
            ),
            max_size=12,
        )
        set_a = data.draw(chg)
        set_b = data.draw(chg)
        one = make_world(width=4, height=4)
        merge_maps(merge_maps(one, set_a), set_b)
        other = make_world(width=4, height=4)
        merge_maps(merge_maps(merge_maps(other, set_b), set_a), set_b)
        assert one.cells == other.cells

    def test_out_of_grid_change_rejected(self):
        grid = make_world()
        with pytest.raises(ValueError):
            merge_maps(grid, [Change((50, 50), CellState.UNEXPLORED, CellState.EXPLORED)])

    CELLS = [(x, y) for x in range(6) for y in range(6)]
    HALVES = [{"x": 0, "y": 0, "w": 3, "h": 6}, {"x": 3, "y": 0, "w": 3, "h": 6}]

    def counters(self, grid):
        return (
            list(grid.cells),
            grid.unexplored_total,
            [t.n_unexplored for t in grid.tasks.values()],
        )

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_one_outbox_merges_like_list_by_list(self, data):
        states = [CellState.EXPLORED, CellState.FORBIDDEN, CellState.OBSTACLE]
        change = st.builds(
            lambda cell, new: Change(cell, CellState.UNEXPLORED, new),
            st.sampled_from(self.CELLS),
            st.sampled_from(states),
        )
        lists = data.draw(st.lists(st.lists(change, max_size=12), min_size=1, max_size=5))
        order = data.draw(st.permutations(range(len(lists))))
        whole = make_world(width=6, height=6, tasks=self.HALVES)
        by_list = make_world(width=6, height=6, tasks=self.HALVES)
        merge_maps(whole, [c for changes in lists for c in changes])
        for k in order:
            merge_maps(by_list, lists[k])
        assert self.counters(whole) == self.counters(by_list)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_own_changes_come_back_as_no_ops(self, data):
        grid = make_world(width=6, height=6, tasks=self.HALVES)
        own = []
        for cell, occupied in data.draw(st.lists(st.tuples(st.sampled_from(self.CELLS), st.booleans()))):
            if occupied:
                own += mark_sensed(grid, [cell])
            elif grid.state(cell) in (CellState.UNEXPLORED, CellState.EXPLORED):
                change, _found = mark_covered(grid, cell)
                own += [change] if change else []
        before = self.counters(grid)
        merge_maps(grid, own)
        assert self.counters(grid) == before


def visited_flags(grid, cells) -> bytearray:
    """The engine's record of the cells robots stood on: a flag byte per cell."""
    flags = bytearray(grid.width * grid.height)
    for cell in cells:
        flags[grid.idx(cell)] = 1
    return flags


class TestCoverageAccounting:
    def test_fresh_world_zero(self):
        grid = make_world()
        assert coverage_fraction(grid.ground_truth, visited_flags(grid, ())) == 0.0

    def test_all_free_explored_is_one(self):
        grid = make_world(
            width=4, height=4, obstacles=[[0, 0]], robots=[{"id": 1, "start": [3, 3]}]
        )
        # visiting obstacle or buffer cells counts for nothing
        coverable = [(x, y) for y in range(4) for x in range(4) if grid.ground_truth.free_flags[y * 4 + x]]
        assert len(coverable) == 16 - 4
        visited = set(coverable) | {(0, 0), (1, 1)}
        assert coverage_fraction(grid.ground_truth, visited_flags(grid, visited)) == 1.0

    def test_monotone_under_covering(self):
        grid = make_world(width=6, height=6)
        rng = random.Random(3)
        last = 0.0
        cells = [(x, y) for x in range(6) for y in range(6)]
        rng.shuffle(cells)
        visited = bytearray(36)
        for cell in cells:
            visited[grid.idx(cell)] = 1
            now = coverage_fraction(grid.ground_truth, visited)
            assert now >= last
            last = now
        assert last == 1.0

    def test_empty_free_space_defined_as_one(self):
        # no valid robot start exists here, so build the spec directly
        from gridcover.scenario import Rect, TargetSpec, WorldSpec

        spec = WorldSpec(
            width=2,
            height=2,
            epsilon_m=1.0,
            obstacles=tuple((x, y) for x in range(2) for y in range(2)),
            tasks=(Rect(0, 0, 2, 2),),
            targets=TargetSpec(mode="sampled", lam=(0.0,)),
        )
        grid = build_world(spec, 0)
        assert not any(grid.ground_truth.free_flags)
        assert coverage_fraction(grid.ground_truth, visited_flags(grid, [(0, 0)])) == 1.0

    def test_unexplored_count_fresh_task(self):
        tasks = [
            {"x": c * 10, "y": r * 25, "w": 10, "h": 25} for r in range(2) for c in range(5)
        ]
        grid = make_world(width=50, height=50, tasks=tasks)
        assert grid.tasks[1].n_unexplored == 250

    def test_unexplored_count_arithmetic(self):
        tasks = [
            {"x": c * 10, "y": r * 25, "w": 10, "h": 25} for r in range(2) for c in range(5)
        ]
        grid = make_world(width=50, height=50, tasks=tasks)
        # discover a 3x4 obstacle block inside task 1: 12 obstacle + 18 buffer = 30
        mark_sensed(grid, [(x, y) for x in range(2, 5) for y in range(2, 6)])
        blocked = 250 - grid.tasks[1].n_unexplored
        assert blocked == 12 + 18
        covered = 0
        for cell in grid.tasks[1].cells:
            if grid.state(cell) is CellState.UNEXPLORED:
                mark_covered(grid, cell)
                covered += 1
                if covered == 100:
                    break
        assert grid.tasks[1].n_unexplored == 250 - 30 - 100

    def test_total_unexplored_matches_sum(self):
        tasks = [{"x": 0, "y": 0, "w": 5, "h": 10}, {"x": 5, "y": 0, "w": 5, "h": 10}]
        grid = make_world(tasks=tasks, obstacles=[[2, 2]])
        mark_sensed(grid, [(2, 2)])
        mark_covered(grid, (0, 0))
        total = sum(t.n_unexplored for t in grid.tasks.values())
        assert total == grid.unexplored_total == 100 - 9 - 1


class TestWatchedRegion:
    """A robot's view counts the unexplored cells of the region it watches."""

    def fresh_count(self, view):
        return sum(1 for c in view.watched if view.state(c) is CellState.UNEXPLORED)

    def test_count_follows_sensing_covering_and_merging(self):
        grid = make_world(obstacles=[[2, 2]])
        beliefs = Beliefs(grid)
        view = beliefs.view(1)
        view.watch([(x, y) for x in range(4) for y in range(4)])
        assert view.watched_unexplored == 16
        readings = [(2, 2)]  # obstacle plus 8 buffer cells, all watched
        mark_sensed(view, readings)
        mark_sensed(grid, readings)  # the team map takes each write as the view does
        assert view.watched_unexplored == 16 - 9
        for _ in range(2):
            mark_covered(grid, (0, 0))
            view.explore((0, 0))
        assert view.watched_unexplored == 16 - 10
        # the rest of the team's writes reach the view at the sync
        mark_covered(grid, (0, 3))
        merge_maps(grid, [Change((0, 3), CellState.UNEXPLORED, CellState.OBSTACLE)])  # upgrade, no second count
        mark_covered(grid, (9, 9))  # outside the region
        assert grid.since_sync[grid.idx((0, 3))] is CellState.UNEXPLORED  # the state at the last sync
        assert view.watched_unexplored == 16 - 10
        beliefs.sync()
        assert view.own == {} and grid.since_sync == {}  # own writes are the team map's now, counted once
        assert view.watched_unexplored == 16 - 11 == self.fresh_count(view)
        assert view.cells == grid.cells and grid.unexplored_total == 100 - 12

    def test_watching_a_new_region_recounts(self):
        view = Beliefs(make_world()).view(1)
        view.watch([(0, 0), (1, 0)])
        view.explore((0, 0))
        view.explore((5, 5))
        view.watch([(5, 5), (6, 6), (7, 7)])
        assert view.watched_unexplored == 2
        view.explore((1, 0))  # the old region is no longer counted
        assert view.watched_unexplored == 2
        view.watch(())
        assert view.watched == frozenset() and view.watched_unexplored == 0

    def test_belief_copy_watches_nothing(self):
        # a new view watches nothing, and another robot's write reaches a
        # view only at a sync
        grid = make_world()
        beliefs = Beliefs(grid)
        first, second = beliefs.view(1), beliefs.view(2)
        assert second.watched == frozenset() and second.watched_unexplored == 0
        first.watch([(0, 0), (1, 0)])
        second.watch([(0, 0), (1, 0)])
        mark_covered(grid, (0, 0))
        first.explore((0, 0))
        assert (first.watched_unexplored, second.watched_unexplored) == (1, 2)
        assert second.state((0, 0)) is CellState.UNEXPLORED
        assert grid.state((0, 0)) is CellState.EXPLORED and grid.since_sync == {0: CellState.UNEXPLORED}
        beliefs.sync()
        assert (first.watched_unexplored, second.watched_unexplored) == (1, 1)
        assert second.state((0, 0)) is CellState.EXPLORED

    def test_belief_copy_carries_no_task_records(self):
        # a view's writes leave the team map's task records alone; the team
        # map's own writes keep them
        grid = make_world(tasks=[{"x": 0, "y": 0, "w": 5, "h": 10}, {"x": 5, "y": 0, "w": 5, "h": 10}])
        beliefs = Beliefs(grid)
        view = beliefs.view(1)
        mark_sensed(view, [(5, 5)])
        view.explore((0, 0))
        assert [t.n_unexplored for t in grid.tasks.values()] == [50, 50]
        assert grid.unexplored_total == 100
        mark_sensed(grid, [(5, 5)])  # 3 cells in the left task, 6 in the right one
        mark_covered(grid, (0, 0))
        mark_covered(grid, (9, 0))
        beliefs.sync()
        assert [t.n_unexplored for t in grid.tasks.values()] == [50 - 3 - 1, 50 - 6 - 1]
        assert grid.unexplored_total == 100 - 11
        assert view.cells == grid.cells

    def test_mark_sensed_on_a_belief_keeps_its_watched_count(self):
        view = Beliefs(make_world()).view(1)
        view.watch([(x, y) for x in range(4) for y in range(4)])
        mark_sensed(view, [(3, 3)])  # the obstacle and 3 of its 8 buffer cells are watched
        assert view.watched_unexplored == 16 - 4 == self.fresh_count(view)
        assert view.cells.count(CellState.UNEXPLORED) == 100 - 9


class TestBlockedCount:
    """`n_blocked` counts writes of FORBIDDEN or OBSTACLE, whoever makes them."""

    def test_counts_sensed_obstacles_and_buffers(self):
        grid = make_world(obstacles=[[2, 2], [0, 9]])
        mark_sensed(grid, [(2, 2)])  # the obstacle and its 8 buffer cells
        assert grid.n_blocked == 9
        mark_sensed(grid, [(2, 2)])  # nothing new
        assert grid.n_blocked == 9
        mark_sensed(grid, [(0, 9)])  # a corner: 3 buffer cells
        assert grid.n_blocked == 9 + 4

    def test_counts_merge_upgrades(self):
        grid = make_world()
        mark_covered(grid, (1, 1))
        merge_maps(
            grid,
            [
                Change((1, 1), CellState.UNEXPLORED, CellState.FORBIDDEN),  # EXPLORED -> FORBIDDEN
                Change((1, 1), CellState.UNEXPLORED, CellState.OBSTACLE),  # FORBIDDEN -> OBSTACLE
                Change((4, 4), CellState.UNEXPLORED, CellState.FORBIDDEN),
                Change((5, 5), CellState.UNEXPLORED, CellState.EXPLORED),
            ],
        )
        assert grid.n_blocked == 3
        merge_maps(grid, [Change((1, 1), CellState.UNEXPLORED, CellState.FORBIDDEN)])  # no write
        assert grid.n_blocked == 3

    def test_covering_is_not_counted(self):
        grid = make_world()
        for cell in [(0, 0), (1, 0), (1, 0), (9, 9)]:
            mark_covered(grid, cell)
        assert grid.n_blocked == 0

    def test_each_map_counts_its_own_writes(self):
        grid = make_world(obstacles=[[5, 5]])
        beliefs = Beliefs(grid)
        view = beliefs.view(1)
        mark_sensed(view, [(5, 5)])
        assert (view.n_blocked, grid.n_blocked) == (9, 0)
        mark_sensed(grid, [(5, 5)])
        assert (view.n_blocked, grid.n_blocked) == (9, 9)
        beliefs.sync()  # the view's count takes the team map's, as of the sync
        assert (view.n_blocked, grid.n_blocked) == (9 + 9, 9)


class TestBeliefViews:
    """The views against the model they replace: a full copy of the team map
    per live robot, reset to the team map at each sync, that takes the
    robot's own writes, and whose watched count is a fresh count of its
    region. The ops write the team map as the engine does; a failed robot's
    view is dropped, and only the live views are checked."""

    CELLS = [(x, y) for x in range(6) for y in range(6)]

    def op(self, robots):
        cells = st.sampled_from(self.CELLS)
        robot = st.integers(0, robots - 1)
        return st.one_of(
            st.tuples(st.just("sense"), robot, st.lists(cells, min_size=1, max_size=3)),
            st.tuples(st.just("cover"), robot, cells),
            st.tuples(st.just("watch"), robot, st.sets(cells, max_size=12)),
            st.tuples(st.just("fail"), robot),
            st.just(("sync",)),
        )

    @staticmethod
    def full_copy(grid):
        return GridMap(grid.width, grid.height, grid.epsilon, list(grid.cells), grid.task_of, tasks={})

    @staticmethod
    def blocked(ref):
        return {i for i, state in enumerate(ref.cells) if state >= CellState.FORBIDDEN}

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_views_read_like_full_belief_copies(self, data):
        k = data.draw(st.integers(1, 4))
        grid = make_world(width=6, height=6)
        beliefs = Beliefs(grid)
        views = [beliefs.view(j) for j in range(k)]
        refs = [self.full_copy(grid) for _ in range(k)]
        regions = [frozenset()] * k
        live = set(range(k))
        synced = list(grid.cells)
        for op in data.draw(st.lists(self.op(k), max_size=40)):
            before = [(v.n_blocked, self.blocked(ref)) for v, ref in zip(views, refs)]
            kind, j = op[0], op[1] if len(op) > 1 else None
            if kind == "sync":
                if grid.since_sync:  # the engine syncs only then
                    beliefs.sync()
                for i in live:
                    refs[i] = self.full_copy(grid)
                synced = list(grid.cells)
            elif j not in live:
                continue  # a failed robot neither senses, covers nor watches
            elif kind == "sense":
                readings = op[2]
                changes = mark_sensed(views[j], readings)
                assert changes == mark_sensed(refs[j], readings)
                mark_sensed(grid, readings)
            elif kind == "cover":
                if grid.state(op[2]) >= CellState.FORBIDDEN:
                    continue  # the engine covers no cell the team map holds blocked
                mark_covered(grid, op[2])
                views[j].explore(op[2])
                merge_maps(refs[j], [Change(op[2], CellState.UNEXPLORED, CellState.EXPLORED)])
            elif kind == "watch":
                views[j].watch(op[2])
                regions[j] = op[2]
            else:
                live.discard(j)
                beliefs.drop(j)
            assert grid.since_sync == {i: old for i, old in enumerate(synced) if grid.cells[i] != old}
            assert sorted(beliefs.views) == sorted(live)
            for i in sorted(live):
                v, ref, region, (v_before, blocked_before) = views[i], refs[i], regions[i], before[i]
                assert v.cells == ref.cells
                assert v.free_mask() == free_cells(bytearray(ref.cells))
                assert [v.state(c) for c in self.CELLS] == [ref.state(c) for c in self.CELLS]
                assert v.watched == region
                assert v.watched_unexplored == sum(1 for c in region if ref.state(c) is CellState.UNEXPLORED)
                assert v.n_blocked >= v_before
                if self.blocked(ref) - blocked_before:
                    assert v.n_blocked != v_before
            assert [sorted(beliefs.synced.watchers[y * 6 + x]) for x, y in self.CELLS] == [
                [i for i in sorted(live) if c in regions[i]] for c in self.CELLS
            ]

    def test_a_cell_covered_before_a_buffering_reading_stays_explored(self):
        # robot 1 covers (1, 1); before the next sync robot 2, which still
        # holds it UNEXPLORED, senses the obstacle next to it and buffers it.
        # The team map keeps (1, 1) EXPLORED, and so does every belief after
        # the sync: no belief is ever split from the team map there
        grid = make_world(obstacles=[[2, 2]])
        beliefs = Beliefs(grid)
        first, second = beliefs.view(1), beliefs.view(2)
        mark_covered(grid, (1, 1))
        first.explore((1, 1))
        readings = [(2, 2)]
        mark_sensed(second, readings)
        mark_sensed(grid, readings)
        assert second.state((1, 1)) is CellState.FORBIDDEN
        assert grid.state((1, 1)) is CellState.EXPLORED
        beliefs.sync()
        assert [m.state((1, 1)) for m in (first, second, grid)] == [CellState.EXPLORED] * 3
        assert first.cells == second.cells == grid.cells


    def test_a_write_the_team_map_skipped_is_unexplored_again_after_the_sync(self):
        # robot 1 covers (0, 0); robot 2, which still holds it UNEXPLORED,
        # reads it as an obstacle and buffers (0, 1). The team map skips
        # the reading, so after the sync robot 2 holds (0, 1) UNEXPLORED
        # again and counts it
        grid = make_world()
        beliefs = Beliefs(grid)
        first, second = beliefs.view(1), beliefs.view(2)
        mark_covered(grid, (0, 0))
        first.explore((0, 0))
        readings = [(0, 0)]
        mark_sensed(second, readings)
        assert mark_sensed(grid, readings) == []
        second.watch([(0, 0), (0, 1)])
        assert second.watched_unexplored == 0
        beliefs.sync()
        assert second.cells == grid.cells
        assert second.watched_unexplored == 1


class TestFreeMask:
    """The live views share the synced team map's free-cell mask; a view
    with a blocked write of its own since the sync builds its own. Each
    view's mask is the one built from its cells.

    A 7x7 map: the obstacle at (3, 3) and its buffer block (2..4, 2..4),
    so a path from (0, 3) to (6, 3) goes straight without it and around
    it once it is held."""

    START, GOAL = (0, 3), (6, 3)
    STRAIGHT = [(x, 3) for x in range(1, 7)]

    @pytest.fixture
    def builds(self, monkeypatch):
        """The states of every mask the views build."""
        built = []

        def counted(states):
            built.append(bytes(states))
            return real(states)

        real = world.free_cells
        monkeypatch.setattr(world, "free_cells", counted)
        return built

    def path(self, view):
        assert view.free_mask() == free_cells(view.state_bytes())
        return plan_travel_to_any(view, self.START, {self.GOAL})[0]

    def test_a_view_with_its_own_blocked_write_plans_around_it(self):
        grid = make_world(width=7, height=7, obstacles=[[3, 3]])
        beliefs = Beliefs(grid)
        first, second = beliefs.view(1), beliefs.view(2)
        assert self.path(first) == self.path(second) == self.STRAIGHT  # the shared mask is built
        mark_sensed(first, [(3, 3)])
        assert (3, 3) not in self.path(first) and len(self.path(first)) > len(self.STRAIGHT)
        assert self.path(second) == self.STRAIGHT

    def test_a_sync_bringing_a_blocked_cell_rebuilds_the_shared_mask(self, builds):
        grid = make_world(width=7, height=7, obstacles=[[3, 3]])
        beliefs = Beliefs(grid)
        view = beliefs.view(1)
        assert self.path(view) == self.STRAIGHT
        mark_sensed(grid, [(3, 3)])  # another robot's reading
        assert self.path(view) == self.STRAIGHT  # not synced yet
        beliefs.sync()
        assert (3, 3) not in self.path(view) and len(self.path(view)) > len(self.STRAIGHT)
        # the shared mask, built once before the sync and once after
        assert len(builds) == 2 and builds[0] != builds[1]

    def test_a_sync_brings_a_view_that_wrote_nothing_to_the_team_map(self, builds):
        # robot 1 reads the obstacle and covers a cell; robot 2 writes
        # nothing, so the sync leaves its view untouched and it reads the
        # synced count and mask it shares
        grid = make_world(width=7, height=7, obstacles=[[3, 3]])
        beliefs = Beliefs(grid)
        writer, quiet = beliefs.view(1), beliefs.view(2)
        quiet.watch([(x, 3) for x in range(7)])
        for view in (writer, grid):
            mark_sensed(view, [(3, 3)])
        mark_covered(grid, (0, 0))
        writer.explore((0, 0))
        assert (writer.n_blocked, quiet.n_blocked) == (9, 0)
        assert (3, 3) not in self.path(writer) and self.path(quiet) == self.STRAIGHT
        beliefs.sync()
        assert (writer.n_blocked, quiet.n_blocked) == (9 + 9, 9)
        assert writer.cells == quiet.cells == grid.cells
        assert quiet.watched_unexplored == 7 - 3
        builds.clear()
        assert self.path(writer) == self.path(quiet) != self.STRAIGHT
        assert writer.free_mask() == quiet.free_mask() == free_cells(grid.state_bytes())
        assert len(builds) == 1  # the shared mask, once for both views
        # a later own write moves only the writer's count and mask
        mark_sensed(writer, [(6, 6)])
        assert (writer.n_blocked, quiet.n_blocked) == (9 + 9 + 4, 9)  # a corner: 3 buffer cells
        assert writer.free_mask() != quiet.free_mask()

    def test_plans_without_blocked_writes_cost_one_build(self, builds):
        grid = make_world(width=7, height=7)
        beliefs = Beliefs(grid)
        views = [beliefs.view(rid) for rid in range(1, 5)]
        for x in range(7):
            for view in views:
                view.free_mask()
                assert plan_travel_to_any(view, (x, 0), {(6, 6)}) is not None
            for y in range(7):
                mark_covered(grid, (x, y))
                views[y % 4].explore((x, y))
            beliefs.sync()
        assert len(builds) == 1


class TestRangeSensor:
    def brute_force(self, grid, cell, radius_m):
        pos = grid.cell_center(cell)
        return [
            c
            for c in sorted(grid.ground_truth.obstacles)
            if math.dist(grid.cell_center(c), pos) <= radius_m + 1e-9
        ]

    @pytest.mark.parametrize(
        "epsilon, radius_m, n_obstacles",
        [(1.0, 5.0, 40), (1.0, 2.5, 3), (0.3, 1.0, 40), (0.3, 0.75, 3), (2.0, 0.5, 40), (1.0, 1e3, 40)],
    )
    def test_reads_what_a_full_scan_reads(self, epsilon, radius_m, n_obstacles):
        rng = random.Random(7)
        cells = [(x, y) for x in range(16) for y in range(16)]
        doc = world_doc(width=16, height=16, obstacles=[list(c) for c in rng.sample(cells, n_obstacles)])
        doc["world"]["epsilon_m"] = epsilon
        grid = build_world(parse_scenario(doc).world, 0)
        sensor = RangeSensor(grid, radius_m)
        readings = [sensor.read(cell) for cell in cells]
        assert readings == [self.brute_force(grid, cell, radius_m) for cell in cells]
        assert any(readings)

    @pytest.mark.parametrize("width, height", [(16, 16), (16, 3)])
    def test_the_stencil_is_clipped_to_the_grid(self, width, height):
        grid = make_world(width=width, height=height, obstacles=[[3, 1]])
        sensor = RangeSensor(grid, 1e12)
        assert sum(2 * k + 1 for _dx, k, _span in sensor.columns) <= (2 * width + 1) * (2 * height + 1)
        assert sensor.read((width - 1, height - 1)) == [(3, 1)]

    @pytest.mark.parametrize("epsilon, radius_m", [(1.0, 2.5), (1.0, 5.0), (0.5, 3.0), (1.0, 40.0)])
    def test_reads_at_the_side_columns_what_a_disk_scan_reads(self, epsilon, radius_m):
        # the stencil of a cell within `reach` columns of a side runs off the
        # grid; the held-column bits must still answer for the columns on it
        rng = random.Random(11)
        width, height = 14, 6
        cells = [(x, y) for x in range(width) for y in range(height)]
        doc = world_doc(width=width, height=height, obstacles=[list(c) for c in rng.sample(cells, 9)])
        doc["world"]["epsilon_m"] = epsilon
        grid = build_world(parse_scenario(doc).world, 0)
        sensor = RangeSensor(grid, radius_m)
        sides = [(x, y) for x, y in cells if x < sensor.reach or x >= width - sensor.reach]

        def disk_scan(cell):
            pos = grid.cell_center(cell)
            return [c for c in sorted(sensor.held) if math.dist(grid.cell_center(c), pos) <= radius_m + 1e-9]

        assert [sensor.read(c) for c in sides] == [disk_scan(c) for c in sides]
        assert any(sensor.read(c) for c in sides)
        obstacles = sorted(grid.ground_truth.obstacles)
        for step in (3, 2, 1):
            # settle every step-th obstacle left, one of them in the last column
            written = [y * width + x for x, y in obstacles[::step]] + [(y + 1) * width - 1 for y in range(height)]
            sensor.settle(written)
            assert sensor.held == set(obstacles) - {(i % width, i // width) for i in written}
            assert [sensor.read(c) for c in sides] == [disk_scan(c) for c in sides]
            obstacles = sorted(sensor.held)
        assert sensor.held == set() and sensor.held_columns == 0

    @pytest.mark.parametrize("epsilon, radius_m", [(1.0, 2.5), (1.0, 5.0), (0.5, 3.0), (1.0, 40.0)])
    def test_reads_at_the_top_and_bottom_rows_what_a_disk_scan_reads(self, epsilon, radius_m):
        # a stencil column of a cell within `reach` rows of the top starts
        # above row 0, and one near the bottom runs past the last row; the
        # held row bits must still answer for the rows on the grid
        rng = random.Random(5)
        width, height = 6, 14
        cells = [(x, y) for x in range(width) for y in range(height)]
        obstacles = [[1, 0], [4, height - 1]] + [list(c) for c in rng.sample(cells, 9)]
        doc = world_doc(width=width, height=height, obstacles=obstacles, robots=[{"id": 1, "start": [3, 7]}])
        doc["world"]["epsilon_m"] = epsilon
        grid = build_world(parse_scenario(doc).world, 0)
        sensor = RangeSensor(grid, radius_m)
        ends = [(x, y) for x, y in cells if y < sensor.reach or y >= height - sensor.reach]

        def disk_scan(cell):
            pos = grid.cell_center(cell)
            return [c for c in sorted(sensor.held) if math.dist(grid.cell_center(c), pos) <= radius_m + 1e-9]

        assert [sensor.read(c) for c in ends] == [disk_scan(c) for c in ends]
        assert any(sensor.read(c) for c in ends)
        obstacles = sorted(grid.ground_truth.obstacles)
        for step in (3, 2, 1):
            # settle every step-th obstacle left, and every cell of the top and bottom rows
            written = [y * width + x for x, y in obstacles[::step]]
            written += [*range(width), *range(width * (height - 1), width * height)]
            sensor.settle(written)
            assert sensor.held == set(obstacles) - {(i % width, i // width) for i in written}
            assert [sensor.read(c) for c in ends] == [disk_scan(c) for c in ends]
            obstacles = sorted(sensor.held)
        assert sensor.held == set() and sensor.held_rows == [0] * width and sensor.held_columns == 0

    def sensing_world(self, obstacles):
        grid = make_world(obstacles=obstacles)
        return grid, Beliefs(grid), RangeSensor(grid, 1.0)

    def sense(self, view, grid, readings):
        # as the engine senses: the robot's view, then the team map
        mark_sensed(view, readings)
        mark_sensed(grid, readings)

    def sync(self, grid, beliefs, sensor):
        # as the engine syncs
        sensor.settle(grid.since_sync)
        beliefs.sync()

    def test_an_applied_reading_is_read_until_the_next_sync(self):
        grid, beliefs, sensor = self.sensing_world([[5, 5]])
        sensing, other = beliefs.view(1), beliefs.view(2)
        readings = sensor.read((4, 5))
        assert readings == [(5, 5)]
        self.sense(sensing, grid, readings)
        # the other robot's belief still lacks the obstacle
        assert other.state((5, 5)) is CellState.UNEXPLORED
        assert sensor.read((4, 5)) == readings
        self.sync(grid, beliefs, sensor)
        assert other.state((5, 5)) is CellState.OBSTACLE
        assert sensor.read((4, 5)) == []
        assert sensor.held == set() and sensor.held_rows == [0] * 10 and sensor.held_columns == 0

    def test_a_never_read_obstacle_stays_held(self):
        grid, beliefs, sensor = self.sensing_world([[1, 1], [8, 8]])
        view = beliefs.view(1)
        self.sense(view, grid, sensor.read((2, 1)))
        self.sync(grid, beliefs, sensor)
        assert sensor.held == {(8, 8)} and sensor.held_rows == [0] * 8 + [1 << 8, 0]
        assert sensor.held_columns == 1 << (8 + sensor.reach)
        assert sensor.read((7, 8)) == [(8, 8)]

    def test_an_obstacle_first_written_forbidden_is_dropped_at_the_sync(self):
        # (5, 4) is buffered as (4, 4)'s neighbour before it is read itself.
        # `mark_sensed` never upgrades FORBIDDEN to OBSTACLE, so the sensor
        # drops it. ROADMAP R1's sensing fix lets a reading make that
        # upgrade, and must then keep such a cell held until it is OBSTACLE
        # on the team map and synced.
        grid, beliefs, sensor = self.sensing_world([[4, 4], [5, 4]])
        view = beliefs.view(1)
        self.sense(view, grid, sensor.read((3, 4)))
        assert grid.state((5, 4)) is CellState.FORBIDDEN
        assert sensor.read((6, 4)) == [(5, 4)]
        self.sync(grid, beliefs, sensor)
        assert sensor.held == set()
        assert sensor.read((6, 4)) == []


class TestPartitionSubregions:
    def grid_10x25(self):
        tasks = [
            {"x": c * 10, "y": r * 25, "w": 10, "h": 25} for r in range(2) for c in range(5)
        ]
        return make_world(width=50, height=50, tasks=tasks)

    def test_benchmark_strip_heights(self):
        grid = self.grid_10x25()
        strips = partition_subregions(grid, 1, 4)
        heights = sorted(
            (max(c[1] for c in s) - min(c[1] for c in s) + 1) for s in strips
        )
        assert heights == [6, 6, 6, 7]
        assert sorted(len(s) for s in strips) == [60, 60, 60, 70]

    def test_partition_is_exact(self):
        grid = self.grid_10x25()
        for n_max in (1, 2, 3, 4, 7):
            strips = partition_subregions(grid, 3, n_max)
            assert len(strips) == n_max
            union = [c for s in strips for c in s]
            assert sorted(union) == sorted(grid.tasks[3].cells)
            assert len(union) == len(set(union))

    def test_single_subregion_is_task(self):
        grid = self.grid_10x25()
        strips = partition_subregions(grid, 2, 1)
        assert sorted(strips[0]) == sorted(grid.tasks[2].cells)

    def test_wide_task_splits_in_columns(self):
        tasks = [{"x": 0, "y": 0, "w": 10, "h": 4}, {"x": 0, "y": 4, "w": 10, "h": 6}]
        grid = make_world(width=10, height=10, tasks=tasks)
        strips = partition_subregions(grid, 1, 3)
        widths = sorted(max(c[0] for c in s) - min(c[0] for c in s) + 1 for s in strips)
        assert widths == [3, 3, 4]

    def test_more_subregions_than_cells(self):
        grid = make_world(width=2, height=2, tasks=[{"x": 0, "y": 0, "w": 2, "h": 2}])
        strips = partition_subregions(grid, 1, 6)
        assert len(strips) == 6
        assert [len(s) for s in strips] == [1, 1, 1, 1, 0, 0]

    def test_invalid_n_max(self):
        with pytest.raises(ValueError):
            partition_subregions(make_world(), 1, 0)
