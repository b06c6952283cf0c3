"""Tiling, sensing, covering, merging, and sub-region partitioning."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gridcover.scenario import parse_scenario
from gridcover.world import (
    CellState,
    Change,
    build_world,
    coverage_fraction,
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
        assert [t.cell for t in a.targets] == [t.cell for t in b.targets]
        c = make_world(seed=43, **kwargs)
        assert [t.cell for t in a.targets] != [t.cell for t in c.targets] or not a.targets

    def test_targets_only_on_coverable_cells(self):
        grid = make_world(
            seed=5,
            obstacles=[{"x": 3, "y": 3, "w": 2, "h": 2}],
            targets={"mode": "sampled", "lambda": 8.0},
        )
        for t in grid.targets:
            assert t.cell in grid.ground_truth.free_space

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


class TestMarkSensed:
    def test_obstacle_and_buffer(self):
        grid = make_world()
        changes = mark_sensed(grid, [((5, 5), True)])
        assert grid.state((5, 5)) is CellState.OBSTACLE
        neighbors = [
            (x, y) for x in (4, 5, 6) for y in (4, 5, 6) if (x, y) != (5, 5)
        ]
        for nb in neighbors:
            assert grid.state(nb) is CellState.FORBIDDEN
        assert len(changes) == 9

    def test_corner_obstacle_clips_neighborhood(self):
        grid = make_world()
        changes = mark_sensed(grid, [((0, 0), True)])
        states = {c.cell: c.new for c in changes}
        assert states[(0, 0)] is CellState.OBSTACLE
        assert set(states) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_explored_cell_unaffected(self):
        grid = make_world()
        mark_covered(grid, (5, 5))
        changes = mark_sensed(grid, [((5, 6), True)])
        assert grid.state((5, 5)) is CellState.EXPLORED
        assert (5, 5) not in {c.cell for c in changes}

    def test_idempotent(self):
        grid = make_world()
        first = mark_sensed(grid, [((5, 5), True)])
        second = mark_sensed(grid, [((5, 5), True)])
        assert first and not second

    def test_free_reading_no_change(self):
        grid = make_world()
        assert mark_sensed(grid, [((5, 5), False)]) == []

    def test_out_of_grid_rejected(self):
        grid = make_world()
        with pytest.raises(ValueError):
            mark_sensed(grid, [((99, 0), True)])


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
        mark_sensed(grid, [((5, 5), True)])
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


class TestCoverageAccounting:
    def test_fresh_world_zero(self):
        grid = make_world()
        assert coverage_fraction(grid.ground_truth, set()) == 0.0

    def test_all_free_explored_is_one(self):
        grid = make_world(
            width=4, height=4, obstacles=[[0, 0]], robots=[{"id": 1, "start": [3, 3]}]
        )
        # visiting obstacle or buffer cells counts for nothing
        visited = set(grid.ground_truth.free_space) | {(0, 0), (1, 1)}
        assert coverage_fraction(grid.ground_truth, visited) == 1.0

    def test_monotone_under_covering(self):
        grid = make_world(width=6, height=6)
        rng = random.Random(3)
        last = 0.0
        cells = [(x, y) for x in range(6) for y in range(6)]
        rng.shuffle(cells)
        visited = set()
        for cell in cells:
            visited.add(cell)
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
        assert not grid.ground_truth.free_space
        assert coverage_fraction(grid.ground_truth, {(0, 0)}) == 1.0

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
        mark_sensed(grid, [((x, y), True) for x in range(2, 5) for y in range(2, 6)])
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
        mark_sensed(grid, [((2, 2), True)])
        mark_covered(grid, (0, 0))
        total = sum(t.n_unexplored for t in grid.tasks.values())
        assert total == grid.unexplored_total == 100 - 9 - 1


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
