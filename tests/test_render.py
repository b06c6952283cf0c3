"""The SVG renderer: map rects, trajectories, failure crosses, target dots."""

import io
import xml.etree.ElementTree as ET

from hypothesis import given, settings
from hypothesis import strategies as st

from gridcover.engine import TrajectoryLog
from gridcover.render import ROBOT_COLORS, STATE_FILL, render_svg
from gridcover.world import CellState, mark_covered
from tests.test_world import make_world

NS = "{http://www.w3.org/2000/svg}"
SCALE = 12  # svg pixels per cell


def small_world():
    return make_world(
        width=7,
        height=5,
        targets={"mode": "explicit", "cells": [[1, 1], [5, 3], [5, 3]]},
    )


def rendered(grid, trajectories, failures=()) -> str:
    """The document `render_svg` writes to a text stream."""
    out = io.StringIO()
    render_svg(grid, trajectories, out, failures)
    return out.getvalue()


def parse(svg: str) -> ET.Element:
    root = ET.fromstring(svg)
    assert root.tag == f"{NS}svg"
    return root


def covered_cells(root: ET.Element) -> list[tuple[tuple[int, int], str]]:
    """(cell, fill) for every cell a state rect covers; the background rect
    (no position) is left out."""
    out = []
    for rect in root.iter(f"{NS}rect"):
        if "x" not in rect.attrib:
            continue
        x0, y0 = int(rect.get("x")) // SCALE, int(rect.get("y")) // SCALE
        assert int(rect.get("height")) == SCALE
        for dx in range(int(rect.get("width")) // SCALE):
            out.append(((x0 + dx, y0), rect.get("fill")))
    return out


class TestMapRects:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(list(CellState)), min_size=35, max_size=35))
    def test_each_known_cell_drawn_once_in_its_fill(self, states):
        grid = small_world()
        grid.cells = list(states)
        root = parse(rendered(grid, TrajectoryLog()))
        background = [r for r in root.iter(f"{NS}rect") if "x" not in r.attrib]
        assert [r.get("fill") for r in background] == [STATE_FILL[CellState.UNEXPLORED]]
        drawn = covered_cells(root)
        want = {
            (x, y): STATE_FILL[grid.state((x, y))]
            for y in range(grid.height)
            for x in range(grid.width)
            if grid.state((x, y)) is not CellState.UNEXPLORED
        }
        assert len(drawn) == len(want)
        assert dict(drawn) == want

    def test_runs_of_one_state_share_a_rect(self):
        grid = small_world()
        grid.cells = [CellState.EXPLORED] * 7 + [CellState.UNEXPLORED] * 28
        rects = [r for r in parse(rendered(grid, TrajectoryLog())).iter(f"{NS}rect") if "x" in r.attrib]
        assert len(rects) == 1
        assert rects[0].get("width") == str(7 * SCALE)


class TestMarkers:
    def render(self, grid):
        # robot 1 has a row on tick 1 only, robot 3 on ticks 1 to 3
        trajectories = TrajectoryLog(
            xs=[(x + 0.5) * grid.epsilon for x in range(grid.width)],
            ys=[(y + 0.5) * grid.epsilon for y in range(grid.height)],
            moves=[
                (1, 1, 6, 4, "tasking"),
                (1, 3, 0, 0, "tasking"),
                (2, 1, None, None, None),
                (2, 3, 1, 0, "traveling"),
            ],
            last_tick=3,
        )
        failures = [(3, (1, 0)), (2, (4, 4))]
        return rendered(grid, trajectories, failures)

    def test_deterministic(self):
        assert self.render(small_world()) == self.render(small_world())

    def test_one_polyline_per_robot_with_rows(self):
        root = parse(self.render(small_world()))
        lines = list(root.iter(f"{NS}polyline"))
        # robots 1 and 3 have rows, in id order; robot 2 failed but logged none
        assert [p.get("stroke") for p in lines] == list(ROBOT_COLORS[:2])
        assert lines[0].get("points") == "78.00,54.00"
        assert lines[1].get("points") == "6.00,6.00 18.00,6.00 18.00,6.00"

    def test_one_cross_per_failure(self):
        root = parse(self.render(small_world()))
        crosses = list(root.iter(f"{NS}g"))
        assert len(crosses) == 2
        assert all(len(list(g.iter(f"{NS}line"))) == 2 for g in crosses)

    def test_one_circle_per_target_white_once_discovered(self):
        # a target is found when its cell is covered, so the two stacked on
        # (5, 3) turn white together
        grid = small_world()
        assert mark_covered(grid, (5, 3))[1] == 2
        circles = list(parse(self.render(grid)).iter(f"{NS}circle"))
        assert [(c.get("cx"), c.get("cy")) for c in circles] == [
            ("18.00", "18.00"),
            ("66.00", "42.00"),
            ("66.00", "42.00"),
        ]
        assert [c.get("fill") for c in circles] == ["#d00000", "#ffffff", "#ffffff"]
