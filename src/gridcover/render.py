"""Deterministic SVG rendering of a run: map states, trajectories, markers.

Output bytes depend only on the inputs, so renders double as golden files.
The renderer writes to a text stream a piece at a time, so a large run's
document is never held whole.
"""

from __future__ import annotations

from array import array
from itertools import groupby
from typing import TYPE_CHECKING, TextIO

from .world import CellState, GridMap

if TYPE_CHECKING:
    from .engine import TrajectoryLog

STATE_FILL = {
    CellState.UNEXPLORED: "#b7d8c0",
    CellState.EXPLORED: "#2d6a4f",
    CellState.FORBIDDEN: "#e9c46a",
    CellState.OBSTACLE: "#5a5a5a",
}

ROBOT_COLORS = (
    "#e63946",
    "#1d3557",
    "#f4a261",
    "#06d6a0",
    "#9b5de5",
    "#ff70a6",
    "#118ab2",
    "#ffd166",
    "#7f4f24",
    "#00f5d4",
)

_SCALE = 12  # svg pixels per cell


def _f(v: float) -> str:
    return f"{v:.2f}"


def render_svg(
    grid: GridMap,
    trajectories: TrajectoryLog,
    out: TextIO,
    failures: list[tuple[int, tuple[int, int]]] = (),
) -> None:
    """Write the SVG of a run to `out`, a text stream: the map, the
    per-robot polylines, then the target dots and failure crosses.

    A robot's polyline has one point per trajectory row, its cell's center;
    `failures` lists (robot, last cell) pairs. The document is written a
    piece at a time, each map row, each polyline and the markers, so it is
    never held whole.
    """
    w = grid.width * _SCALE
    h = grid.height * _SCALE
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">\n'
        f'<rect width="{w}" height="{h}" fill="{STATE_FILL[CellState.UNEXPLORED]}"/>\n'
    )
    _write_map(out, grid)
    _write_polylines(out, trajectories, _SCALE / grid.epsilon)
    _write_markers(out, grid, failures, _SCALE / grid.epsilon)
    out.write("</svg>\n")


def _write_map(out: TextIO, grid: GridMap) -> None:
    """A rect per run of one known state along a row, a row at a time."""
    cells, width = bytes(grid.cells), grid.width
    for y in range(grid.height):
        rects = []
        x = 0
        for state, run in groupby(cells[y * width : (y + 1) * width]):
            x0 = x
            x += len(list(run))
            if state != CellState.UNEXPLORED:
                rects.append(
                    f'<rect x="{x0 * _SCALE}" y="{y * _SCALE}" '
                    f'width="{(x - x0) * _SCALE}" height="{_SCALE}" '
                    f'fill="{STATE_FILL[state]}"/>\n'
                )
        out.write("".join(rects))


def _write_polylines(out: TextIO, trajectories: TrajectoryLog, scale: float) -> None:
    """A polyline per robot with rows, in id order, a robot at a time."""
    tx = [_f(x * scale) for x in trajectories.xs]
    ty = [_f(y * scale) for y in trajectories.ys]
    moves, end = trajectories.moves, trajectories.last_tick + 1
    entries: dict[int, array] = {}  # robot -> the indices of its entries in `moves`
    for j, move in enumerate(moves):
        indices = entries.get(move[1])
        if indices is None:
            entries[move[1]] = indices = array("i")
        indices.append(j)
    i = 0
    for rid in sorted(entries):
        # each move's point and a space, once per tick until the robot's next
        # entry, and no space after the last point
        js = entries[rid]
        points = []
        for k, j in enumerate(js):
            tick, _rid, cx, cy, mode = moves[j]
            if mode is not None:
                until = moves[js[k + 1]][0] if k + 1 < len(js) else end
                points.append(f"{tx[cx]},{ty[cy]} " * (until - tick))
        if not points:
            continue
        points[-1] = points[-1][:-1]
        color = ROBOT_COLORS[i % len(ROBOT_COLORS)]
        i += 1
        out.write('<polyline points="')
        out.write("".join(points))
        out.write(f'" fill="none" stroke="{color}" stroke-width="1.5" opacity="0.9"/>\n')


def _write_markers(out: TextIO, grid: GridMap, failures, scale: float) -> None:
    """A dot per target, white once found, then a cross per failure, one
    write each."""
    for target in grid.targets:
        cx, cy = grid.cell_center(target.cell)
        fill = "#ffffff" if target.discovered else "#d00000"
        out.write(
            f'<circle cx="{_f(cx * scale)}" cy="{_f(cy * scale)}" r="2.5" '
            f'fill="{fill}" stroke="#222222" stroke-width="0.6"/>\n'
        )
    for _rid, cell in failures:
        cx, cy = grid.cell_center(cell)
        px, py = cx * scale, cy * scale
        out.write(
            f'<g stroke="#000000" stroke-width="2">'
            f'<line x1="{_f(px - 5)}" y1="{_f(py - 5)}" x2="{_f(px + 5)}" y2="{_f(py + 5)}"/>'
            f'<line x1="{_f(px - 5)}" y1="{_f(py + 5)}" x2="{_f(px + 5)}" y2="{_f(py - 5)}"/>'
            f"</g>\n"
        )
