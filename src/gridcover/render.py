"""Deterministic SVG rendering of a run: map states, trajectories, markers.

Output bytes depend only on the inputs, so renders double as golden files.
"""

from __future__ import annotations

from itertools import groupby
from typing import TYPE_CHECKING

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
    failures: list[tuple[int, tuple[int, int]]] = (),
) -> str:
    """Draw the map, per-robot polylines, failure crosses and target dots.

    A robot's polyline has one point per trajectory row, its cell's center;
    `failures` lists (robot, last cell) pairs.
    """
    w = grid.width * _SCALE
    h = grid.height * _SCALE
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">'
    ]
    parts.append(f'<rect width="{w}" height="{h}" fill="{STATE_FILL[CellState.UNEXPLORED]}"/>')
    cells, width = bytes(grid.cells), grid.width
    for y in range(grid.height):
        x = 0
        for state, run in groupby(cells[y * width : (y + 1) * width]):
            x0 = x
            x += len(list(run))
            if state != CellState.UNEXPLORED:
                parts.append(
                    f'<rect x="{x0 * _SCALE}" y="{y * _SCALE}" '
                    f'width="{(x - x0) * _SCALE}" height="{_SCALE}" '
                    f'fill="{STATE_FILL[state]}"/>'
                )

    scale = _SCALE / grid.epsilon
    tx = [_f(x * scale) for x in trajectories.xs]
    ty = [_f(y * scale) for y in trajectories.ys]
    # each move's point repeats once per tick its row holds
    by_robot: dict[int, list[str]] = {}
    held: dict[int, tuple[int, str]] = {}  # robot -> (tick, point) of its last move
    for tick, rid, cx, cy, mode in trajectories.moves:
        if rid in held:
            since, point = held.pop(rid)
            by_robot[rid] += [point] * (tick - since)
        if mode is not None:
            held[rid] = (tick, f"{tx[cx]},{ty[cy]}")
            by_robot.setdefault(rid, [])
    end = trajectories.last_tick + 1
    for rid, (since, point) in held.items():
        by_robot[rid] += [point] * (end - since)
    for i, rid in enumerate(sorted(by_robot)):
        pts = " ".join(by_robot[rid])
        color = ROBOT_COLORS[i % len(ROBOT_COLORS)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5" opacity="0.9"/>'
        )

    for target in grid.targets:
        cx, cy = grid.cell_center(target.cell)
        fill = "#ffffff" if target.discovered else "#d00000"
        parts.append(
            f'<circle cx="{_f(cx * scale)}" cy="{_f(cy * scale)}" r="2.5" '
            f'fill="{fill}" stroke="#222222" stroke-width="0.6"/>'
        )

    for _rid, cell in failures:
        cx, cy = grid.cell_center(cell)
        px, py = cx * scale, cy * scale
        parts.append(
            f'<g stroke="#000000" stroke-width="2">'
            f'<line x1="{_f(px - 5)}" y1="{_f(py - 5)}" x2="{_f(px + 5)}" y2="{_f(py + 5)}"/>'
            f'<line x1="{_f(px - 5)}" y1="{_f(py + 5)}" x2="{_f(px + 5)}" y2="{_f(py - 5)}"/>'
            f"</g>"
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
