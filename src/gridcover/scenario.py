"""Scenario file parsing, validation and defaulting.

Scenarios are JSON documents with four sections (world, robots, params,
failures) plus a strategy name and a seed. Each object in a document is
read into a spec dataclass (`ScenarioConfig`, `WorldSpec`, `RobotSpec`,
`FailureSpec`, `Rect`, `Params`) whose fields are exactly its keys; only
`world.targets` differs, as its `lambda` key becomes `TargetSpec.lam`.
Unknown keys are rejected and every omitted parameter gets the benchmark
default declared on `Params`, so an empty params section reproduces the
reference parameter set exactly.
"""

from __future__ import annotations

import json
import math
from collections.abc import Container, Iterable
from dataclasses import dataclass, field
from typing import Any, get_type_hints

STRATEGIES = ("CARE", "NONCO", "FR")

DEFAULT_RHO0 = 3.0e-3
DEFAULT_RHO1 = 1400.0
# Target sampling multiplies uniforms down to exp(-lambda), which must stay a
# normal float: past about 745 it is 0.0 and the count saturates.
MAX_LAMBDA = 700


class ScenarioError(ValueError):
    """Scenario schema violation; message names the offending key."""


@dataclass(frozen=True)
class Rect:
    x: int
    y: int
    w: int
    h: int

    def cells(self) -> list[tuple[int, int]]:
        return [(cx, cy) for cy in range(self.y, self.y + self.h) for cx in range(self.x, self.x + self.w)]


@dataclass(frozen=True)
class TargetSpec:
    mode: str  # "sampled" | "explicit"
    lam: tuple[float, ...] = ()  # per-task Poisson means (sampled mode)
    cells: tuple[tuple[int, int], ...] = ()  # explicit placements, repeats stack


@dataclass(frozen=True)
class WorldSpec:
    width: int
    height: int
    epsilon_m: float
    obstacles: tuple[tuple[int, int], ...]
    tasks: tuple[Rect, ...]
    targets: TargetSpec


@dataclass(frozen=True)
class RobotSpec:
    id: int
    start: tuple[int, int]
    rho0: float | str = DEFAULT_RHO0  # number or "sample"
    rho1: float | str = DEFAULT_RHO1


@dataclass(frozen=True)
class FailureSpec:
    robot: int
    time_s: float


@dataclass(frozen=True)
class Params:
    """Run parameters at their benchmark defaults. A field annotated `int`
    takes only whole numbers from a document."""

    u: float = 0.4  # travel speed, m/s
    omega: float = 0.32  # tasking speed, cells/s
    eta: float = 30.0  # near-finish threshold, s
    gamma: float = 200.0  # sufficient-work threshold, s
    kappa1: int = 6  # neighborhood size, no-idling games
    kappa2: int = 3  # neighborhood size, resilience games
    n_max: int = 4  # max robots per task
    L: int = 50  # learning cycles per game
    tau: float = 0.05  # learning temperature
    heartbeat_s: float = 5.0
    t0_s: float = 15.0  # silence timeout before a failure is confirmed
    sync_every_s: float = 1.0  # map-change broadcast period
    tick_s: float = 1.0
    noise_sigma_m: float = 0.0  # localization noise
    sense_radius_m: float = 5.0  # obstacle detection radius


@dataclass(frozen=True)
class ScenarioConfig:
    world: WorldSpec
    robots: tuple[RobotSpec, ...]
    params: Params = field(default_factory=Params)
    failures: tuple[FailureSpec, ...] = ()
    strategy: str = "CARE"
    seed: int = 0


# Each spec's document keys with their annotated types, resolved once here
# because parsing runs inside a benchmark's timed setup.
_FIELDS = {spec: get_type_hints(spec) for spec in (ScenarioConfig, WorldSpec, RobotSpec, FailureSpec, Rect, Params)}


def _require_keys(obj: dict, allowed: Container[str], required: Iterable[str], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"{where}: unknown key '{key}'")
    for key in required:
        if key not in obj:
            raise ScenarioError(f"{where}: missing required key '{key}'")


def _as_list(value: Any, where: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{where}: expected a list, got {value!r}")
    return value


def _as_cell(value: Any, where: str) -> tuple[int, int]:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(c, int) and not isinstance(c, bool) for c in value)
    ):
        raise ScenarioError(f"{where}: expected an [x, y] integer cell, got {value!r}")
    return (value[0], value[1])


def _as_rect(value: Any, where: str) -> Rect:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: expected a rect object {{x, y, w, h}}")
    _require_keys(value, _FIELDS[Rect], _FIELDS[Rect], where)
    for k in _FIELDS[Rect]:
        if not isinstance(value[k], int) or isinstance(value[k], bool):
            raise ScenarioError(f"{where}.{k}: expected an integer, got {value[k]!r}")
    if value["w"] <= 0 or value["h"] <= 0:
        raise ScenarioError(f"{where}: rect sides must be positive")
    return Rect(**value)


def _as_robot_id(value: Any, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ScenarioError(f"{where}: expected a positive integer, got {value!r}")
    return value


def _as_number(value: Any, where: str) -> float:
    """`value` as a finite float. Python's json reads NaN and Infinity, and
    an integer too large for a float, none of which a run can use."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"{where}: expected a finite number, got {value!r}")
    return number


def _parse_world(obj: Any) -> WorldSpec:
    if not isinstance(obj, dict):
        raise ScenarioError("world: expected an object")
    _require_keys(obj, _FIELDS[WorldSpec], ("width", "height", "tasks"), "world")
    width, height = obj["width"], obj["height"]
    for name, v in (("width", width), ("height", height)):
        if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
            raise ScenarioError(f"world.{name}: expected a positive integer, got {v!r}")
    epsilon = _as_number(obj.get("epsilon_m", 1.0), "world.epsilon_m")
    if epsilon <= 0:
        raise ScenarioError("world.epsilon_m: must be positive")

    tasks = tuple(_as_rect(t, f"world.tasks[{i}]") for i, t in enumerate(_as_list(obj["tasks"], "world.tasks")))
    owner = [-1] * (width * height)  # task index per flat cell index y*width + x
    for idx, rect in enumerate(tasks):
        if rect.x < 0 or rect.y < 0 or rect.x + rect.w > width or rect.y + rect.h > height:
            raise ScenarioError(f"world.tasks[{idx}]: rect exceeds the grid")
        for y in range(rect.y, rect.y + rect.h):
            start = y * width + rect.x
            row = owner[start : start + rect.w]
            if max(row) >= 0:
                x = next(k for k, v in enumerate(row) if v >= 0)
                raise ScenarioError(f"world.tasks[{idx}]: overlaps task {row[x]} at cell {[rect.x + x, y]}")
            owner[start : start + rect.w] = [idx] * rect.w
    if -1 in owner:
        raise ScenarioError("world.tasks: task rects must partition the whole grid")

    rects: list[Rect] = []  # a listed cell is a 1x1 rect
    for i, entry in enumerate(_as_list(obj.get("obstacles", []), "world.obstacles")):
        where = f"world.obstacles[{i}]"
        rects.append(_as_rect(entry, where) if isinstance(entry, dict) else Rect(*_as_cell(entry, where), 1, 1))
    for r in rects:  # by its bounds, naming its first cell outside the grid in row-major order
        inside = 0 <= r.x < width and 0 <= r.y < height
        if not inside or r.x + r.w > width or r.y + r.h > height:
            outside = [r.x, r.y] if not inside else [width, r.y] if r.x + r.w > width else [r.x, height]
            raise ScenarioError(f"world.obstacles: cell {outside} outside the grid")
    blocked = {cell for rect in rects for cell in rect.cells()}
    obstacle_cells = tuple(sorted(blocked))

    tgt = obj.get("targets", {"mode": "sampled", "lambda": 1.0})
    if not isinstance(tgt, dict):
        raise ScenarioError("world.targets: expected an object")
    _require_keys(tgt, {"mode", "lambda", "cells"}, {"mode"}, "world.targets")
    mode = tgt["mode"]
    if mode == "sampled":
        lam = tgt.get("lambda", 1.0)
        if isinstance(lam, (list, tuple)):
            if len(lam) != len(tasks):
                raise ScenarioError(
                    f"world.targets.lambda: expected {len(tasks)} per-task values, got {len(lam)}"
                )
            lams = tuple(_as_number(v, f"world.targets.lambda[{i}]") for i, v in enumerate(lam))
        else:
            lams = (float(_as_number(lam, "world.targets.lambda")),) * len(tasks)
        if any(v < 0 for v in lams):
            raise ScenarioError("world.targets.lambda: values must be nonnegative")
        if any(v > MAX_LAMBDA for v in lams):
            raise ScenarioError(f"world.targets.lambda: values must be at most {MAX_LAMBDA}")
        targets = TargetSpec(mode="sampled", lam=lams)
    elif mode == "explicit":
        listed = _as_list(tgt.get("cells", []), "world.targets.cells")
        cells = tuple(_as_cell(c, f"world.targets.cells[{i}]") for i, c in enumerate(listed))
        for cell in cells:
            if not (0 <= cell[0] < width and 0 <= cell[1] < height):
                raise ScenarioError(f"world.targets.cells: cell {list(cell)} outside the grid")
            if cell in blocked:
                raise ScenarioError(f"world.targets.cells: target on obstacle cell {list(cell)}")
        targets = TargetSpec(mode="explicit", cells=tuple(sorted(cells)))
    else:
        raise ScenarioError(f"world.targets.mode: expected 'sampled' or 'explicit', got {mode!r}")

    return WorldSpec(
        width=width,
        height=height,
        epsilon_m=epsilon,
        obstacles=obstacle_cells,
        tasks=tasks,
        targets=targets,
    )


def _parse_robot(obj: Any, where: str, world: WorldSpec, blocked: frozenset) -> RobotSpec:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object")
    _require_keys(obj, _FIELDS[RobotSpec], ("id", "start"), where)
    rid = _as_robot_id(obj["id"], f"{where}.id")
    start = _as_cell(obj["start"], f"{where}.start")
    if not (0 <= start[0] < world.width and 0 <= start[1] < world.height):
        raise ScenarioError(f"{where}.start: cell {list(start)} outside the grid")
    if start in blocked:
        raise ScenarioError(f"{where}.start: cell {list(start)} is an obstacle cell")

    def battery(key: str, default: float) -> float | str:
        raw = obj.get(key, default)
        if raw == "sample":
            return "sample"
        val = _as_number(raw, f"{where}.{key}")
        if val <= 0:
            raise ScenarioError(f"{where}.{key}: must be positive")
        return val

    return RobotSpec(id=rid, start=start, rho0=battery("rho0", DEFAULT_RHO0), rho1=battery("rho1", DEFAULT_RHO1))


def _parse_params(obj: Any) -> Params:
    if obj is None:
        return Params()
    if not isinstance(obj, dict):
        raise ScenarioError("params: expected an object")
    _require_keys(obj, _FIELDS[Params], (), "params")
    values: dict[str, Any] = {}
    for key, raw in obj.items():
        val = _as_number(raw, f"params.{key}")
        if _FIELDS[Params][key] is int:
            if val != int(val) or val < 1:
                raise ScenarioError(f"params.{key}: expected a positive integer, got {raw!r}")
            values[key] = int(val)
        else:
            if val <= 0 and key != "noise_sigma_m":
                raise ScenarioError(f"params.{key}: must be positive")
            if key == "noise_sigma_m" and val < 0:
                raise ScenarioError("params.noise_sigma_m: must be nonnegative")
            values[key] = val
    params = Params(**values)
    if params.eta >= params.gamma:
        raise ScenarioError("params.eta: must be smaller than params.gamma")
    if params.heartbeat_s >= params.t0_s:
        raise ScenarioError("params.heartbeat_s: must be smaller than params.t0_s")
    return params


def parse_scenario(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario: expected a JSON object at top level")
    _require_keys(doc, _FIELDS[ScenarioConfig], ("world", "robots"), "scenario")
    world = _parse_world(doc["world"])
    if not isinstance(doc["robots"], list) or not doc["robots"]:
        raise ScenarioError("robots: expected a non-empty list")
    blocked = frozenset(world.obstacles)
    robots = tuple(_parse_robot(r, f"robots[{i}]", world, blocked) for i, r in enumerate(doc["robots"]))
    ids = [r.id for r in robots]
    if len(set(ids)) != len(ids):
        raise ScenarioError("robots: duplicate robot ids")

    params = _parse_params(doc.get("params"))
    # a robot steps to a 4-neighbour, and an obstacle whose buffer holds that
    # neighbour lies at most sqrt(5) cells away: a shorter radius lets it
    # step onto an obstacle or its buffer before sensing it
    if params.sense_radius_m < math.sqrt(5) * world.epsilon_m:
        raise ScenarioError(
            f"params.sense_radius_m: must be at least sqrt(5) x world.epsilon_m"
            f" = {math.sqrt(5) * world.epsilon_m:.4f}, got {params.sense_radius_m!r}"
        )

    failures: list[FailureSpec] = []
    for i, entry in enumerate(_as_list(doc.get("failures", []), "failures")):
        where = f"failures[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"{where}: expected an object")
        _require_keys(entry, _FIELDS[FailureSpec], _FIELDS[FailureSpec], where)
        rid = _as_robot_id(entry["robot"], f"{where}.robot")
        if rid not in ids:
            raise ScenarioError(f"{where}.robot: unknown robot id {rid!r}")
        t = _as_number(entry["time_s"], f"{where}.time_s")
        if t < 0:
            raise ScenarioError(f"{where}.time_s: must be nonnegative")
        failures.append(FailureSpec(robot=rid, time_s=t))

    strategy = doc.get("strategy", "CARE")
    if strategy not in STRATEGIES:
        raise ScenarioError(f"strategy: expected one of {list(STRATEGIES)}, got {strategy!r}")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ScenarioError(f"seed: expected an integer, got {seed!r}")

    return ScenarioConfig(
        world=world,
        robots=robots,
        params=params,
        failures=tuple(failures),
        strategy=strategy,
        seed=seed,
    )


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:  # missing, a directory, no permission
        raise ScenarioError(f"{path}: cannot read the file: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # not UTF-8, or an integer of over 4,300 digits
        raise ScenarioError(f"{path}: unreadable JSON: {exc}") from exc
    return parse_scenario(doc)
