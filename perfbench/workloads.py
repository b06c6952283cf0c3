"""Scenario documents for the benchmark workloads.

Every workload is a deterministic function of its seed. Each returns a list
of (run name, scenario document) pairs; the document goes through
`gridcover.parse_scenario` inside the timed region, so the simulator only
ever sees a parsed `ScenarioConfig`.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = ROOT / "src" / "gridcover" / "scenarios"
STRATEGIES = ("CARE", "NONCO", "FR")


def bundled(name: str) -> dict:
    with open(SCENARIO_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def paper(seed: int) -> list[tuple[str, dict]]:
    """The 3 bundled scenarios x CARE/NONCO/FR; seed 1 reproduces the files."""
    runs = []
    for name in ("scenario1", "scenario2", "scenario3"):
        base = bundled(name)
        for strategy in STRATEGIES:
            doc = copy.deepcopy(base)
            doc["seed"] = seed
            doc["strategy"] = strategy
            runs.append((f"{name}/{strategy}", doc))
    return runs


def open_field(seed: int) -> list[tuple[str, dict]]:
    """80x80 obstacle-free grid cut into 256 tasks of 5x5, 32 robots at
    distinct seeded cells, lambda 5 per task, 3 seeded robots fail at
    200/400/600 s, CARE with default params."""
    rng = random.Random(f"open-field:{seed}")
    side, task = 80, 5
    tasks = [
        {"x": x, "y": y, "w": task, "h": task}
        for y in range(0, side, task)
        for x in range(0, side, task)
    ]
    starts = rng.sample(range(side * side), 32)
    robots = [{"id": i + 1, "start": [c % side, c // side]} for i, c in enumerate(starts)]
    failing = rng.sample(range(1, 33), 3)
    failures = [{"robot": r, "time_s": t} for r, t in zip(failing, (200, 400, 600))]
    doc = {
        "world": {
            "width": side,
            "height": side,
            "tasks": tasks,
            "targets": {"mode": "sampled", "lambda": 5},
        },
        "robots": robots,
        "failures": failures,
        "strategy": "CARE",
        "seed": seed,
    }
    return [("open-field/CARE", doc)]


def tile_2x2(base: dict) -> dict:
    """Tile a bundled scenario 2x2: task and obstacle rects and robots are
    copied per tile, robot ids renumbered per tile, per-task lambdas copied
    per tile. The tiles' own failures are dropped."""
    world = base["world"]
    w, h = world["width"], world["height"]
    n_robots = len(base["robots"])
    tasks, obstacles, robots, lams = [], [], [], []
    for k, (ox, oy) in enumerate(((0, 0), (w, 0), (0, h), (w, h))):
        for rect in world["tasks"]:
            tasks.append(dict(rect, x=rect["x"] + ox, y=rect["y"] + oy))
        for rect in world["obstacles"]:
            obstacles.append(dict(rect, x=rect["x"] + ox, y=rect["y"] + oy))
        for r in base["robots"]:
            robots.append(dict(r, id=r["id"] + k * n_robots, start=[r["start"][0] + ox, r["start"][1] + oy]))
        lams.extend(world["targets"]["lambda"])
    doc = copy.deepcopy(base)
    doc["world"] = dict(
        world,
        width=2 * w,
        height=2 * h,
        tasks=tasks,
        obstacles=obstacles,
        targets={"mode": "sampled", "lambda": lams},
    )
    doc["robots"] = robots
    doc["failures"] = []
    return doc


def crowd(seed: int) -> list[tuple[str, dict]]:
    """scenario3 tiled 2x2 (100x100, 40 tasks, 40 robots); 10 distinct
    seeded robots fail at seeded whole seconds in [100, 900). CARE."""
    rng = random.Random(f"crowd:{seed}")
    doc = tile_2x2(bundled("scenario3"))
    failing = rng.sample(range(1, len(doc["robots"]) + 1), 10)
    doc["failures"] = [{"robot": r, "time_s": rng.randrange(100, 900)} for r in failing]
    doc["strategy"] = "CARE"
    doc["seed"] = seed
    return [("crowd/CARE", doc)]


def r1_probe(seed: int) -> tuple[str, dict]:
    """scenario1 tiled 2x2, CARE: trips the FORBIDDEN -> OBSTACLE sensing
    defect (ROADMAP R1) and ends in LivenessError at the parent commit."""
    doc = tile_2x2(bundled("scenario1"))
    doc["strategy"] = "CARE"
    doc["seed"] = seed
    return ("probe-s1x4/CARE", doc)


WORKLOADS = {"paper": paper, "open-field": open_field, "crowd": crowd}
