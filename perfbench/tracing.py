"""Span tracer and the instrumentation the traced run installs.

Spans are recorded from the benchmark's own code: wrappers around the
module functions the engine calls, looked up where the engine looks them up
(`gridcover.engine.merge_maps`, not only `gridcover.world.merge_maps`), and
a `Simulation` subclass whose tick-phase methods are wrapped. Nothing under
`src/` changes, and the untraced runs never see any of it.

Each span keeps its name, start, end and parent in flat typed arrays, so a
run with millions of calls stays small in memory; self times are computed
once at the end (duration minus the time the span's children cover).
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# Simulation method -> span name. The tick phases are what `Simulation.run`
# calls every tick; `_sense` and `__init__` are the other engine layers.
PHASES = {
    "run": "engine.run",
    "_deliver_messages": "engine.sync",
    "_apply_scheduled_failures": "engine.failures",
    "_detection_pass": "engine.detect",
    "_advance": "engine.advance",
    "_resolve_one_game": "engine.games",
    "_stop_sweep": "engine.bookkeeping",
    "_log_trajectories": "engine.bookkeeping",
    "_end_reason": "engine.bookkeeping",
    "__init__": "engine.init",
}

# (module, function) -> span name, patched where the engine or the CLI looks
# the function up. `merge_maps`, `detect_failures` and `success_probability`
# also update counters and are patched in `instrument`.
PRIMITIVES = {
    ("engine", "build_world"): "world.build_world",
    ("engine", "mark_sensed"): "world.mark_sensed",
    ("engine", "mark_covered"): "world.mark_covered",
    ("engine", "build_team_model"): "supervisor.team_model",
    ("engine", "post_game_assign"): "supervisor.post_game_assign",
    ("engine", "max_logit"): "game.max_logit",
    ("engine", "next_waypoint"): "planner.next_waypoint",
    ("engine", "plan_travel_to_any"): "planner.travel_bfs",
    ("cli", "render_svg"): "render.svg",
}

# Every span name, in report order. Each yields `<name>_calls` and `<name>_s`
# (summed self time); `engine.run_s` is the run loop's unattributed time.
SPAN_NAMES = (
    "engine.run",
    "engine.sync",
    "world.merge_maps",
    "engine.failures",
    "engine.detect",
    "supervisor.detect_failures",
    "engine.advance",
    "engine.region_scan",
    "engine.sense",
    "world.mark_sensed",
    "world.mark_covered",
    "planner.next_waypoint",
    "planner.travel_bfs",
    "engine.games",
    "supervisor.team_model",
    "supervisor.post_game_assign",
    "game.max_logit",
    "engine.bookkeeping",
    "scenario.parse",
    "engine.init",
    "world.build_world",
    "cli.write_outputs",
    "render.svg",
)

# Layer groups for the share report: which spans make up each layer.
GROUPS = {
    "region scans": ("engine.region_scan",),
    "sensing": ("engine.sense", "world.mark_sensed"),
    "in-task planner": ("planner.next_waypoint",),
    "travel BFS": ("planner.travel_bfs",),
    "sync/merge": ("engine.sync", "world.merge_maps"),
    "detection": ("engine.detect", "supervisor.detect_failures"),
    "games": ("engine.games", "supervisor.team_model", "supervisor.post_game_assign", "game.max_logit"),
    "advance (rest)": ("engine.advance", "world.mark_covered"),
    "failures": ("engine.failures",),
    "bookkeeping": ("engine.bookkeeping",),
    "run loop (unattributed)": ("engine.run",),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, before=None, after=None):
        """Return fn wrapped in a span. `before(args)` runs before the span
        opens and its value is handed to `after(state, args, result)`, which
        runs after it closes; both update counters outside the span."""
        nid = self._id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack

        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(state, args, result)
            return result

        return traced

    def _self_times(self) -> list[float]:
        covered = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - c for i, c in enumerate(covered)]

    def layer_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, summed self time)."""
        calls: Counter = Counter()
        own: Counter = Counter()
        for nid, t in zip(self.name, self._self_times()):
            calls[self.names[nid]] += 1
            own[self.names[nid]] += t
        return {name: (calls[name], own[name]) for name in calls}

    def run_attributed(self) -> float:
        """Self time summed over every span under an `engine.run` root, the
        root's own included."""
        run_id = self._ids.get("engine.run")
        top = array("i", [-1]) * len(self.start)
        for i, p in enumerate(self.parent):
            top[i] = i if p < 0 else top[p]
        return sum(t for i, t in enumerate(self._self_times()) if self.name[top[i]] == run_id)

    def dump(self, path: Path) -> None:
        """Write every span: `<path>.json` names the columns of `<path>.bin`,
        which holds the name, parent, start and end arrays back to back."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(fh)
        header = {
            "spans": len(self.start),
            "names": self.names,
            "columns": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "itemsize": {"i": array("i").itemsize, "d": array("d").itemsize},
        }
        path.with_suffix(".json").write_text(json.dumps(header))


def instrument(tracer: Tracer):
    """Patch the gridcover modules for a traced run.

    Returns (TracedSimulation, traced parse_scenario, traced
    write_run_outputs, restore); call restore() to undo the patches.
    """
    from gridcover import cli, engine, scenario, supervisor

    modules = {"engine": engine, "cli": cli, "supervisor": supervisor}
    counts = tracer.counts
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, value) -> None:
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for (mod, fn), name in PRIMITIVES.items():
        patch(modules[mod], fn, tracer.wrap(name, getattr(modules[mod], fn)))

    def detect_after(_state, _args, newly):
        counts["supervisor.confirmed"] += len(newly)

    patch(
        engine,
        "detect_failures",
        tracer.wrap("supervisor.detect_failures", engine.detect_failures, after=detect_after),
    )

    def merge_before(args):
        grid, changes = args
        counts["world.merge_changes_offered"] += len(changes)
        return grid.unexplored_total

    def merge_after(unexplored_before, args, _result):
        counts["world.merge_changes_applied"] += unexplored_before - args[0].unexplored_total

    patch(engine, "merge_maps", tracer.wrap("world.merge_maps", engine.merge_maps, merge_before, merge_after))

    def count_probability(fn):
        def counted(*args, **kwargs):
            counts["models.success_probability_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    for mod in (engine, supervisor):
        patch(mod, "success_probability", count_probability(mod.success_probability))

    def region_before(args):
        counts["engine.region_cells_scanned"] += len(args[0].region)

    patch(
        engine.Robot,
        "region_unexplored",
        tracer.wrap("engine.region_scan", engine.Robot.region_unexplored, region_before),
    )

    def sense_before(args):
        counts["engine.obstacle_checks"] += len(args[0].truth.obstacles)

    methods = {
        attr: tracer.wrap(name, getattr(engine.Simulation, attr)) for attr, name in PHASES.items()
    }
    methods["_sense"] = tracer.wrap("engine.sense", engine.Simulation._sense, sense_before)
    traced_simulation = type("TracedSimulation", (engine.Simulation,), methods)

    parse = tracer.wrap("scenario.parse", scenario.parse_scenario)
    write = tracer.wrap("cli.write_outputs", cli.write_run_outputs)

    def restore() -> None:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return traced_simulation, parse, write, restore


def layer_metrics(tracer: Tracer, ticks: int, games: int, improved: int, run_wall: float) -> dict[str, float]:
    """Per-layer metric values of one traced batch. `run_wall` is the
    `Simulation.run` time measured outside the tracer."""
    times = tracer.layer_times()
    out: dict[str, float] = {"engine.ticks": ticks}
    for name in SPAN_NAMES:
        calls, own = times.get(name, (0, 0.0))
        out[f"{name}_calls"] = calls
        out[f"{name}_s"] = own
    c = tracer.counts
    out["engine.region_cells_scanned"] = c["engine.region_cells_scanned"]
    out["engine.obstacle_checks"] = c["engine.obstacle_checks"]
    out["world.merge_changes_offered"] = c["world.merge_changes_offered"]
    offered = c["world.merge_changes_offered"]
    out["world.merge_applied_ratio"] = c["world.merge_changes_applied"] / offered if offered else 0.0
    out["supervisor.confirmed"] = c["supervisor.confirmed"]
    out["models.success_probability_calls"] = c["models.success_probability_calls"]
    out["game.improved_ratio"] = improved / games if games else 0.0
    out["trace.coverage_ratio"] = tracer.run_attributed() / run_wall if run_wall else 0.0
    return out
