"""The scenario parser: the bundled files, and each documented rejection
raising ScenarioError that names its field."""

import copy
import json
import math
from pathlib import Path

import pytest

from gridcover import run
from gridcover.scenario import Params, ScenarioError, load_scenario, parse_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "gridcover" / "scenarios"

BASE = {
    "world": {
        "width": 4,
        "height": 3,
        "tasks": [{"x": 0, "y": 0, "w": 2, "h": 3}, {"x": 2, "y": 0, "w": 2, "h": 3}],
        "obstacles": [[3, 2]],
    },
    "robots": [{"id": 1, "start": [0, 0]}, {"id": 2, "start": [2, 1]}],
}


def edited(edit):
    doc = copy.deepcopy(BASE)
    edit(doc)
    return doc


class TestBundled:
    @pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
    def test_bundled_file_parses(self, name):
        config = load_scenario(str(SCENARIOS / f"{name}.json"))
        assert (config.world.width, config.world.height) == (50, 50)
        assert len(config.world.tasks) == 10
        assert len(config.robots) == 10
        cells = sum(rect.w * rect.h for rect in config.world.tasks)
        assert cells == config.world.width * config.world.height

    def test_minimal_document_takes_every_default(self):
        config = parse_scenario(BASE)
        assert config.params == Params()
        assert config.strategy == "CARE"
        assert config.seed == 0
        assert config.world.obstacles == ((3, 2),)
        assert [r.id for r in config.robots] == [1, 2]


def set_key(path, value):
    def edit(doc):
        *parents, last = path
        obj = doc
        for key in parents:
            obj = obj[key]
        obj[last] = value

    return edit


REJECTIONS = {
    "unknown top-level key": (set_key(["colour"], "red"), "scenario: unknown key 'colour'"),
    "unknown world key": (set_key(["world", "depth"], 2), "world: unknown key 'depth'"),
    "unknown param": (set_key(["params"], {"speed": 1.0}), "params: unknown key 'speed'"),
    "overlapping tasks": (
        set_key(["world", "tasks"], [{"x": 0, "y": 0, "w": 3, "h": 3}, {"x": 2, "y": 0, "w": 2, "h": 3}]),
        "world.tasks[1]: overlaps task 0",
    ),
    "tasks that do not cover the grid": (
        set_key(["world", "tasks"], [{"x": 0, "y": 0, "w": 2, "h": 3}]),
        "world.tasks: task rects must partition the whole grid",
    ),
    "robot on an obstacle": (
        set_key(["robots", 1], {"id": 2, "start": [3, 2]}),
        "robots[1].start: cell [3, 2] is an obstacle cell",
    ),
    "duplicate robot ids": (set_key(["robots", 1, "id"], 1), "robots: duplicate robot ids"),
    # True == 1 and 2.0 == 2, so a lookup among the ids alone would take both
    "failure robot true": (
        set_key(["failures"], [{"robot": True, "time_s": 5.0}]),
        "failures[0].robot: expected a positive integer, got True",
    ),
    "failure robot 2.0": (
        set_key(["failures"], [{"robot": 2.0, "time_s": 5.0}]),
        "failures[0].robot: expected a positive integer, got 2.0",
    ),
    "failure robot unknown": (
        set_key(["failures"], [{"robot": 3, "time_s": 5.0}]),
        "failures[0].robot: unknown robot id 3",
    ),
    "eta >= gamma": (set_key(["params"], {"eta": 200.0, "gamma": 200.0}), "params.eta"),
    "heartbeat_s >= t0_s": (set_key(["params"], {"heartbeat_s": 15.0}), "params.heartbeat_s"),
    "unknown strategy": (set_key(["strategy"], "GREEDY"), "strategy: expected one of"),
    "tasks not a list": (set_key(["world", "tasks"], 5), "world.tasks: expected a list, got 5"),
    "obstacles not a list": (set_key(["world", "obstacles"], 5), "world.obstacles: expected a list, got 5"),
    "target cells not a list": (
        set_key(["world", "targets"], {"mode": "explicit", "cells": 5}),
        "world.targets.cells: expected a list, got 5",
    ),
    "failures not a list": (set_key(["failures"], 5), "failures: expected a list, got 5"),
    # the key sets and the integer params come from the spec dataclasses
    "unknown robot key": (set_key(["robots", 0, "colour"], "red"), "robots[0]: unknown key 'colour'"),
    "rect without h": (
        set_key(["world", "tasks", 0], {"x": 0, "y": 0, "w": 2}),
        "world.tasks[0]: missing required key 'h'",
    ),
    "failure without time_s": (
        set_key(["failures"], [{"robot": 1}]),
        "failures[0]: missing required key 'time_s'",
    ),
    # exp(-lambda) must stay a normal float for the Poisson sampler
    "targets.lambda above 700": (
        set_key(["world", "targets"], {"mode": "sampled", "lambda": 701}),
        "world.targets.lambda: values must be at most 700",
    ),
    "targets.lambda list entry above 700": (
        set_key(["world", "targets"], {"mode": "sampled", "lambda": [0.5, 700.5]}),
        "world.targets.lambda: values must be at most 700",
    ),
    # a shorter radius lets a robot step onto an obstacle's buffer unsensed
    "sense_radius_m below sqrt(5) cells": (
        set_key(["params"], {"sense_radius_m": 2.236}),
        "params.sense_radius_m: must be at least sqrt(5) x world.epsilon_m = 2.2361, got 2.236",
    ),
    "fractional kappa1": (
        set_key(["params"], {"kappa1": 2.5}),
        "params.kappa1: expected a positive integer, got 2.5",
    ),
    # an obstacle rect is tested by its bounds, and the message names its
    # first cell outside the grid in row-major order
    "obstacle cell outside the grid": (
        set_key(["world", "obstacles"], [[3, 2], [4, 1]]),
        "world.obstacles: cell [4, 1] outside the grid",
    ),
    "obstacle rect partly outside the grid": (
        set_key(["world", "obstacles"], [[3, 2], {"x": 2, "y": 1, "w": 3, "h": 1}]),
        "world.obstacles: cell [4, 1] outside the grid",
    ),
    "obstacle rect running off the bottom row": (
        set_key(["world", "obstacles"], [{"x": 1, "y": 2, "w": 1, "h": 2}]),
        "world.obstacles: cell [1, 3] outside the grid",
    ),
    "obstacle rect starting left of the grid": (
        set_key(["world", "obstacles"], [{"x": -1, "y": 1, "w": 2, "h": 1}]),
        "world.obstacles: cell [-1, 1] outside the grid",
    ),
    # an obstacle's buffer is never covered, so a target there is never found
    "target next to an obstacle": (
        set_key(["world", "targets"], {"mode": "explicit", "cells": [[0, 0], [2, 1]]}),
        "world.targets.cells: target [2, 1] is next to obstacle cell [3, 2]",
    ),
    # expanded first, this rect would be 10**18 cells
    "obstacle rect of 10**9 sides": (
        set_key(["world", "obstacles"], [{"x": 0, "y": 0, "w": 10**9, "h": 10**9}]),
        "world.obstacles: cell [4, 0] outside the grid",
    ),
}


class TestRejections:
    @pytest.mark.parametrize("case", sorted(REJECTIONS))
    def test_rejection_names_its_field(self, case):
        edit, message = REJECTIONS[case]
        with pytest.raises(ScenarioError) as err:
            parse_scenario(edited(edit))
        assert str(err.value).startswith(message)

    def test_valid_neighbours_of_the_rejections_parse(self):
        # each bound is strict: just inside it parses
        doc = edited(set_key(["params"], {"eta": 199.0, "gamma": 200.0, "heartbeat_s": 14.0}))
        params = parse_scenario(doc).params
        assert (params.eta, params.heartbeat_s, params.t0_s) == (199.0, 14.0, Params().t0_s)
        assert parse_scenario(edited(set_key(["strategy"], "FR"))).strategy == "FR"
        sensing = parse_scenario(edited(set_key(["params"], {"sense_radius_m": 2.2361})))
        assert sensing.params.sense_radius_m == 2.2361
        whole = parse_scenario(edited(set_key(["params"], {"L": 10.0, "tau": 1}))).params
        assert (type(whole.L), whole.L, type(whole.tau)) == (int, 10, float)
        for lam, want in ((700, (700.0, 700.0)), ([700, 0.5], (700.0, 0.5))):
            doc = edited(set_key(["world", "targets"], {"mode": "sampled", "lambda": lam}))
            assert parse_scenario(doc).world.targets.lam == want


class TestTargetsOffTheBuffer:
    def doc(self, targets):
        return {
            "world": {
                "width": 10,
                "height": 10,
                "tasks": [{"x": 0, "y": 0, "w": 10, "h": 10}],
                "obstacles": [[5, 5]],
                "targets": {"mode": "explicit", "cells": targets},
            },
            "robots": [{"id": 1, "start": [0, 0]}],
        }

    def test_a_target_on_an_obstacles_buffer_is_refused(self):
        # this world's run used to end `complete` at CR 1.0 with the target
        # at (5, 4) never found
        with pytest.raises(ScenarioError, match=r"^world\.targets\.cells: target \[5, 4\] is next to obstacle cell \[5, 5\]$"):
            parse_scenario(self.doc([[5, 4], [1, 1]]))

    def test_a_target_one_cell_further_off_is_found(self):
        result = run(parse_scenario(self.doc([[5, 3], [1, 1]])))
        assert result.metrics.end_reason == "complete"
        assert (result.metrics.notf, result.metrics.targets_placed) == (2, 2)


NON_FINITE = {
    "params.tick_s Infinity": (["params"], {"tick_s": math.inf}, "params.tick_s"),
    "params.tick_s NaN": (["params"], {"tick_s": math.nan}, "params.tick_s"),
    "params.sense_radius_m NaN": (["params"], {"sense_radius_m": math.nan}, "params.sense_radius_m"),
    "params.n_max -Infinity": (["params"], {"n_max": -math.inf}, "params.n_max"),
    "world.epsilon_m NaN": (["world", "epsilon_m"], math.nan, "world.epsilon_m"),
    "world.epsilon_m too large for a float": (["world", "epsilon_m"], 10**400, "world.epsilon_m"),
    "robot rho1 Infinity": (["robots", 0, "rho1"], math.inf, "robots[0].rho1"),
    "robot rho0 NaN": (["robots", 1, "rho0"], math.nan, "robots[1].rho0"),
    "failure time_s NaN": (["failures"], [{"robot": 1, "time_s": math.nan}], "failures[0].time_s"),
    "failure time_s Infinity": (["failures"], [{"robot": 1, "time_s": math.inf}], "failures[0].time_s"),
    "targets.lambda Infinity": (
        ["world", "targets"],
        {"mode": "sampled", "lambda": math.inf},
        "world.targets.lambda",
    ),
    "targets.lambda list NaN": (
        ["world", "targets"],
        {"mode": "sampled", "lambda": [0.5, math.nan]},
        "world.targets.lambda[1]",
    ),
}


class TestFiniteNumbers:
    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_number_names_its_field(self, case):
        path, value, field = NON_FINITE[case]
        with pytest.raises(ScenarioError) as err:
            parse_scenario(edited(set_key(path, value)))
        assert str(err.value).startswith(f"{field}: expected a finite number")

    def test_json_infinity_and_nan_are_refused_on_load(self, tmp_path):
        # Python's json reads both literals as floats
        path = tmp_path / "scenario.json"
        for key, literal in (("tick_s", "Infinity"), ("sense_radius_m", "NaN")):
            text = json.dumps(edited(set_key(["params"], {key: 0.5})))
            path.write_text(text.replace("0.5", literal))
            with pytest.raises(ScenarioError, match=f"^params.{key}: expected a finite number"):
                load_scenario(str(path))

    def test_an_integer_too_long_to_read_is_refused_on_load(self, tmp_path):
        # json stops at sys.get_int_max_str_digits() (4,300) with a plain ValueError
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(edited(set_key(["params"], {"tick_s": 0.5}))).replace("0.5", "1" * 5000))
        with pytest.raises(ScenarioError, match="unreadable JSON"):
            load_scenario(str(path))
