"""Battery reliability, success probabilities, and Poisson task-worth math.

All functions are pure and operate on plain numbers so they can be unit
tested against independent oracles without touching the simulation state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Sigmoid exponent clamp: beyond +-35 the result is within 3e-16 of 0/1
# anyway, and the clamp keeps the output strictly inside (0, 1).
_EXP_CLAMP = 35.0


@dataclass(frozen=True)
class BatteryParams:
    """Sigmoid battery-drain model: rho0 = curvature (1/s), rho1 = inflection (s)."""

    rho0: float
    rho1: float

    def __post_init__(self) -> None:
        if self.rho0 <= 0 or self.rho1 <= 0:
            raise ValueError(f"battery params must be positive, got {self}")


def reliability(params: BatteryParams, t: float) -> float:
    """Probability that the battery is not drained after t seconds of work.

    R(t) = 1 / (1 + e^(rho0 * (t - rho1))), strictly decreasing in t,
    R(rho1) = 0.5 exactly. Result is clamped into the open interval (0, 1).
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    z = params.rho0 * (t - params.rho1)
    z = max(-_EXP_CLAMP, min(_EXP_CLAMP, z))
    return 1.0 / (1.0 + math.exp(z))


def success_probability(
    params: BatteryParams,
    tasking_time_s: float,
    travel_dist_m: float,
    u: float,
    unexplored_cells: int,
    omega: float,
    extra_tasking_s: float = 0.0,
) -> float:
    """Probability that a robot finishes a candidate task before battery drain.

    Projects the robot's total tasking time: accumulated time so far, plus
    travel to the task centroid at speed u, plus clearing the task's
    unexplored cells at omega cells/s, plus (for robots that first finish a
    near-done current task) that remainder. Evaluates the reliability curve
    at the projection.
    """
    if u <= 0 or omega <= 0:
        raise ValueError(f"speeds must be positive, got u={u}, omega={omega}")
    projected = tasking_time_s + travel_dist_m / u + unexplored_cells / omega + extra_tasking_s
    return reliability(params, projected)


def sum_in_order(values) -> float:
    """The floats summed left to right, one rounding per addition. From
    Python 3.12 on, `sum` compensates its float additions, so its result
    depends on the interpreter; a run's logged sums must not."""
    total = 0.0
    for v in values:
        total += v
    return total


def remaining_worth(lam: float, found: int) -> float:
    """Expected number of still-undiscovered targets in a task.

    For target count X ~ Poisson(lam) with `found` targets already
    discovered, this is E[max(X - found, 0)], computed in closed form as
    (lam - found) + e^-lam * sum_{x=0..found} (found - x) * lam^x / x!.
    """
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    if found < 0:
        raise ValueError(f"found count must be nonnegative, got {found}")
    if lam == 0.0:
        return 0.0
    correction = 0.0
    term = 1.0  # lam^x / x!, starting at x = 0
    for x in range(found + 1):
        if x > 0:
            term *= lam / x
        correction += (found - x) * term
    # The two terms cancel almost exactly deep in the tail; the true value
    # is nonnegative, so clip the float noise.
    return max(0.0, (lam - found) + math.exp(-lam) * correction)


def available_worth(remaining: float, non_player_probs: list[float]) -> float:
    """Portion of a task's remaining worth left over for game players.

    Robots already working the task (non-players) jointly claim the task
    with probability q = 1 - prod(1 - p); the players compete only for the
    residual share.
    """
    share = 1.0
    for p in non_player_probs:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability out of range: {p}")
        share *= 1.0 - p
    return remaining * share
