"""Worth-allocation potential games and the Max-Logit equilibrium search.

A game instance holds the players (robot ids), the contested task menu, the
per-task available worth and the per-(player, task) success probabilities.
The shared potential is the total expected worth collected by the joint
action; each player's utility is its marginal contribution to the potential,
which makes every instance an exact potential game.

The probabilities are read by (player, task) key only. A player's row may
be a team model's lazy row, which computes an entry on its first read and
range-checks it then, so a solve pays only for the entries it reads.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

# A joint action assigns each player one task id, or None when unassigned.
# Entries that are neither None nor on the task menu (e.g. a player's
# near-finished current task in a resilience game) contribute nothing.
JointAction = tuple


@dataclass
class GameInstance:
    players: tuple[int, ...]  # robot ids, fixed order
    actions: tuple[int, ...]  # contested task ids, the shared action menu
    worth: dict[int, float]  # task id -> worth available to players
    prob: dict[int, dict[int, float]]  # robot id -> task id -> success probability, read by key
    cycles: int  # learning loop length L
    tau: float  # learning temperature
    initial: JointAction = field(default=None)
    rank: dict[int, int] = field(init=False, repr=False)  # task id -> menu position

    def __post_init__(self) -> None:
        if not self.players:
            raise ValueError("game needs at least one player")
        if not self.actions:
            raise ValueError("game needs at least one action")
        self.rank = {r: k for k, r in enumerate(self.actions)}
        if len(self.rank) != len(self.actions):
            raise ValueError(f"action menu repeats a task: {self.actions}")
        for r in self.actions:
            if self.worth.get(r, 0.0) < 0:
                raise ValueError(f"negative worth for task {r}")
        # the entries each row holds now: all of a plain dict's, only the
        # computed ones of a lazy row, which checks the rest as it computes them
        for v in self.players:
            for r, p in self.prob[v].items():
                if not 0.0 <= p <= 1.0:
                    raise ValueError(f"probability out of range for ({v}, {r}): {p}")
        if self.initial is None:
            self.initial = tuple([self.actions[0]] * len(self.players))
        if len(self.initial) != len(self.players):
            raise ValueError("initial joint action length mismatch")


def potential(g: GameInstance, a: JointAction) -> float:
    """Total expected worth over the task menu for joint action a.

    phi(a) = sum_r w_r * (1 - prod_{i: a_i = r} (1 - p_r(i))). Players whose
    entry is None or off-menu contribute to no task.

    Costs O(players + k log k) for the k distinct tasks chosen, not
    O(menu x players): a task nobody chose adds w_r * (1 - 1.0) = 0.0, and
    x + 0.0 == x, so summing only the chosen tasks, in menu order, with
    each miss product taken in player order, gives the full menu sum bit
    for bit.
    """
    rank = g.rank
    miss: dict[int, float] = {}
    for v, r in zip(g.players, a):
        if r in rank:
            miss[r] = miss.get(r, 1.0) * (1.0 - g.prob[v][r])
    total = 0.0
    for r in sorted(miss, key=rank.__getitem__):
        total += g.worth[r] * (1.0 - miss[r])
    return total


def utility(g: GameInstance, i: int, a: JointAction) -> float:
    """Marginal-contribution payoff of player index i under joint action a.

    U_i = w_r * p_r(i) * prod_{j != i on r} (1 - p_r(j)) where r = a_i; zero
    for an unassigned or off-menu action.
    """
    r = a[i]
    if r is None or r not in g.worth:
        return 0.0
    me = g.players[i]
    share = 1.0
    for j, (v, act) in enumerate(zip(g.players, a)):
        if j != i and act == r:
            share *= 1.0 - g.prob[v][r]
    return g.worth[r] * g.prob[me][r] * share


def max_logit(g: GameInstance, seed: int | random.Random) -> JointAction:
    """Run the Max-Logit learning loop and return the best joint action visited.

    Each cycle one uniformly chosen player draws a uniform alternative from
    the action menu and switches with probability
    mu = min(1, exp((U(alt) - U(cur)) / tau)), the log-space form of
    psi(alt) / max(psi(cur), psi(alt)). The returned action maximizes the
    potential over everything visited (including the initial action), so the
    result never degrades the potential. Ties keep the earliest visit, so a
    cycle that keeps the current action needs no new potential.
    """
    if g.tau <= 0:
        raise ValueError(f"tau must be positive, got {g.tau}")
    if g.cycles < 1:
        raise ValueError(f"cycle count must be >= 1, got {g.cycles}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    players, actions, worth, prob = g.players, g.actions, g.worth, g.prob
    n_players, n_actions, tau = len(players), len(actions), g.tau

    current = list(g.initial)
    best_a = tuple(current)
    best_phi = potential(g, best_a)

    def utility_at(i: int, r) -> float:
        """`utility` of player i playing r against `current`, with the same
        reads and products in the same order, and no joint action built.
        None, no task, is never a key of `worth`."""
        if r not in worth:
            return 0.0
        share = 1.0
        for j, act in enumerate(current):
            if act == r and j != i:
                share *= 1.0 - prob[players[j]][r]
        return worth[r] * prob[players[i]][r] * share

    for _ in range(g.cycles):
        i = rng.randrange(n_players)
        alt = actions[rng.randrange(n_actions)]
        cur = current[i]
        if alt == cur:
            continue
        cur_u = utility_at(i, cur)
        mu = math.exp(min(0.0, (utility_at(i, alt) - cur_u) / tau))
        if rng.random() < mu:
            current[i] = alt
            visited = tuple(current)
            phi = potential(g, visited)
            if phi > best_phi:
                best_phi = phi
                best_a = visited
    return best_a


def brute_force_optimum(g: GameInstance) -> tuple[JointAction, float]:
    """Exhaustive argmax of the potential over the full joint-action space.

    Test oracle; refuses instances with more than 1e7 joint actions. Ties
    break toward the lexicographically smallest joint action, which the
    sorted enumeration yields for free.
    """
    n = len(g.actions) ** len(g.players)
    if n > 10**7:
        raise ValueError(f"instance too large for exhaustive search: {n} joint actions")
    best_a = None
    best_phi = -math.inf
    for a in itertools.product(sorted(g.actions), repeat=len(g.players)):
        phi = potential(g, a)
        if phi > best_phi + 1e-15:
            best_phi = phi
            best_a = a
    return best_a, best_phi


def gain(phi_star: float, phi_init: float, worth_sum: float) -> float:
    """Normalized potential gain from a reallocation: of the players (G_P)
    over their game's worth, or of the team (G_T) over all remaining worth."""
    if worth_sum <= 0:
        return 0.0
    return (phi_star - phi_init) / worth_sum

