"""Independent oracles for the reports the benchmark's operations produce.

Nothing here calls the program's evaluation code (``mdp``, ``schemes``,
``surrogate`` or ``stringopt``).  Models are read back from the JSON files the
operations consumed; string objectives are the callables the program's
generators build for the same seed, which are inputs, not evaluation code.

Every comparison scales with the size of the values compared (``close``), and
wherever an oracle takes an argmax, candidates within that tolerance of the
maximum are all followed: a near-tie is enumerated, never guessed.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Callable, Optional, Sequence

REL_TOL = 1e-9
MAX_BRANCHES = 4096


class OracleError(AssertionError):
    """A report disagreed with an oracle or with a property the method guarantees."""


def tolerance(*values: float) -> float:
    return REL_TOL * max([1.0] + [abs(v) for v in values])


def close(a: float, b: float) -> bool:
    return abs(a - b) <= tolerance(a, b)


def _near_max(values: Sequence[float]) -> tuple[int, ...]:
    best = max(values)
    return tuple(i for i, v in enumerate(values) if v >= best - tolerance(best))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


# ---------------------------------------------------------------- control models


class ModelTables:
    """Plain-list copy of a model file: reward[x][a], transition[x][a][n], probs[n]."""

    def __init__(self, data: dict) -> None:
        self.S = int(data["states"])
        self.A = int(data["actions"])
        self.K = int(data["horizon"])
        self.x0 = int(data["initial_state"])
        probs = [float(p) for p in data["noise"]["probs"]]
        total = sum(probs)
        self.probs = [p / total for p in probs]
        self.reward = [[float(r) for r in row] for row in data["reward"]]
        self.transition = [[[int(t) for t in cell] for cell in row] for row in data["transition"]]

    @classmethod
    def load(cls, path) -> "ModelTables":
        with open(path, "r", encoding="utf-8") as handle:
            return cls(json.load(handle))

    def expect(self, values: Sequence[float], x: int, a: int) -> float:
        return sum(p * values[self.transition[x][a][n]] for n, p in enumerate(self.probs))


def optimum_backward(m: ModelTables) -> float:
    """Backward induction: the optimal expected reward from the initial state."""
    value = [0.0] * m.S
    for _ in range(m.K):
        value = [max(m.reward[x][a] + m.expect(value, x, a) for a in range(m.A))
                 for x in range(m.S)]
    return value[m.x0]


def rollout_w_backward(m: ModelTables, base: Sequence[Sequence[int]]) -> list[list[list[float]]]:
    """W[k][x][a] for stage k+1: value of following the base policy after (x, a).

    Fixed-policy backward evaluation; zero at the final stage by convention.
    """
    follow = [0.0] * m.S
    table: list[list[list[float]]] = [[] for _ in range(m.K)]
    for k in range(m.K - 1, -1, -1):
        table[k] = [[m.expect(follow, x, a) for a in range(m.A)] for x in range(m.S)]
        follow = [m.reward[x][base[k][x]] + table[k][x][base[k][x]] for x in range(m.S)]
    return table


def scheme_values(m: ModelTables, w: Optional[list[list[list[float]]]]) -> list[float]:
    """Every value the forward scheme can have, by state-distribution propagation.

    At each realized (stage, state) the scheme maximizes reward + W; actions
    within tolerance of the maximum are all followed, so the result lists one
    value per resolution of the near-ties (one value when there are none).
    """
    def candidates(k: int, x: int) -> tuple[int, ...]:
        scores = [m.reward[x][a] + (0.0 if w is None else w[k][x][a]) for a in range(m.A)]
        return _near_max(scores)

    values: list[float] = []

    def walk(k: int, dist: list[float], acc: float) -> None:
        if k == m.K:
            values.append(acc)
            return
        reached = [x for x in range(m.S) if dist[x] > 0.0]
        for combo in itertools.product(*(candidates(k, x) for x in reached)):
            if len(values) > MAX_BRANCHES:
                raise OracleError("too many near-ties to enumerate the scheme's value")
            following = [0.0] * m.S
            gain = 0.0
            for x, a in zip(reached, combo):
                gain += dist[x] * m.reward[x][a]
                for n, p in enumerate(m.probs):
                    following[m.transition[x][a][n]] += dist[x] * p
            walk(k + 1, following, acc + gain)

    start = [0.0] * m.S
    start[m.x0] = 1.0
    walk(0, start, 0.0)
    return values


def scheme_has_reached_tie(m: ModelTables, base: Optional[Sequence[Sequence[int]]]) -> bool:
    """True if the scheme (rollout on ``base``, else myopic) meets a near-tie
    at some (stage, state) it reaches."""
    w = None if base is None else rollout_w_backward(m, base)
    try:
        return len(scheme_values(m, w)) > 1
    except OracleError:
        return True


# ---------------------------------------------------------------- string objectives


def string_optimum(f: Callable[[tuple[int, ...]], float], ground: int, horizon: int) -> float:
    """Brute-force maximum over every full-length string."""
    return max(f(s) for s in itertools.product(range(ground), repeat=horizon))


def greedy_values(f: Callable[[tuple[int, ...]], float], ground: int, horizon: int) -> list[float]:
    """Every value greedy can reach, following exact ties by min index and near-ties all."""
    values: list[float] = []

    def extend(prefix: tuple[int, ...]) -> None:
        if len(prefix) == horizon:
            values.append(f(prefix))
            return
        scores = [f(prefix + (a,)) for a in range(ground)]
        near = _near_max(scores)
        best = max(scores)
        exact = [a for a in near if scores[a] == best]
        # Exact ties break toward the smallest index by contract; only actions
        # whose score differs from the maximum by a rounding error are ambiguous.
        for a in sorted({exact[0], *(a for a in near if scores[a] != best)}):
            if len(values) > MAX_BRANCHES:
                raise OracleError("too many near-ties to enumerate the greedy value")
            extend(prefix + (a,))

    extend(())
    return values


# ---------------------------------------------------------------- the bound


def closed_form_bound(eta: float, sigma: float, horizon: int) -> float:
    """(1/eta)(1 - (1 - eta(1-sigma)/K)^K), with its eta -> 0 limit 1 - sigma.

    Overflow (far outside the certified domain) gives an infinity, which
    reports render as null.
    """
    if abs(eta) <= 1e-9:
        return 1.0 - sigma
    try:
        return (1.0 - (1.0 - eta * (1.0 - sigma) / horizon) ** horizon) / eta
    except OverflowError:
        return math.inf


def asymptotic_bound(eta: float, sigma: float) -> float:
    """(1 - e^(-eta(1-sigma)))/eta, with the same eta -> 0 limit."""
    if abs(eta) <= 1e-9:
        return 1.0 - sigma
    try:
        return (1.0 - math.exp(-eta * (1.0 - sigma))) / eta
    except OverflowError:
        return math.inf


def _matches(reported: Optional[float], expected: float) -> bool:
    if math.isfinite(expected):
        return reported is not None and close(reported, expected)
    return reported is None


def _check_bound(report: dict, horizon: int, certified: bool) -> None:
    eta, sigma, bound = report["eta"], report["sigma"], report["bound_finite_K"]
    _require(eta is not None and sigma is not None,
             f"curvatures missing, flags {report['flags']}")
    expected = closed_form_bound(eta, sigma, horizon)
    _require(_matches(bound, expected), f"bound_finite_K {bound!r} != closed form {expected!r}")
    asym = asymptotic_bound(eta, sigma)
    _require(_matches(report["bound_asymptotic"], asym),
             f"bound_asymptotic {report['bound_asymptotic']!r} != closed form {asym!r}")
    ratio = report["ratio"]
    _require(ratio <= 1.0 + tolerance(ratio), f"ratio {ratio!r} exceeds 1")
    if certified:
        _require(bound is not None and ratio >= bound - tolerance(ratio, bound),
                 f"certified ratio {ratio!r} below the bound {bound!r}")


def check_bound_report(report: dict, m: ModelTables, scheme: str,
                       base: Optional[Sequence[Sequence[int]]]) -> None:
    """Check one ``bound-adp`` report against the oracles and the method's guarantees."""
    _require(report["theorem2_verified"] is True, "theorem2_verified is not true")
    _require(report["prop1_verified"] is True, "prop1_verified is not true")
    optimum = optimum_backward(m)
    _require(close(report["optimal_value"], optimum),
             f"optimal_value {report['optimal_value']!r} != backward induction {optimum!r}")
    w = rollout_w_backward(m, base) if scheme == "rollout" else None
    reachable = scheme_values(m, w)
    _require(any(close(report["adp_value"], v) for v in reachable),
             f"adp_value {report['adp_value']!r} matches none of {reachable!r}")
    ratio = report["adp_value"] / report["optimal_value"]
    _require(close(report["ratio"], ratio), f"ratio {report['ratio']!r} != {ratio!r}")
    if scheme == "myopic":
        _require(report["monotone_certificate"] is True,
                 "myopic monotonicity certificate does not hold")
    _check_bound(report, m.K, certified=report["monotone_certificate"] is True)


def check_string_report(report: dict, f: Callable[[tuple[int, ...]], float], kind: str,
                        ground: int, horizon: int) -> None:
    """Check one ``verify-theorem1`` instance report against the string oracles."""
    _require(report["prefix_monotone"] is True, f"{kind} objective not prefix-monotone")
    optimum = string_optimum(f, ground, horizon)
    _require(close(report["optimal_value"], optimum),
             f"optimal_value {report['optimal_value']!r} != brute force {optimum!r}")
    reachable = greedy_values(f, ground, horizon)
    _require(any(close(report["greedy_value"], v) for v in reachable),
             f"greedy_value {report['greedy_value']!r} matches none of {reachable!r}")
    ratio = report["greedy_value"] / report["optimal_value"]
    _require(close(report["ratio"], ratio), f"ratio {report['ratio']!r} != {ratio!r}")
    if kind == "coverage_submodular":
        _require(report["diminishing_return"] is True,
                 "coverage objective fails the diminishing-return check")
        classic = 1.0 - (1.0 - 1.0 / horizon) ** horizon
        _require(report["ratio"] >= classic - tolerance(classic),
                 f"coverage ratio {report['ratio']!r} below 1-(1-1/K)^K = {classic!r}")
    _check_bound(report, horizon, certified=True)
