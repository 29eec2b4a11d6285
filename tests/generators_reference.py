"""Dict-table string generators, kept as the reference for ``adpbound.generators``.

These are the string-at-a-time builders the library replaced with level
tables: every string up to the horizon is tabulated into a dict, shortest
first and in lexicographic order within a length, drawing from the instance
generator one string at a time.  The library must produce the same floats
from the same draws, so agreement is required with ``==``.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

from adpbound import GeneratedInstanceSpec, StringObjective, instance_rng


def coverage_objective(rng: np.random.Generator, ground_size: int, horizon: int) -> StringObjective:
    universe = int(rng.integers(4, 9))
    weights = [float(w) for w in 0.1 + rng.random(universe)]
    covers = [
        frozenset(int(e) for e in np.flatnonzero(rng.random(universe) < 0.45))
        for _ in range(ground_size)
    ]

    def evaluate(string: tuple[int, ...]) -> float:
        if not string:
            return 0.0
        covered: set[int] = set()
        for action in set(string):
            covered |= covers[action]
        return math.fsum(weights[e] for e in sorted(covered))

    return StringObjective(evaluate=evaluate, ground_size=ground_size, horizon=horizon)


def table_objective(
    ground_size: int, horizon: int, extend: Callable[[float], float]
) -> StringObjective:
    # ``extend`` maps the value of a string's parent (the string without its
    # last action) to its own.
    values: dict[tuple[int, ...], float] = {(): 0.0}
    for length in range(1, horizon + 1):
        for string in itertools.product(range(ground_size), repeat=length):
            values[string] = extend(values[string[:-1]])

    def evaluate(string: tuple[int, ...]) -> float:
        try:
            return values[tuple(string)]
        except KeyError:
            raise ValueError("string longer than the generated horizon") from None

    return StringObjective(evaluate=evaluate, ground_size=ground_size, horizon=horizon)


def monotone_marginals_objective(
    rng: np.random.Generator, ground_size: int, horizon: int
) -> StringObjective:
    def extend(parent: float) -> float:
        gain = 0.0 if rng.random() < 0.25 else 0.05 + float(rng.random())
        return parent + gain

    return table_objective(ground_size, horizon, extend)


def unconstrained_objective(
    rng: np.random.Generator, ground_size: int, horizon: int
) -> StringObjective:
    return table_objective(ground_size, horizon, lambda parent: float(2.0 * rng.random()))


BUILDERS = {
    "coverage_submodular": coverage_objective,
    "random_monotone_marginals": monotone_marginals_objective,
    "random_string_fn": unconstrained_objective,
}


def string_instances(spec: GeneratedInstanceSpec) -> tuple[StringObjective, ...]:
    """The reference objectives for ``spec``, drawn as the library draws them."""
    builder = BUILDERS[spec.kind]
    return tuple(
        builder(instance_rng(spec.seed, index), spec.ground_size, spec.horizon)
        for index in range(spec.count)
    )
