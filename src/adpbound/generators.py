"""Seeded generators for string objectives and desk-scale models.

Every generator draws from a PCG64 generator seeded through
``SeedSequence(entropy=seed, spawn_key=(index,))``, so instance ``index`` of a
sweep depends only on the sweep seed and its position.  That derivation is
part of the published contract: fixtures are reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mdp import MdpModel, PolicyString
from .stringopt import StringObjective, table_objective

__all__ = [
    "GeneratedInstanceSpec",
    "STRING_KINDS",
    "generate_string_instances",
    "generate_mdp_instances",
    "random_base_policy",
    "random_theta",
    "instance_rng",
]

STRING_KINDS = ("coverage_submodular", "random_monotone_marginals", "random_string_fn")


@dataclass(frozen=True)
class GeneratedInstanceSpec:
    """Sizes, count, and seed for one family of generated instances."""

    kind: str
    count: int
    seed: int
    ground_size: int = 3
    horizon: int = 4
    num_states: int = 2
    num_actions: int = 2
    noise_size: int = 2
    feature_dim: int = 2

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.kind not in STRING_KINDS + ("random_mdp",):
            raise ValueError(f"unknown instance kind '{self.kind}'")


def instance_rng(seed: int, index: int) -> np.random.Generator:
    """The sweep generator contract: PCG64 over SeedSequence(seed, spawn_key=(index,))."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def _coverage_objective(rng: np.random.Generator, ground_size: int, horizon: int) -> StringObjective:
    # Weighted-coverage value of the distinct actions used; order-free, monotone,
    # with diminishing returns by construction.  Weights stay >= 0.1 so marginal
    # gains are either exactly zero or far above the curvature skip tolerance.
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


def _table_objective(
    ground_size: int, horizon: int, extend: Callable[[np.ndarray], np.ndarray]
) -> StringObjective:
    # Builds every level from the one before it.  ``extend`` maps the values
    # of the parents of every string of the next length (each string without
    # its last action), in lexicographic order of the strings, to their own
    # values; repeating each parent once per action gives exactly that order.
    levels = [np.zeros(())]
    for length in range(1, horizon + 1):
        values = extend(np.repeat(levels[-1].ravel(), ground_size))
        levels.append(values.reshape((ground_size,) * length))
    return table_objective(levels)


def _monotone_marginals_objective(
    rng: np.random.Generator, ground_size: int, horizon: int
) -> StringObjective:
    # Nonnegative per-(prefix, action) gains; roughly a quarter of the gains
    # are exactly zero to exercise tie and skip handling.  Prefix-monotone by
    # construction, order matters.  One conditional draw per string, in order.
    def extend(parents: np.ndarray) -> np.ndarray:
        gains = (0.0 if rng.random() < 0.25 else 0.05 + rng.random() for _ in parents)
        return parents + np.fromiter(gains, dtype=float, count=parents.size)

    return _table_objective(ground_size, horizon, extend)


def _unconstrained_objective(
    rng: np.random.Generator, ground_size: int, horizon: int
) -> StringObjective:
    # Arbitrary nonnegative table; generally neither monotone nor concave.
    # A bulk draw gives the same doubles as one draw per string.
    return _table_objective(ground_size, horizon, lambda parents: 2.0 * rng.random(parents.size))


def generate_string_instances(spec: GeneratedInstanceSpec) -> tuple[StringObjective, ...]:
    """Generate ``spec.count`` deterministic string objectives of ``spec.kind``."""
    if spec.kind not in STRING_KINDS:
        raise ValueError(f"'{spec.kind}' is not a string-instance kind")
    builders = {
        "coverage_submodular": _coverage_objective,
        "random_monotone_marginals": _monotone_marginals_objective,
        "random_string_fn": _unconstrained_objective,
    }
    builder = builders[spec.kind]
    return tuple(
        builder(instance_rng(spec.seed, index), spec.ground_size, spec.horizon)
        for index in range(spec.count)
    )


def generate_mdp_instances(spec: GeneratedInstanceSpec) -> tuple[MdpModel, ...]:
    """Generate ``spec.count`` valid desk-scale models with features attached."""
    if spec.kind != "random_mdp":
        raise ValueError("model generation requires kind 'random_mdp'")
    models = []
    for index in range(spec.count):
        rng = instance_rng(spec.seed, index)
        S, A, N = spec.num_states, spec.num_actions, spec.noise_size
        transition = rng.integers(0, S, size=(S, A, N))
        probs = 0.1 + rng.random(N)
        probs = probs / probs.sum()
        reward = 5.0 * rng.random((S, A))
        models.append(
            MdpModel(
                num_states=S,
                num_actions=A,
                horizon=spec.horizon,
                initial_state=int(rng.integers(0, S)),
                noise_probs=probs,
                transition=transition,
                reward=reward,
                features=rng.random((S, spec.feature_dim)),
            )
        )
    return tuple(models)


def random_base_policy(rng: np.random.Generator, model: MdpModel) -> PolicyString:
    """A uniformly random full-horizon policy string for rollout bases."""
    return tuple(
        tuple(int(a) for a in rng.integers(0, model.num_actions, size=model.num_states))
        for _ in range(model.horizon)
    )


def random_theta(rng: np.random.Generator, model: MdpModel) -> np.ndarray:
    """Random linear-Q weights matching the model's feature dimension."""
    if model.features is None:
        raise ValueError("model carries no features")
    dim = model.features.shape[1]
    return rng.normal(scale=2.0, size=(model.num_actions, dim))
