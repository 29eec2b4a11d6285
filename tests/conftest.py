"""Shared fixtures: hand-checked desk models and the sweep corpora.

The two-state chain model is the workhorse: state 0 pays 1 for staying and 0
for leaving, state 1 is absorbing and pays 5 for anything, so the optimal
two-stage value from state 0 is 5 while the myopic forward scheme earns 2.
Every frozen constant in the tests was first derived by hand or by the
exhaustive oracles exercised here.
"""

from __future__ import annotations

import pytest

from adpbound import (
    GeneratedInstanceSpec,
    MdpModel,
    StringObjective,
    exact_evtg_w,
    generate_mdp_instances,
    generate_string_instances,
    instance_rng,
    make_scheme,
    myopic_w,
    random_base_policy,
    random_theta,
)

STAY, GO = 0, 1


def chain_model(horizon: int = 2) -> MdpModel:
    return MdpModel(
        num_states=2,
        num_actions=2,
        horizon=horizon,
        initial_state=0,
        noise_probs=[1.0],
        transition=[[[0], [1]], [[1], [1]]],
        reward=[[1.0, 0.0], [5.0, 5.0]],
        features=[[1.0], [1.0]],
    )


def noisy_chain_model() -> MdpModel:
    # Like the chain, but leaving state 0 only succeeds half the time.
    return MdpModel(
        num_states=2,
        num_actions=2,
        horizon=2,
        initial_state=0,
        noise_probs=[0.5, 0.5],
        transition=[[[0, 0], [1, 0]], [[1, 1], [1, 1]]],
        reward=[[1.0, 0.0], [5.0, 5.0]],
        features=[[1.0], [1.0]],
    )


def zero_reward_model() -> MdpModel:
    return MdpModel(
        num_states=2,
        num_actions=2,
        horizon=2,
        initial_state=0,
        noise_probs=[1.0],
        transition=[[[0], [1]], [[1], [1]]],
        reward=[[0.0, 0.0], [0.0, 0.0]],
    )


@pytest.fixture
def m_chain() -> MdpModel:
    return chain_model()


@pytest.fixture
def m_noise() -> MdpModel:
    return noisy_chain_model()


def length_objective(ground_size: int = 2, horizon: int = 4) -> StringObjective:
    return StringObjective(
        evaluate=lambda s: float(len(s)), ground_size=ground_size, horizon=horizon
    )


def distinct_objective(ground_size: int = 2, horizon: int = 4) -> StringObjective:
    return StringObjective(
        evaluate=lambda s: float(len(set(s))), ground_size=ground_size, horizon=horizon
    )


def table_objective(table: dict, ground_size: int, horizon: int) -> StringObjective:
    values = {(): 0.0}
    values.update({tuple(k): float(v) for k, v in table.items()})
    return StringObjective(
        evaluate=lambda s: values.get(tuple(s), 0.0), ground_size=ground_size, horizon=horizon
    )


# --- sweep corpora shared by the unit tests and the acceptance suite ---

STRING_SWEEP_SEED = 20240811
MDP_SWEEP_SEED = 77001


def string_sweep_specs() -> list[GeneratedInstanceSpec]:
    shapes = [(2, 3), (3, 2), (3, 4), (2, 4), (3, 3)]
    specs = []
    for kind_index, kind in enumerate(("coverage_submodular", "random_monotone_marginals")):
        for shape_index, (ground, horizon) in enumerate(shapes):
            specs.append(
                GeneratedInstanceSpec(
                    kind=kind,
                    count=20,
                    seed=STRING_SWEEP_SEED + 10 * kind_index + shape_index,
                    ground_size=ground,
                    horizon=horizon,
                )
            )
    return specs


@pytest.fixture(scope="session")
def string_sweep():
    """200 prefix-monotone objectives: (kind, horizon, objective) triples."""
    instances = []
    for spec in string_sweep_specs():
        for objective in generate_string_instances(spec):
            instances.append((spec.kind, spec.horizon, objective))
    return instances


def mdp_sweep_specs() -> list[GeneratedInstanceSpec]:
    shapes = [(2, 2, 2, 2), (3, 2, 2, 3), (2, 2, 1, 3), (3, 2, 1, 3), (2, 2, 2, 3)]
    return [
        GeneratedInstanceSpec(
            kind="random_mdp",
            count=10,
            seed=MDP_SWEEP_SEED + index,
            num_states=S,
            num_actions=A,
            noise_size=N,
            horizon=K,
        )
        for index, (S, A, N, K) in enumerate(shapes)
    ]


@pytest.fixture(scope="session")
def mdp_sweep():
    """50 random desk-scale models."""
    models = []
    for spec in mdp_sweep_specs():
        models.extend(generate_mdp_instances(spec))
    return models


def schemes_for(model: MdpModel, index: int):
    """The four scheme variants used by every model sweep, seeded per instance."""
    rng = instance_rng(MDP_SWEEP_SEED + 900, index)
    return {
        "myopic": myopic_w(model),
        "rollout": make_scheme(model, "rollout", base_policy=random_base_policy(rng, model)),
        "linearq": make_scheme(model, "linearq", theta=random_theta(rng, model)),
        "exact_evtg": exact_evtg_w(model),
    }
