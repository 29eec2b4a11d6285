"""Value-to-go approximators and the forward ADP rollout they drive.

An approximator supplies the continuation estimate W used in place of the
exact expected value-to-go: at stage k it scores (state, action) pairs, and
by convention scores 0 at the final stage.  The forward scheme starts at the
initial state and at every realized state picks the action maximizing
immediate reward plus W, with min-index tie-breaking.

Implemented approximators: myopic (always 0), rollout (exact value-to-go of a
fixed base policy), linear-feature Q (fixed weights, no training), and the
exact value-to-go of the optimal tail for oracle comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .common import DEFAULT_BUDGET
from .mdp import (
    MdpModel,
    PolicyString,
    backward_values,
    enumerate_noise_paths,
)

__all__ = [
    "EvtgApproximator",
    "RolloutConfig",
    "LinearQConfig",
    "PathRecord",
    "AdpRun",
    "myopic_w",
    "rollout_w",
    "linear_q_w",
    "exact_evtg_w",
    "make_scheme",
    "scheme_policy",
    "adp_forward",
]


@dataclass(frozen=True)
class EvtgApproximator:
    """Continuation estimate ``evaluate(stage, state, action)`` for stages 1..K.

    By the terminal convention ``evaluate(K, x, a)`` is 0 for every pair.
    Implementations must be deterministic; they may cache internally.
    """

    kind: str
    evaluate: Callable[[int, int, int], float]


@dataclass(frozen=True)
class RolloutConfig:
    """Fixed base policy whose exact value-to-go serves as the approximator."""

    base_policy: PolicyString

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "base_policy", tuple(tuple(int(a) for a in stage) for stage in self.base_policy)
        )


@dataclass(frozen=True)
class LinearQConfig:
    """Per-action weight vectors and per-state features of equal dimension."""

    theta: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        if theta.ndim != 2 or phi.ndim != 2:
            raise ValueError("theta and phi must be 2-dimensional tables")
        if theta.shape[1] != phi.shape[1]:
            raise ValueError(
                f"weight dimension {theta.shape[1]} does not match feature dimension {phi.shape[1]}"
            )
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True)
class PathRecord:
    """Realized states, actions, and accumulated reward along one noise path."""

    noise: tuple[int, ...]
    probability: float
    states: tuple[int, ...]
    actions: tuple[int, ...]
    reward: float


@dataclass(frozen=True)
class AdpRun:
    """Forward-scheme outcome: per-path records and the exact expected reward."""

    paths: tuple[PathRecord, ...]
    expected_value: float


def myopic_w() -> EvtgApproximator:
    """Ignore the continuation entirely: W is identically zero."""
    return EvtgApproximator(kind="myopic", evaluate=lambda stage, state, action: 0.0)


def _continuation_w(kind: str, continuation: np.ndarray) -> EvtgApproximator:
    """Read W from a (stage, state, action) continuation table of :func:`backward_values`."""

    def evaluate(stage: int, state: int, action: int) -> float:
        return float(continuation[stage - 1, state, action])

    return EvtgApproximator(kind=kind, evaluate=evaluate)


def rollout_w(model: MdpModel, config: RolloutConfig) -> EvtgApproximator:
    """Score (state, action) by the exact value-to-go of the base policy.

    ``evaluate(k, x, a)`` is the exact expected reward of taking ``a`` at ``x``
    and following the base policy for stages k+1..K, read from one backward
    evaluation of the base policy.
    """
    base = config.base_policy
    if len(base) != model.horizon:
        raise ValueError("base policy must cover every stage")
    _, continuation = backward_values(model, base)
    return _continuation_w("rollout", continuation)


def linear_q_w(model: MdpModel, config: LinearQConfig) -> EvtgApproximator:
    """Embed a fixed linear-feature Q table as a continuation estimate.

    The parametric score of (x, a) is theta(a) . phi(x); subtracting the
    immediate reward makes the forward rule r + W reproduce exactly the
    argmax of the parametric score.
    """
    theta, phi = config.theta, config.phi
    if theta.shape[0] != model.num_actions:
        raise ValueError("theta must provide one weight vector per action")
    if phi.shape[0] != model.num_states:
        raise ValueError("phi must provide one feature vector per state")
    table = phi @ theta.T - model.reward

    def evaluate(stage: int, state: int, action: int) -> float:
        if stage == model.horizon:
            return 0.0
        return float(table[state, action])

    return EvtgApproximator(kind="linear_q", evaluate=evaluate)


def exact_evtg_w(model: MdpModel) -> EvtgApproximator:
    """Exact expected value-to-go of the optimal tail, for oracle comparisons.

    Reads the continuation of backward induction, so r + W is Bellman's Q.
    """
    _, continuation = backward_values(model)
    return _continuation_w("exact_evtg", continuation)


def make_scheme(
    model: MdpModel,
    name: str,
    base_policy: Optional[PolicyString] = None,
    theta: Optional[np.ndarray] = None,
) -> EvtgApproximator:
    """Build an approximator from its configuration name.

    ``rollout`` needs ``base_policy``; ``linearq`` needs ``theta`` plus a
    model with features.
    """
    if name == "myopic":
        return myopic_w()
    if name == "rollout":
        if base_policy is None:
            raise ValueError("rollout scheme requires a base policy")
        return rollout_w(model, RolloutConfig(base_policy=base_policy))
    if name == "linearq":
        if theta is None:
            raise ValueError("linearq scheme requires theta weights")
        if model.features is None:
            raise ValueError("linearq scheme requires a model with features")
        return linear_q_w(model, LinearQConfig(theta=np.asarray(theta, dtype=float), phi=model.features))
    if name == "exact_evtg":
        return exact_evtg_w(model)
    raise ValueError(f"unknown scheme '{name}'")


def scheme_policy(model: MdpModel, approximator: EvtgApproximator) -> PolicyString:
    """The scheme's action at every (stage, state): argmax of r + W, min-index ties."""
    w = approximator.evaluate
    policy = []
    for stage in range(1, model.horizon + 1):
        actions = []
        for state in range(model.num_states):
            best_action = 0
            best_value = -math.inf
            for action in range(model.num_actions):
                value = float(model.reward[state, action]) + float(w(stage, state, action))
                if value > best_value:
                    best_action = action
                    best_value = value
            actions.append(best_action)
        policy.append(tuple(actions))
    return tuple(policy)


def adp_forward(model: MdpModel, approximator: EvtgApproximator, budget: int = DEFAULT_BUDGET) -> AdpRun:
    """Roll the forward scheme over every noise path and aggregate exactly.

    On each path the realized state advances through the model's transition
    law under the scheme's actions; the run records all paths and the exact
    probability-weighted expected cumulative true reward.
    """
    K = model.horizon
    paths = enumerate_noise_paths(model, K - 1, budget=budget)
    policy = scheme_policy(model, approximator)
    records = []
    for path in paths:
        state = model.initial_state
        states = [state]
        actions = []
        total = 0.0
        for stage, stage_policy in enumerate(policy, start=1):
            action = stage_policy[state]
            actions.append(action)
            total += float(model.reward[state, action])
            if stage < K:
                state = int(model.transition[state, action, path.symbols[stage - 1]])
                states.append(state)
        records.append(
            PathRecord(
                noise=path.symbols,
                probability=path.probability,
                states=tuple(states),
                actions=tuple(actions),
                reward=total,
            )
        )
    expected = 0.0
    for record in records:
        expected += record.probability * record.reward
    return AdpRun(paths=tuple(records), expected_value=float(expected))
