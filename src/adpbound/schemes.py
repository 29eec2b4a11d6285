"""Value-to-go approximators and the forward ADP rollout they drive.

An approximator is its continuation estimate W, held as a read-only
(stage, state, action) table that replaces the exact expected value-to-go;
by convention W is 0 at the final stage.  The forward scheme starts at the
initial state and at every realized state picks the action maximizing
immediate reward plus W, with min-index tie-breaking.

Implemented approximators: myopic (always 0), rollout (exact value-to-go of a
fixed base policy), linear-feature Q (fixed weights, no training), and the
exact value-to-go of the optimal tail for oracle comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .common import DEFAULT_BUDGET, ensure_budget
from .mdp import MdpModel, PolicyString, backward_values

__all__ = [
    "EvtgApproximator",
    "PathRecord",
    "AdpRun",
    "myopic_w",
    "rollout_w",
    "linear_q_w",
    "exact_evtg_w",
    "make_scheme",
    "scheme_policy",
    "walk_noise_tree",
    "adp_forward",
]


@dataclass(frozen=True)
class EvtgApproximator:
    """Continuation estimate W as a read-only table ``table[k-1, x, a]`` for stages 1..K.

    By the terminal convention ``table[K-1]`` is 0 for every pair: the
    forward rule scores r + W at every stage, while the surrogate drops W at
    full length, so a nonzero final stage would part the two.
    """

    table: np.ndarray

    def __post_init__(self) -> None:
        table = np.array(self.table, dtype=float)
        if table.ndim != 3 or np.any(table[-1] != 0.0):
            raise ValueError("W must be a [stage][state][action] table that is 0 at the final stage")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def evaluate(self, stage: int, state: int, action: int) -> float:
        """W at (state, action) for stage ``stage`` in 1..K."""
        return float(self.table[stage - 1, state, action])


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


def myopic_w(model: MdpModel) -> EvtgApproximator:
    """Ignore the continuation entirely: W is identically zero."""
    return EvtgApproximator(np.zeros((model.horizon, model.num_states, model.num_actions)))


def rollout_w(model: MdpModel, base_policy: PolicyString) -> EvtgApproximator:
    """Score (state, action) by the exact value-to-go of the base policy.

    ``evaluate(k, x, a)`` is the exact expected reward of taking ``a`` at ``x``
    and following the base policy for stages k+1..K, read from one backward
    evaluation of the base policy.
    """
    if len(base_policy) != model.horizon:
        raise ValueError("base policy must cover every stage")
    _, continuation = backward_values(model, base_policy)
    return EvtgApproximator(continuation)


def linear_q_w(model: MdpModel, theta: np.ndarray) -> EvtgApproximator:
    """Embed a fixed linear-feature Q table as a continuation estimate.

    ``theta[a]`` is the weight vector of action ``a`` over the model's
    per-state features, so the parametric score of (x, a) is
    theta(a) . phi(x); subtracting the immediate reward makes the forward rule
    r + W reproduce exactly the argmax of the parametric score at stages
    1..K-1.
    """
    phi = model.features
    if phi is None:
        raise ValueError("linearq scheme requires a model with features")
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2 or theta.shape[0] != model.num_actions:
        raise ValueError("theta must provide one weight vector per action")
    if theta.shape[1] != phi.shape[1]:
        raise ValueError(
            f"weight dimension {theta.shape[1]} does not match feature dimension {phi.shape[1]}"
        )
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta weights must be finite")
    table = np.zeros((model.horizon, model.num_states, model.num_actions))
    table[:-1] = phi @ theta.T - model.reward
    return EvtgApproximator(table)


def exact_evtg_w(model: MdpModel) -> EvtgApproximator:
    """Exact expected value-to-go of the optimal tail, for oracle comparisons.

    Reads the continuation of backward induction, so r + W is Bellman's Q.
    """
    _, continuation = backward_values(model)
    return EvtgApproximator(continuation)


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
        return myopic_w(model)
    if name == "rollout":
        if base_policy is None:
            raise ValueError("rollout scheme requires a base policy")
        return rollout_w(model, base_policy)
    if name == "linearq":
        if theta is None:
            raise ValueError("linearq scheme requires theta weights")
        return linear_q_w(model, theta)
    if name == "exact_evtg":
        return exact_evtg_w(model)
    raise ValueError(f"unknown scheme '{name}'")


def scheme_policy(model: MdpModel, approximator: EvtgApproximator) -> PolicyString:
    """The scheme's action at every (stage, state): argmax of r + W, min-index ties."""
    choice = (model.reward + approximator.table).argmax(axis=2)
    return tuple(tuple(int(a) for a in stage) for stage in choice)


def walk_noise_tree(model: MdpModel, policy: PolicyString) -> tuple[PathRecord, ...]:
    """Follow a policy string down every branch of the noise tree.

    ``policy[k][x]`` is the action at state ``x`` of stage ``k + 1``.  Returns
    one record per full noise path, in lexicographic noise order.  The tree
    is expanded one stage at a time, so the horizon is not bounded by the
    recursion limit.
    """
    K = model.horizon
    probs = [float(p) for p in model.noise_probs]
    # Noise prefixes of the current stage in lexicographic order, each with
    # its states, the actions before this stage, and its probability.
    nodes: list[tuple[tuple[int, ...], list[int], list[int], float]] = [
        ((), [model.initial_state], [], 1.0)
    ]
    for stage in range(K - 1):
        children = []
        for noise, states, actions, probability in nodes:
            actions = actions + [policy[stage][states[-1]]]
            for symbol, p in enumerate(probs):
                successor = int(model.transition[states[-1], actions[-1], symbol])
                children.append((noise + (symbol,), states + [successor], actions, probability * p))
        nodes = children

    records = []
    for noise, states, actions, probability in nodes:
        actions = actions + [policy[K - 1][states[-1]]]
        total = 0.0
        for x, a in zip(states, actions):
            total += float(model.reward[x, a])
        records.append(
            PathRecord(
                noise=noise,
                probability=probability,
                states=tuple(states),
                actions=tuple(actions),
                reward=total,
            )
        )
    return tuple(records)


def adp_forward(model: MdpModel, approximator: EvtgApproximator, budget: int = DEFAULT_BUDGET) -> AdpRun:
    """Roll the forward scheme over every noise path and aggregate exactly.

    On each path the realized state advances through the model's transition
    law under the scheme's actions; the run records all paths and the exact
    probability-weighted expected cumulative true reward.  The N^(K-1) noise
    paths are checked against the budget before the walk.
    """
    ensure_budget(model.noise_size ** (model.horizon - 1), budget, "noise-path enumeration")
    records = walk_noise_tree(model, scheme_policy(model, approximator))
    return AdpRun(paths=records, expected_value=float(sum(r.probability * r.reward for r in records)))
