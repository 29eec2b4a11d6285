"""Path-enumeration oracle for the backward recursion in ``adpbound.mdp``.

These loops price a policy string by summing its reward along every noise
sequence, weighted by the sequence's probability.  They share no arithmetic
with ``backward_values``, so the library's policy values, Bellman optimum and
rollout continuation are checked against an independent computation.
"""

from __future__ import annotations

from typing import Sequence

from adpbound.mdp import MdpModel, PolicyString, enumerate_noise_paths, validate_policy_string


def trajectory_reward(
    model: MdpModel, policy: PolicyString, start: int, symbols: Sequence[int]
) -> float:
    """Reward of following ``policy`` from ``start`` along one noise sequence."""
    x = start
    total = 0.0
    last = len(policy) - 1
    for i, stage in enumerate(policy):
        a = stage[x]
        total += float(model.reward[x, a])
        if i < last:
            x = int(model.transition[x, a, symbols[i]])
    return total


def path_policy_value(model: MdpModel, policy: PolicyString) -> float:
    """Expected reward of a policy string from the initial state, path by path."""
    validate_policy_string(model, policy)
    if not policy:
        return 0.0
    total = 0.0
    for path in enumerate_noise_paths(model, len(policy) - 1):
        total += path.probability * trajectory_reward(
            model, policy, model.initial_state, path.symbols
        )
    return float(total)


def path_exact_evtg(
    model: MdpModel, tail: PolicyString, stage: int, state: int, action: int
) -> float:
    """Expected value-to-go of following ``tail`` after (state, action) at ``stage``.

    ``tail`` must cover stages ``stage + 1 .. K``; at the final stage the tail
    is empty and the value is 0 by the terminal convention.
    """
    if not 1 <= stage <= model.horizon:
        raise ValueError("stage out of range")
    if len(tail) != model.horizon - stage:
        raise ValueError("tail must cover exactly the remaining stages")
    if not tail:
        return 0.0
    validate_policy_string(model, tail)
    paths = enumerate_noise_paths(model, len(tail) - 1)
    total = 0.0
    for n in range(model.noise_size):
        successor = int(model.transition[state, action, n])
        p = float(model.noise_probs[n])
        for path in paths:
            total += p * path.probability * trajectory_reward(
                model, tail, successor, path.symbols
            )
    return float(total)
