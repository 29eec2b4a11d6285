"""Loop references for the table code in ``adpbound.schemes`` and ``adpbound.surrogate``.

``scheme_policy`` scores every (stage, state, action) one at a time; the
library computes it as one array argmax with the same floating-point
operations, so the two must agree with ``==``.

``monotonicity_certificate`` walks the policy-string tree depth first,
propagating one state distribution per node and reducing the slack of every
prefix split as expected reward gained minus expected continuation lost.
The library reads the certificate off the prefix-monotone check on the
averaged surrogate's value tables instead, so this walk is the independent
route to it: the verdict must agree exactly, the worst slack within
``values_agree``.

``pdao_construct`` builds the path-dependent greedy scheme of the surrogate
as its own noise tree, picking the first maximizer of the path score at every
node.  The library never builds it: it checks the forward run against the
path score instead, so this tree is the independent route to that check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from adpbound.common import VALUE_TOL
from adpbound.mdp import MarkovPolicy, MdpModel, PolicyString
from adpbound.schemes import EvtgApproximator, PathRecord
from adpbound.surrogate import SurrogateObjective, policy_ground_set


def scheme_policy(model: MdpModel, approximator: EvtgApproximator) -> PolicyString:
    """The scheme's action at every (stage, state): first maximizer of r + W."""
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


def monotonicity_certificate(
    model: MdpModel, approximator: EvtgApproximator
) -> tuple[bool, float]:
    """(holds, worst slack) of the monotonicity condition, node by node."""
    ground = policy_ground_set(model)
    K = model.horizon
    reward = model.reward
    transition = model.transition
    probs = model.noise_probs
    S = model.num_states
    N = model.noise_size
    w = approximator.evaluate

    worst = math.inf

    def recurse(
        prefix: tuple[MarkovPolicy, ...],
        dist: np.ndarray,
        history: list[tuple[float, float]],
    ) -> None:
        nonlocal worst
        n = len(prefix)
        if n > 0:
            cum_n, ew_n = history[n]
            for m in range(n):
                cum_m, ew_m = history[m]
                worst = min(worst, (cum_n - cum_m) - (ew_m - ew_n))
        if n == K:
            return
        stage = n + 1
        for policy in ground:
            expected_reward = 0.0
            expected_w = 0.0
            for state in range(S):
                p = float(dist[state])
                if p == 0.0:
                    continue
                action = policy[state]
                expected_reward += p * float(reward[state, action])
                expected_w += p * float(w(stage, state, action))
            next_dist = np.zeros(S)
            for state in range(S):
                p = float(dist[state])
                if p == 0.0:
                    continue
                action = policy[state]
                for symbol in range(N):
                    next_dist[int(transition[state, action, symbol])] += p * float(probs[symbol])
            cum, _ = history[n]
            history.append((cum + expected_reward, expected_w))
            recurse(prefix + (policy,), next_dist, history)
            history.pop()

    start = np.zeros(S)
    start[model.initial_state] = 1.0
    recurse((), start, [(0.0, 0.0)])
    return worst >= -VALUE_TOL, worst


@dataclass(frozen=True)
class PdaoTree:
    """Path-dependent greedy scheme materialized as a noise-history tree.

    ``actions_by_history`` maps each realized noise prefix (xi_1..xi_{k-1})
    to the stage-k action; ``paths`` records the full-horizon outcomes in
    lexicographic noise order.
    """

    actions_by_history: dict[tuple[int, ...], int]
    paths: tuple[PathRecord, ...]
    expected_value: float


def pdao_construct(surrogate: SurrogateObjective) -> PdaoTree:
    """Greedy on the path score at every node of the noise tree, min-index ties."""
    model = surrogate.model
    K = model.horizon
    actions_by_history: dict[tuple[int, ...], int] = {}
    records: list[PathRecord] = []

    def walk(noise: tuple[int, ...], states: list[int], actions: list[int], probability: float):
        action = max(
            range(model.num_actions),
            key=lambda a: surrogate.evaluate_path(states, actions + [a]),
        )
        actions_by_history[noise] = action
        actions = actions + [action]
        if len(actions) == K:
            reward = 0.0
            for x, a in zip(states, actions):
                reward += float(model.reward[x, a])
            records.append(PathRecord(noise, probability, tuple(states), tuple(actions), reward))
            return
        for symbol, p in enumerate(model.noise_probs):
            successor = int(model.transition[states[-1], action, symbol])
            walk(noise + (symbol,), states + [successor], actions, probability * float(p))

    walk((), [model.initial_state], [], 1.0)
    return PdaoTree(
        actions_by_history=actions_by_history,
        paths=tuple(records),
        expected_value=float(sum(r.probability * r.reward for r in records)),
    )
