"""Finite-horizon tabular stochastic control with exact backward evaluation.

Models are finite state/action tables driven by discrete i.i.d. noise; a
deterministic problem is simply a model whose noise support has size one.
Policies are per-stage state-to-action tables.  One backward recursion,
``backward_values``, gives both the exact value of a policy string (following
its actions) and the optimal value and policy tables (taking the max).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .common import ModelFormatError
from .reporting import write_text_atomic

MarkovPolicy = tuple[int, ...]
PolicyString = tuple[MarkovPolicy, ...]

PROB_SUM_TOL = 1e-12
FILE_PROB_SUM_TOL = 1e-9

__all__ = [
    "MarkovPolicy",
    "PolicyString",
    "MdpModel",
    "NoisePath",
    "ValueTables",
    "enumerate_noise_paths",
    "backward_values",
    "evaluate_policy_exact",
    "bellman_solve",
    "model_from_dict",
    "model_to_dict",
    "load_model",
    "save_model",
]


def _readonly(array: np.ndarray) -> np.ndarray:
    array = np.array(array, copy=True)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class MdpModel:
    """Finite stochastic control model with stage-invariant tables.

    ``transition[x, a, n]`` is the successor state when noise symbol ``n``
    (by position in the support) is drawn, and ``reward[x, a]`` the immediate
    nonnegative reward.  Time-varying dynamics are expressed by augmenting
    the state.  Noise probabilities, rewards and features must be finite.
    Instances are immutable and safe to share across threads.
    """

    num_states: int
    num_actions: int
    horizon: int
    initial_state: int
    noise_probs: np.ndarray
    transition: np.ndarray
    reward: np.ndarray
    noise_support: Optional[tuple[int, ...]] = None
    features: Optional[np.ndarray] = None
    state_labels: Optional[tuple[str, ...]] = None
    action_labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.num_states < 1 or self.num_actions < 1:
            raise ValueError("need at least one state and one action")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if not 0 <= self.initial_state < self.num_states:
            raise ValueError("initial state out of range")
        for labels, size, what in ((self.state_labels, self.num_states, "state"),
                                   (self.action_labels, self.num_actions, "action")):
            if labels is not None and len(labels) != size:
                raise ValueError(f"{len(labels)} {what} labels for {size} {what}s")

        probs = np.asarray(self.noise_probs, dtype=float)
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError("noise probabilities must be a nonempty vector")
        if not np.all(np.isfinite(probs) & (probs > 0.0)):
            raise ValueError("noise probabilities must all be finite and positive")
        if abs(float(probs.sum()) - 1.0) > PROB_SUM_TOL:
            raise ValueError("noise probabilities must sum to 1 within 1e-12")
        object.__setattr__(self, "noise_probs", _readonly(probs))

        transition = np.asarray(self.transition, dtype=np.int64)
        if transition.shape != (self.num_states, self.num_actions, probs.size):
            raise ValueError(
                f"transition table must have shape {(self.num_states, self.num_actions, probs.size)}"
            )
        if transition.min() < 0 or transition.max() >= self.num_states:
            raise ValueError("transition targets must be valid state indices")
        object.__setattr__(self, "transition", _readonly(transition))

        reward = np.asarray(self.reward, dtype=float)
        if reward.shape != (self.num_states, self.num_actions):
            raise ValueError(f"reward table must have shape {(self.num_states, self.num_actions)}")
        if not np.all(np.isfinite(reward) & (reward >= 0.0)):
            raise ValueError("rewards must be finite and nonnegative")
        object.__setattr__(self, "reward", _readonly(reward))

        support = self.noise_support
        if support is None:
            support = tuple(range(probs.size))
        else:
            support = tuple(int(s) for s in support)
            if len(support) != probs.size:
                raise ValueError("noise support and probabilities must have equal length")
        object.__setattr__(self, "noise_support", support)

        if self.features is not None:
            features = np.asarray(self.features, dtype=float)
            if features.ndim != 2 or features.shape[0] != self.num_states:
                raise ValueError("features must be a [state][dim] table")
            if not np.all(np.isfinite(features)):
                raise ValueError("features must be finite")
            object.__setattr__(self, "features", _readonly(features))

    @property
    def noise_size(self) -> int:
        return int(self.noise_probs.size)


@dataclass(frozen=True)
class NoisePath:
    """One realization of the noise sequence with its product probability."""

    symbols: tuple[int, ...]
    probability: float


@dataclass(frozen=True)
class ValueTables:
    """Backward-induction outputs: ``V[k-1][x]`` and ``Q[k-1][x][a]`` for stages 1..K.

    The stage-(K+1) value is identically zero by convention, so ``V[K-1]``
    equals the per-state maximum immediate reward.
    """

    V: np.ndarray
    Q: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "V", _readonly(self.V))
        object.__setattr__(self, "Q", _readonly(self.Q))


def validate_policy_string(model: MdpModel, policy: PolicyString) -> None:
    if len(policy) > model.horizon:
        raise ValueError("policy string longer than the horizon")
    for stage in policy:
        if len(stage) != model.num_states:
            raise ValueError("each stage policy must assign an action to every state")
        for action in stage:
            if not 0 <= action < model.num_actions:
                raise ValueError("policy action out of range")


def enumerate_noise_paths(model: MdpModel, length: int) -> list[NoisePath]:
    """All noise sequences of the given length, lexicographically ordered."""
    if length < 0:
        raise ValueError("path length must be nonnegative")
    probs = [float(p) for p in model.noise_probs]
    paths = []
    for symbols in itertools.product(range(model.noise_size), repeat=length):
        probability = 1.0
        for s in symbols:
            probability *= probs[s]
        paths.append(NoisePath(symbols=symbols, probability=probability))
    return paths


def backward_values(
    model: MdpModel, policy: Optional[PolicyString] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Backward recursion over a policy string, or over the optimum when ``policy`` is None.

    Returns ``V`` of shape (L+1, S) with ``V[L] = 0`` and ``C`` of shape
    (L, S, A), where ``C[k] = V[k+1][transition] @ noise_probs`` is the
    expected value-to-go after taking each action at stage ``k``.  ``V[k]``
    takes the max of ``reward + C[k]`` over actions, or follows ``policy[k]``;
    L is the horizon, or the length of the policy string.
    """
    S, A = model.num_states, model.num_actions
    if policy is not None:
        validate_policy_string(model, policy)
    L = model.horizon if policy is None else len(policy)
    V = np.zeros((L + 1, S))
    C = np.zeros((L, S, A))
    states = np.arange(S)
    for k in range(L - 1, -1, -1):
        C[k] = V[k + 1][model.transition] @ model.noise_probs
        Q = model.reward + C[k]
        V[k] = Q.max(axis=1) if policy is None else Q[states, np.asarray(policy[k])]
    return V, C


def evaluate_policy_exact(model: MdpModel, policy: PolicyString) -> float:
    """Exact expected cumulative reward of a policy string from the initial state.

    The empty policy string is worth 0.
    """
    V, _ = backward_values(model, policy)
    return float(V[0, model.initial_state])


def bellman_solve(model: MdpModel) -> tuple[PolicyString, ValueTables]:
    """Backward induction over stages K..1 with min-index argmax tie-breaking.

    Returns the optimal policy string and the value/Q tables; ``V[0]`` at the
    initial state is the optimum of the control problem and is cross-checkable
    against brute-force policy enumeration at desk scale.
    """
    V, C = backward_values(model)
    Q = model.reward + C
    policy = tuple(
        tuple(int(a) for a in Q[k].argmax(axis=1)) for k in range(model.horizon)
    )
    return policy, ValueTables(V=V[:-1], Q=Q)


def _is_integer(value) -> bool:
    """Whether a JSON value is an integer; a bool is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """Whether a JSON value is a number, integer or float; a bool is not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _all_entries(value, predicate) -> bool:
    """Whether a JSON value, or each entry of an array nested to any depth, passes ``predicate``."""
    if isinstance(value, list):
        return all(_all_entries(item, predicate) for item in value)
    return predicate(value)


def _load_json(path):
    """The JSON value in a UTF-8 file; other bytes or invalid JSON are a ``ModelFormatError``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"invalid JSON in {path}: {exc}") from None


def model_from_dict(data: dict) -> MdpModel:
    """Build a model from the JSON instance schema, rejecting malformed input.

    Sizes, the initial state, transition targets and noise symbols must be
    JSON integers, and noise probabilities, rewards and features JSON
    numbers; none is rounded or converted from another type.
    """
    if not isinstance(data, dict):
        raise ModelFormatError("model file must contain a JSON object")
    required = ["states", "actions", "horizon", "initial_state", "noise", "transition", "reward"]
    for key in required:
        if key not in data:
            raise ModelFormatError(f"model file is missing required field '{key}'")
    for key in ("states", "actions", "horizon", "initial_state"):
        if not _is_integer(data[key]):
            raise ModelFormatError(f"'{key}' must be an integer, got {data[key]!r}")
    if not _all_entries(data["transition"], _is_integer):
        raise ModelFormatError("'transition' entries must be integer state indices")
    noise = data["noise"]
    if not isinstance(noise, dict) or "support" not in noise or "probs" not in noise:
        raise ModelFormatError("'noise' must be an object with 'support' and 'probs'")
    if not isinstance(noise["support"], list) or not all(map(_is_integer, noise["support"])):
        raise ModelFormatError("'noise.support' must be an array of integers")
    for name, value in (("noise.probs", noise["probs"]), ("reward", data["reward"]),
                        ("features", data.get("features"))):
        if value is not None and not _all_entries(value, _is_number):
            raise ModelFormatError(f"'{name}' entries must be JSON numbers")
    support = tuple(noise["support"])
    try:
        probs = np.asarray(noise["probs"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"invalid noise block: {exc}") from None
    if probs.ndim != 1 or len(support) != probs.size:
        raise ModelFormatError("'noise.support' and 'noise.probs' must be equal-length arrays")
    total = float(probs.sum())
    if abs(total - 1.0) > FILE_PROB_SUM_TOL:
        raise ModelFormatError(f"noise probabilities sum to {total!r}, outside 1 +/- 1e-9")
    probs = probs / total

    labels = data.get("labels") or {}
    if not isinstance(labels, dict):
        raise ModelFormatError("'labels' must be an object")
    try:
        return MdpModel(
            num_states=data["states"],
            num_actions=data["actions"],
            horizon=data["horizon"],
            initial_state=data["initial_state"],
            noise_probs=probs,
            transition=data["transition"],
            reward=data["reward"],
            noise_support=support,
            features=data.get("features"),
            state_labels=None if "states" not in labels else tuple(str(s) for s in labels["states"]),
            action_labels=None if "actions" not in labels else tuple(str(s) for s in labels["actions"]),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(str(exc)) from None


def model_to_dict(model: MdpModel) -> dict:
    data: dict = {
        "states": model.num_states,
        "actions": model.num_actions,
        "horizon": model.horizon,
        "initial_state": model.initial_state,
        "noise": {
            "support": list(model.noise_support or ()),
            "probs": [float(p) for p in model.noise_probs],
        },
        "transition": model.transition.tolist(),
        "reward": model.reward.tolist(),
    }
    if model.features is not None:
        data["features"] = model.features.tolist()
    if model.state_labels is not None or model.action_labels is not None:
        labels: dict = {}
        if model.state_labels is not None:
            labels["states"] = list(model.state_labels)
        if model.action_labels is not None:
            labels["actions"] = list(model.action_labels)
        data["labels"] = labels
    return data


def load_model(path) -> MdpModel:
    return model_from_dict(_load_json(path))


def save_model(model: MdpModel, path) -> None:
    write_text_atomic(path, json.dumps(model_to_dict(model), indent=2) + "\n")
