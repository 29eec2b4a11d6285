"""Surrogate string objective that turns a forward ADP scheme into a greedy scheme.

The surrogate scores a realized state/action path by the accumulated true
reward plus the approximator's continuation estimate at the last pair (the
estimate vanishes at full horizon).  Averaging it over noise yields an
objective on policy strings whose greedy solution is exactly the stage-wise
greedy policy selection, whose path-wise greedy solution is exactly the
forward ADP scheme, and whose full-length values and optimum coincide with
the original control problem.  Running the string-optimization guarantee on
that objective therefore bounds the ADP scheme against the true optimum,
certified whenever the averaged surrogate is prefix-monotone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .common import (
    DEFAULT_BUDGET,
    VALUE_TOL,
    GuaranteeViolationError,
    ensure_budget,
    values_agree,
)
from .mdp import (
    MarkovPolicy,
    MdpModel,
    PolicyString,
    bellman_solve,
    enumerate_noise_paths,
)
from .schemes import AdpRun, EvtgApproximator, PathRecord, adp_forward
from .stringopt import (
    CurvatureReport,
    StringObjective,
    greedy_guarantee_report,
    greedy_string,
)

__all__ = [
    "SurrogateObjective",
    "PolicyStringObjective",
    "PdaoPolicy",
    "StageEvidence",
    "MonotonicityCertificate",
    "AdpBoundReport",
    "policy_ground_set",
    "g_avg_eval",
    "pdao_construct",
    "gps_construct",
    "induced_stage_policies",
    "check_pdao_gps_equivalence",
    "check_adp_pdao_identity",
    "check_surrogate_monotonicity",
    "adp_bound_report",
    "bound_report_to_dict",
    "curvature_report_to_dict",
]


@dataclass(frozen=True)
class SurrogateObjective:
    """Path objective: accumulated reward plus the final continuation estimate."""

    model: MdpModel
    approximator: EvtgApproximator

    def evaluate_path(self, states: Sequence[int], actions: Sequence[int]) -> float:
        """Score a realized path of equal-length state and action sequences.

        At full horizon the continuation term is dropped entirely, so the
        score is the plain cumulative reward.
        """
        k = len(actions)
        if len(states) != k:
            raise ValueError("state and action sequences must have equal length")
        if not 1 <= k <= self.model.horizon:
            raise ValueError("path length must be between 1 and the horizon")
        reward = self.model.reward
        total = 0.0
        for x, a in zip(states, actions):
            total += float(reward[x, a])
        if k < self.model.horizon:
            total += float(self.approximator.evaluate(k, states[-1], actions[-1]))
        return total


def policy_ground_set(model: MdpModel) -> tuple[MarkovPolicy, ...]:
    """Every deterministic stage policy, lexicographically ordered by its table."""
    return tuple(itertools.product(range(model.num_actions), repeat=model.num_states))


def _g_avg(surrogate: SurrogateObjective, policies: PolicyString, budget: int) -> float:
    k = len(policies)
    if k == 0:
        return 0.0
    model = surrogate.model
    total = 0.0
    for path in enumerate_noise_paths(model, k - 1, budget=budget):
        state = model.initial_state
        states = [state]
        actions = []
        for i, stage in enumerate(policies):
            action = stage[state]
            actions.append(action)
            if i < k - 1:
                state = int(model.transition[state, action, path.symbols[i]])
                states.append(state)
        total += path.probability * surrogate.evaluate_path(states, actions)
    return float(total)


@dataclass(frozen=True)
class PolicyStringObjective:
    """The averaged surrogate exposed as a string objective over policy indices.

    ``ground[i]`` is the stage policy named by action index ``i`` of the
    adapter; ``objective.evaluate`` memoizes, so all downstream enumeration
    shares one set of evaluations.
    """

    surrogate: SurrogateObjective
    ground: tuple[MarkovPolicy, ...]
    objective: StringObjective

    def policies_for(self, indices: Sequence[int]) -> PolicyString:
        return tuple(self.ground[i] for i in indices)


def policy_string_objective(
    model: MdpModel, approximator: EvtgApproximator, budget: int = DEFAULT_BUDGET
) -> PolicyStringObjective:
    """Wrap the averaged surrogate of (model, approximator) as a string objective."""
    ground = policy_ground_set(model)
    surrogate = SurrogateObjective(model=model, approximator=approximator)
    memo: dict[tuple[int, ...], float] = {}

    def evaluate(indices: tuple[int, ...]) -> float:
        indices = tuple(indices)
        value = memo.get(indices)
        if value is None:
            value = _g_avg(surrogate, tuple(ground[i] for i in indices), budget)
            memo[indices] = value
        return value

    objective = StringObjective(
        evaluate=evaluate, ground_size=len(ground), horizon=model.horizon
    )
    return PolicyStringObjective(surrogate=surrogate, ground=ground, objective=objective)


def g_avg_eval(
    obj: PolicyStringObjective, policies: PolicyString, budget: int = DEFAULT_BUDGET
) -> float:
    """Exact noise expectation of the surrogate along a policy string.

    At full length this equals the exact policy value of the same string; the
    empty string is worth 0.
    """
    if len(policies) > obj.surrogate.model.horizon:
        raise ValueError("policy string longer than the horizon")
    return _g_avg(obj.surrogate, tuple(tuple(stage) for stage in policies), budget)


@dataclass(frozen=True)
class PdaoPolicy:
    """Path-dependent greedy scheme materialized as a noise-history tree.

    ``actions_by_history`` maps each realized noise prefix (xi_1..xi_{k-1})
    to the stage-k action that maximizes the surrogate given the realized
    path, min-index tie-break.  ``paths`` records the full-horizon outcomes.
    """

    actions_by_history: dict[tuple[int, ...], int]
    paths: tuple[PathRecord, ...]
    expected_value: float


def pdao_construct(surrogate: SurrogateObjective, budget: int = DEFAULT_BUDGET) -> PdaoPolicy:
    """Materialize the full path-dependent greedy tree for the surrogate."""
    model = surrogate.model
    K = model.horizon
    ensure_budget(model.noise_size ** (K - 1), budget, "noise-tree construction")
    actions_by_history: dict[tuple[int, ...], int] = {}
    records: list[PathRecord] = []

    def choose(states: list[int], actions: list[int]) -> int:
        best_action = 0
        best_value = -math.inf
        for action in range(model.num_actions):
            value = surrogate.evaluate_path(states, actions + [action])
            if value > best_value:
                best_action = action
                best_value = value
        return best_action

    def walk(prefix: tuple[int, ...], states: list[int], actions: list[int], probability: float) -> None:
        stage = len(actions) + 1
        action = choose(states, actions)
        actions_by_history[prefix] = action
        actions = actions + [action]
        if stage == K:
            total = 0.0
            for x, a in zip(states, actions):
                total += float(model.reward[x, a])
            records.append(
                PathRecord(
                    noise=prefix,
                    probability=probability,
                    states=tuple(states),
                    actions=tuple(actions),
                    reward=total,
                )
            )
            return
        for symbol in range(model.noise_size):
            successor = int(model.transition[states[-1], action, symbol])
            walk(
                prefix + (symbol,),
                states + [successor],
                actions,
                probability * float(model.noise_probs[symbol]),
            )

    walk((), [model.initial_state], [], 1.0)
    expected = 0.0
    for record in records:
        expected += record.probability * record.reward
    return PdaoPolicy(
        actions_by_history=actions_by_history,
        paths=tuple(records),
        expected_value=float(expected),
    )


def gps_construct(obj: PolicyStringObjective, budget: int = DEFAULT_BUDGET) -> PolicyString:
    """Stage-wise greedy policy selection over the full policy ground set.

    This is literally the greedy strategy of the adapter objective: stage k
    extends the chosen prefix by the policy maximizing the averaged surrogate,
    breaking ties toward the smallest index in the lexicographic enumeration.
    """
    model = obj.surrogate.model
    ensure_budget(len(obj.ground) * model.horizon, budget, "stage-wise policy selection")
    trace = greedy_string(obj.objective, model.horizon)
    return obj.policies_for(trace.string)


def induced_stage_policies(pdao: PdaoPolicy, model: MdpModel) -> PolicyString:
    """Read the path-dependent choices back as one stage policy per stage.

    The surrogate's stage score depends on the realized path only through the
    current state, so all paths reaching a state agree on its action; states
    never realized at a stage default to action 0, which the averaged
    surrogate cannot see.
    """
    K = model.horizon
    tables = [[0] * model.num_states for _ in range(K)]
    seen: list[dict[int, int]] = [dict() for _ in range(K)]
    for record in pdao.paths:
        for stage in range(K):
            state = record.states[stage]
            action = record.actions[stage]
            previous = seen[stage].get(state)
            if previous is None:
                seen[stage][state] = action
                tables[stage][state] = action
            elif previous != action:
                raise GuaranteeViolationError(
                    "path-dependent choices disagreed on a realized state"
                )
    return tuple(tuple(stage) for stage in tables)


@dataclass(frozen=True)
class StageEvidence:
    """Per-stage gap between the stage-wise maximum and the attained value."""

    stage: int
    best_value: float
    attained_value: float
    gap: float


def check_pdao_gps_equivalence(
    obj: PolicyStringObjective, budget: int = DEFAULT_BUDGET, tol: float = VALUE_TOL
) -> tuple[bool, tuple[StageEvidence, ...]]:
    """Verify the path-dependent scheme attains every stage-wise selection maximum.

    Builds the path-dependent tree, reads off its induced stage policies, and
    checks stage by stage that, given the shared prefix, the induced policy's
    averaged surrogate matches the maximum over the whole ground set.  Value
    attainment is what is verified; the induced table may differ from the
    lexicographic pick on states that are never realized.
    """
    return _pdao_gps_equivalence(obj, pdao_construct(obj.surrogate, budget=budget), tol)


def _pdao_gps_equivalence(
    obj: PolicyStringObjective, pdao: PdaoPolicy, tol: float
) -> tuple[bool, tuple[StageEvidence, ...]]:
    model = obj.surrogate.model
    K = model.horizon
    induced = induced_stage_policies(pdao, model)
    index_of = {policy: i for i, policy in enumerate(obj.ground)}
    prefix: tuple[int, ...] = ()
    evidence: list[StageEvidence] = []
    ev = obj.objective.evaluate
    for stage in range(1, K + 1):
        best = -math.inf
        for candidate in range(len(obj.ground)):
            value = ev(prefix + (candidate,))
            if value > best:
                best = value
        mine_index = index_of[induced[stage - 1]]
        attained = ev(prefix + (mine_index,))
        evidence.append(
            StageEvidence(stage=stage, best_value=best, attained_value=attained, gap=best - attained)
        )
        prefix = prefix + (mine_index,)
    verified = all(item.gap <= tol for item in evidence)
    return verified, tuple(evidence)


def check_adp_pdao_identity(
    model: MdpModel, approximator: EvtgApproximator, budget: int = DEFAULT_BUDGET
) -> tuple[bool, tuple[tuple[int, ...], ...]]:
    """Compare the forward scheme and the path-dependent scheme path by path.

    The surrogate's stage score differs from the forward rule only by terms
    that do not depend on the chosen action, so both schemes must pick the
    same action sequence on every noise path.  Returns the offending noise
    paths on mismatch.
    """
    run = adp_forward(model, approximator, budget=budget)
    pdao = pdao_construct(
        SurrogateObjective(model=model, approximator=approximator), budget=budget
    )
    return _adp_pdao_identity(run, pdao)


def _adp_pdao_identity(
    run: AdpRun, pdao: PdaoPolicy
) -> tuple[bool, tuple[tuple[int, ...], ...]]:
    by_noise = {record.noise: record for record in pdao.paths}
    mismatches = []
    for record in run.paths:
        other = by_noise[record.noise]
        if record.actions != other.actions or record.states != other.states:
            mismatches.append(record.noise)
    return not mismatches, tuple(mismatches)


@dataclass(frozen=True)
class MonotonicityCertificate:
    """Outcome of the sufficient condition for the averaged surrogate to be monotone."""

    holds: bool
    worst_slack: float
    witness: Optional[tuple[PolicyString, PolicyString]]


def check_surrogate_monotonicity(
    model: MdpModel,
    approximator: EvtgApproximator,
    budget: int = DEFAULT_BUDGET,
    tol: float = VALUE_TOL,
) -> MonotonicityCertificate:
    """Exhaustively test the reward-versus-continuation monotonicity condition.

    For every policy string and every prefix split m < n, the expected drop in
    the continuation estimate between stages m and n must not exceed the
    expected reward accumulated over stages m+1..n.  The split m = 0 (empty
    prefix, continuation term 0) is included so the certificate holds exactly
    when the averaged surrogate is prefix-monotone, nonnegativity included.

    Expectations are computed by propagating the state distribution, not by
    evaluating the averaged surrogate, so this check is an independent route.
    """
    ground = policy_ground_set(model)
    K = model.horizon
    nodes = sum(len(ground) ** n for n in range(1, K + 1))
    ensure_budget(nodes, budget, "monotonicity-condition enumeration")

    reward = model.reward
    transition = model.transition
    probs = model.noise_probs
    S = model.num_states
    N = model.noise_size
    w = approximator.evaluate

    worst = math.inf
    witness: Optional[tuple[PolicyString, PolicyString]] = None

    def recurse(
        prefix: tuple[MarkovPolicy, ...],
        dist: np.ndarray,
        history: list[tuple[float, float]],
    ) -> None:
        nonlocal worst, witness
        n = len(prefix)
        if n > 0:
            cum_n, ew_n = history[n]
            for m in range(n):
                cum_m, ew_m = history[m]
                slack = (cum_n - cum_m) - (ew_m - ew_n)
                if slack < worst:
                    worst = slack
                    witness = (prefix[:m], prefix)
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
    return MonotonicityCertificate(holds=worst >= -tol, worst_slack=worst, witness=witness)


@dataclass(frozen=True)
class AdpBoundReport:
    """Certified performance report for one (model, approximator) pair."""

    curvature: Optional[CurvatureReport]
    optimal_value: float
    adp_value: float
    ratio: float
    monotone_certificate: bool
    worst_slack: float
    pdao_matches_gps: bool
    adp_matches_pdao: bool
    flags: tuple[str, ...]


def adp_bound_report(
    model: MdpModel,
    approximator: EvtgApproximator,
    budget: int = DEFAULT_BUDGET,
    tol: float = VALUE_TOL,
) -> AdpBoundReport:
    """Run the whole certification pipeline for one scheme on one model.

    The averaged surrogate becomes a string objective whose greedy strategy is
    the scheme itself; its brute-force optimum is cross-checked against
    backward induction and its greedy value against the forward run, each to
    ``tol`` relative to the size of the values compared.  When the
    monotonicity certificate holds, the achieved ratio is asserted against the
    finite-horizon curvature bound.  Models whose policy-string enumeration
    exceeds the budget still get exact values and the scheme checks, but the
    bound is flagged as not computed.
    """
    flags: list[str] = []
    K = model.horizon
    _, tables = bellman_solve(model)
    bellman_value = float(tables.V[0, model.initial_state])
    run = adp_forward(model, approximator, budget=budget)
    adp_value = run.expected_value

    ground = policy_ground_set(model)
    curvature: Optional[CurvatureReport] = None
    certificate = MonotonicityCertificate(holds=False, worst_slack=math.nan, witness=None)
    optimal_value = bellman_value

    obj = policy_string_objective(model, approximator, budget=budget)
    pdao = pdao_construct(obj.surrogate, budget=budget)
    gps_ok, _ = _pdao_gps_equivalence(obj, pdao, tol)
    identity_ok, _ = _adp_pdao_identity(run, pdao)

    if len(ground) ** K > budget:
        flags.append("bound_not_computed")
    else:
        curvature = greedy_guarantee_report(obj.objective, K, budget=budget)
        flags.extend(curvature.flags)
        optimal_value = curvature.optimal_value
        if not values_agree(optimal_value, bellman_value, tol):
            raise GuaranteeViolationError(
                f"policy-string optimum {optimal_value!r} disagrees with "
                f"backward induction {bellman_value!r}"
            )
        if not values_agree(curvature.greedy_value, adp_value, tol):
            raise GuaranteeViolationError(
                f"stage-wise greedy value {curvature.greedy_value!r} disagrees with "
                f"the forward run {adp_value!r}"
            )
        certificate = check_surrogate_monotonicity(model, approximator, budget=budget, tol=tol)

    if optimal_value == 0.0 and adp_value == 0.0:
        ratio = 1.0
        if "degenerate_zero_optimum" not in flags:
            flags.append("degenerate_zero_optimum")
    else:
        ratio = adp_value / optimal_value

    if (
        certificate.holds
        and curvature is not None
        and not math.isnan(curvature.bound_finite_K)
        and ratio < curvature.bound_finite_K - tol
    ):
        raise GuaranteeViolationError(
            f"certified ratio {ratio!r} fell below the bound {curvature.bound_finite_K!r}"
        )

    return AdpBoundReport(
        curvature=curvature,
        optimal_value=optimal_value,
        adp_value=adp_value,
        ratio=ratio,
        monotone_certificate=certificate.holds,
        worst_slack=certificate.worst_slack,
        pdao_matches_gps=gps_ok,
        adp_matches_pdao=identity_ok,
        flags=tuple(flags),
    )


def curvature_report_to_dict(report: CurvatureReport) -> dict:
    return {
        "eta": report.eta,
        "sigma": report.sigma,
        "skipped_terms": report.skipped_terms,
        "bound_finite_K": report.bound_finite_K,
        "bound_asymptotic": report.bound_asymptotic,
        "greedy_value": report.greedy_value,
        "optimal_value": report.optimal_value,
        "ratio": report.ratio,
        "prefix_monotone": report.prefix_monotone,
        "diminishing_return": report.diminishing_return,
        "eta_nonpositive": report.eta_nonpositive,
        "flags": list(report.flags),
    }


def bound_report_to_dict(report: AdpBoundReport) -> dict:
    """Flatten a bound report into the stable JSON field set."""
    c = report.curvature
    return {
        "eta": math.nan if c is None else c.eta,
        "sigma": math.nan if c is None else c.sigma,
        "skipped_terms": None if c is None else c.skipped_terms,
        "bound_finite_K": math.nan if c is None else c.bound_finite_K,
        "bound_asymptotic": math.nan if c is None else c.bound_asymptotic,
        "optimal_value": report.optimal_value,
        "adp_value": report.adp_value,
        "ratio": report.ratio,
        "monotone_certificate": report.monotone_certificate,
        "worst_slack": report.worst_slack,
        "theorem2_verified": report.pdao_matches_gps,
        "prop1_verified": report.adp_matches_pdao,
        "flags": list(report.flags),
    }
