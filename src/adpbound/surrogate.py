"""Surrogate string objective that turns a forward ADP scheme into a greedy scheme.

The surrogate scores a realized state/action path by the accumulated true
reward plus the approximator's continuation estimate at the last pair (the
estimate vanishes at full horizon).  Averaging it over noise yields an
objective on policy strings whose full-length values and optimum coincide
with the original control problem.  The forward ADP scheme is a greedy
scheme for it: the run is built once and verified, path by path against the
path score (Proposition 1) and stage by stage against the averaged
surrogate (Theorem 2).  Running the string-optimization guarantee along the
scheme's own greedy string therefore bounds the ADP scheme against the true
optimum, whatever its tie-breaking, certified whenever the averaged
surrogate is prefix-monotone.

The scheme enters only through its W table.  The averaged surrogate averages
realized paths (``_g_avg``), and the monotonicity certificate is the
prefix-monotone check on the value tables the guarantee report builds from
it; its independent route, a node-by-node walk of the policy-string tree,
lives with the tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .common import (
    DEFAULT_BUDGET,
    VALUE_TOL,
    GuaranteeViolationError,
    ensure_budget,
    strings_up_to,
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
    check_prefix_monotone,
    greedy_guarantee_report,
)

__all__ = [
    "SurrogateObjective",
    "PolicyStringObjective",
    "StageEvidence",
    "MonotonicityCertificate",
    "AdpBoundReport",
    "budget_preflight",
    "policy_ground_set",
    "g_avg_eval",
    "induced_stage_policies",
    "check_stagewise_selection",
    "check_path_greedy",
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


def _g_avg(surrogate: SurrogateObjective, policies: PolicyString) -> float:
    k = len(policies)
    if k == 0:
        return 0.0
    model = surrogate.model
    total = 0.0
    for path in enumerate_noise_paths(model, k - 1):
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


def policy_string_objective(model: MdpModel, approximator: EvtgApproximator) -> PolicyStringObjective:
    """Wrap the averaged surrogate of (model, approximator) as a string objective."""
    ground = policy_ground_set(model)
    surrogate = SurrogateObjective(model=model, approximator=approximator)
    memo: dict[tuple[int, ...], float] = {}

    def evaluate(indices: tuple[int, ...]) -> float:
        indices = tuple(indices)
        value = memo.get(indices)
        if value is None:
            value = _g_avg(surrogate, tuple(ground[i] for i in indices))
            memo[indices] = value
        return value

    objective = StringObjective(
        evaluate=evaluate, ground_size=len(ground), horizon=model.horizon
    )
    return PolicyStringObjective(surrogate=surrogate, ground=ground, objective=objective)


def g_avg_eval(obj: PolicyStringObjective, policies: PolicyString) -> float:
    """Exact noise expectation of the surrogate along a policy string.

    At full length this equals the exact policy value of the same string; the
    empty string is worth 0.
    """
    if len(policies) > obj.surrogate.model.horizon:
        raise ValueError("policy string longer than the horizon")
    return _g_avg(obj.surrogate, tuple(tuple(stage) for stage in policies))


def induced_stage_policies(run: AdpRun, model: MdpModel) -> PolicyString:
    """Read the forward run's actions back as one stage policy per stage.

    The run follows one action table, so every path reaching a state takes
    the same action there; states never reached at a stage get action 0,
    which the averaged surrogate cannot see.
    """
    tables = [[0] * model.num_states for _ in range(model.horizon)]
    for record in run.paths:
        for stage, (state, action) in enumerate(zip(record.states, record.actions)):
            tables[stage][state] = action
    return tuple(tuple(stage) for stage in tables)


@dataclass(frozen=True)
class StageEvidence:
    """Per-stage gap between the stage-wise maximum and the attained value."""

    stage: int
    best_value: float
    attained_value: float
    gap: float


def check_stagewise_selection(
    obj: PolicyStringObjective, policies: PolicyString
) -> tuple[bool, tuple[StageEvidence, ...]]:
    """Verify that a policy string attains every stage-wise selection maximum.

    Checks stage by stage that, given the shared prefix, the string's stage
    policy attains the maximum of the averaged surrogate over the whole
    ground set, so the string is a greedy string of the objective whatever
    its tie-breaking.  The attained value and the maximum are compared with
    :func:`values_agree`, since a tie the scheme resolved with r + W can
    round apart in the surrogate's sums.  Applied to the forward run's
    induced stage policies this is the scheme's Theorem 2 identity.
    """
    prefix: tuple[int, ...] = ()
    evidence: list[StageEvidence] = []
    ev = obj.objective.evaluate
    for stage, policy in enumerate(policies, start=1):
        best = -math.inf
        for candidate in range(len(obj.ground)):
            value = ev(prefix + (candidate,))
            if value > best:
                best = value
        prefix = prefix + (obj.ground.index(policy),)
        attained = ev(prefix)
        evidence.append(
            StageEvidence(stage=stage, best_value=best, attained_value=attained, gap=best - attained)
        )
    verified = all(values_agree(item.attained_value, item.best_value) for item in evidence)
    return verified, tuple(evidence)


def check_path_greedy(
    surrogate: SurrogateObjective, run: AdpRun
) -> tuple[bool, tuple[tuple[int, ...], ...]]:
    """Verify that a forward run is path-dependent greedy selection on the surrogate.

    At every node of the run's noise tree the action taken must maximize the
    surrogate's path score over actions, compared with :func:`values_agree`:
    the path score adds the accumulated reward to r + W, so on an exact tie
    the two sums can round apart, and either tied action is a greedy choice.
    Applied to the scheme's own forward run this is its Proposition 1
    identity.  Returns the noise paths through a node where it fails.
    """
    model = surrogate.model
    verdicts: dict[tuple[int, ...], bool] = {}

    def greedy_at(record: PathRecord, stage: int) -> bool:
        node = record.noise[:stage]
        if node not in verdicts:
            states = record.states[: stage + 1]
            taken = list(record.actions[:stage])
            scores = [
                surrogate.evaluate_path(states, taken + [action])
                for action in range(model.num_actions)
            ]
            verdicts[node] = values_agree(scores[record.actions[stage]], max(scores))
        return verdicts[node]

    mismatches = tuple(
        record.noise
        for record in run.paths
        if not all(greedy_at(record, stage) for stage in range(model.horizon))
    )
    return not mismatches, mismatches


def check_pdao_gps_equivalence(obj: PolicyStringObjective) -> tuple[bool, tuple[StageEvidence, ...]]:
    """Run the scheme forward and check its stage policies with :func:`check_stagewise_selection`."""
    model = obj.surrogate.model
    run = adp_forward(model, obj.surrogate.approximator)
    return check_stagewise_selection(obj, induced_stage_policies(run, model))


def check_adp_pdao_identity(
    model: MdpModel, approximator: EvtgApproximator
) -> tuple[bool, tuple[tuple[int, ...], ...]]:
    """Run the scheme forward and check the run with :func:`check_path_greedy`."""
    run = adp_forward(model, approximator)
    return check_path_greedy(SurrogateObjective(model=model, approximator=approximator), run)


@dataclass(frozen=True)
class MonotonicityCertificate:
    """Whether the averaged surrogate is prefix-monotone, with its margin.

    ``worst_slack`` is the minimum of g(string) - g(prefix) over every policy
    string and prefix; ``witness`` is the first violating (prefix, string)
    as stage policies, or None when the certificate holds.
    """

    holds: bool
    worst_slack: float
    witness: Optional[tuple[PolicyString, PolicyString]]


def check_surrogate_monotonicity(
    model: MdpModel, approximator: EvtgApproximator
) -> MonotonicityCertificate:
    """Exhaustively test the reward-versus-continuation monotonicity condition.

    For every policy string and every prefix split m < n, the expected drop in
    the continuation estimate between stages m and n must not exceed the
    expected reward accumulated over stages m+1..n.  That slack is
    g(string) - g(prefix) for the averaged surrogate g, and the empty prefix
    is included, so this is :func:`check_prefix_monotone` on
    ``policy_string_objective(model, approximator)``.
    """
    obj = policy_string_objective(model, approximator)
    holds, witness, worst_slack = check_prefix_monotone(obj.objective, model.horizon)
    if witness is not None:
        witness = (obj.policies_for(witness[0]), obj.policies_for(witness[1]))
    return MonotonicityCertificate(holds=holds, worst_slack=worst_slack, witness=witness)


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


def budget_preflight(model: MdpModel, budget: int) -> bool:
    """Check a model's enumerations against the budget, from its sizes alone.

    The forward run walks N^(K-1) noise paths and the Theorem 2 check
    evaluates K * A^S policy strings; either count over the budget raises
    :class:`BudgetExceededError`.  Returns whether the bound fits as well: its
    tables hold every policy string of length 0..K, sum_{n<=K} (A^S)^n, and
    the monotonicity certificate is read from them.  Nothing is built, so callers
    run this before any work that grows with the model.
    """
    K = model.horizon
    P = model.num_actions**model.num_states
    ensure_budget(model.noise_size ** (K - 1), budget, "noise-path enumeration")
    ensure_budget(K * P, budget, "stage-wise selection check")
    return strings_up_to(P, K) <= budget


def adp_bound_report(
    model: MdpModel,
    approximator: EvtgApproximator,
    budget: int = DEFAULT_BUDGET,
) -> AdpBoundReport:
    """Run the whole certification pipeline for one scheme on one model.

    :func:`budget_preflight` runs first, so a budget failure comes before any
    work.  The forward run is built once.  Its induced stage policies are the greedy
    string certified on the averaged surrogate, so the curvatures are
    measured along the scheme's own trajectory; the string-objective optimum
    is cross-checked against backward induction and the string's value
    against the forward run, each with :func:`values_agree`.  The
    monotonicity certificate and its worst slack are the curvature report's
    prefix-monotone check on the same tables.  When the certificate holds,
    the achieved ratio is asserted against the finite-horizon curvature
    bound.  Models whose policy strings of length 0..K exceed the budget
    still get exact values and the scheme checks, but the bound is flagged as
    not computed.
    """
    bound_fits = budget_preflight(model, budget)
    flags: list[str] = []
    K = model.horizon
    _, tables = bellman_solve(model)
    bellman_value = float(tables.V[0, model.initial_state])
    run = adp_forward(model, approximator, budget=budget)
    adp_value = run.expected_value

    curvature: Optional[CurvatureReport] = None
    optimal_value = bellman_value

    obj = policy_string_objective(model, approximator)
    induced = induced_stage_policies(run, model)
    gps_ok, _ = check_stagewise_selection(obj, induced)
    identity_ok, _ = check_path_greedy(obj.surrogate, run)

    if not bound_fits:
        flags.append("bound_not_computed")
    else:
        greedy = tuple(obj.ground.index(policy) for policy in induced)
        curvature = greedy_guarantee_report(obj.objective, K, budget=budget, greedy=greedy)
        flags.extend(curvature.flags)
        optimal_value = curvature.optimal_value
        if not values_agree(optimal_value, bellman_value):
            raise GuaranteeViolationError(
                f"policy-string optimum {optimal_value!r} disagrees with "
                f"backward induction {bellman_value!r}"
            )
        if not values_agree(curvature.greedy_value, adp_value):
            raise GuaranteeViolationError(
                f"stage-wise greedy value {curvature.greedy_value!r} disagrees with "
                f"the forward run {adp_value!r}"
            )
    monotone = curvature is not None and curvature.prefix_monotone

    if optimal_value == 0.0 and adp_value == 0.0:
        ratio = 1.0
        if "degenerate_zero_optimum" not in flags:
            flags.append("degenerate_zero_optimum")
    else:
        ratio = adp_value / optimal_value

    if (
        monotone
        and not math.isnan(curvature.bound_finite_K)
        and ratio < curvature.bound_finite_K - VALUE_TOL
    ):
        raise GuaranteeViolationError(
            f"certified ratio {ratio!r} fell below the bound {curvature.bound_finite_K!r}"
        )

    return AdpBoundReport(
        curvature=curvature,
        optimal_value=optimal_value,
        adp_value=adp_value,
        ratio=ratio,
        monotone_certificate=monotone,
        worst_slack=math.nan if curvature is None else curvature.worst_slack,
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
