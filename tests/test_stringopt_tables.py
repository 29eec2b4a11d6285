"""Table-based enumerations against the loop reference, and their evaluation cost.

``stringopt_reference`` walks every string through a memoized callable; the
library computes the same quantities as reductions over value tables.  The
arithmetic is the same, so agreement is required with ``==``, not within a
tolerance: values, witnesses, tie sets, skipped-term counts and flags.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stringopt_reference as reference
from adpbound import (
    STRING_KINDS,
    BudgetExceededError,
    GeneratedInstanceSpec,
    GreedyTrace,
    StringObjective,
    UndefinedCurvatureError,
    check_diminishing_return,
    check_prefix_monotone,
    forward_curvature_sigma,
    generate_string_instances,
    greedy_guarantee_report,
    greedy_string,
    optimal_string_bruteforce,
    total_curvature_eta,
)
from adpbound.common import DENOM_TOL, VALUE_TOL


class CountingObjective:
    """A string objective that records every string it is asked to evaluate."""

    def __init__(self, inner: StringObjective) -> None:
        self.calls: list[tuple[int, ...]] = []
        self._inner = inner.evaluate
        # Construction evaluates the empty string once, and that call is recorded.
        self.objective = StringObjective(
            evaluate=self._evaluate, ground_size=inner.ground_size, horizon=inner.horizon
        )

    def _evaluate(self, string):
        self.calls.append(tuple(string))
        return self._inner(string)


def _objective(kind: str, ground: int, horizon: int, seed: int) -> StringObjective:
    spec = GeneratedInstanceSpec(
        kind=kind, count=1, seed=seed, ground_size=ground, horizon=horizon
    )
    return generate_string_instances(spec)[0]


def _outcome(fn, *args):
    """The result of ``fn``, or the fact that the curvature was undefined."""
    try:
        return fn(*args)
    except UndefinedCurvatureError:
        return "undefined"


@given(
    kind=st.sampled_from(STRING_KINDS),
    ground=st.integers(1, 4),
    horizon=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=120)
def test_tables_match_loop_reference(kind, ground, horizon, seed):
    f = _objective(kind, ground, horizon, seed)
    trace = greedy_string(f, horizon)
    assert trace == reference.greedy(f, horizon)

    assert optimal_string_bruteforce(f, horizon) == reference.bruteforce(f, horizon)
    assert check_prefix_monotone(f, horizon) == reference.prefix_monotone(f, horizon, VALUE_TOL)
    assert check_diminishing_return(f, horizon) == reference.diminishing_return(
        f, horizon, VALUE_TOL
    )
    eta = _outcome(total_curvature_eta, f, trace, horizon)
    assert eta == _outcome(reference.eta, f, trace, horizon)
    sigma = _outcome(forward_curvature_sigma, f, trace, horizon)
    assert sigma == _outcome(reference.sigma, f, trace, horizon, DENOM_TOL)

    report = greedy_guarantee_report(f, horizon)
    assert report.greedy_value == trace.prefix_values[-1]
    assert report.optimal_value == reference.bruteforce(f, horizon)[1]
    monotone, _, worst_slack = reference.prefix_monotone(f, horizon, VALUE_TOL)
    assert (report.prefix_monotone, report.worst_slack) == (monotone, worst_slack)
    assert report.diminishing_return == reference.diminishing_return(f, horizon, VALUE_TOL)[0]
    skipped = 0
    if eta == "undefined":
        assert "eta_undefined" in report.flags
    else:
        assert report.eta == eta[0]
        skipped += eta[1]
    if sigma == "undefined":
        assert "sigma_undefined" in report.flags
    else:
        assert report.sigma == sigma[0]
        skipped += sigma[1]
    assert report.skipped_terms == skipped


@given(
    kind=st.sampled_from(STRING_KINDS),
    ground=st.integers(2, 4),
    horizon=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60)
def test_named_greedy_string_is_certified_along_itself(kind, ground, horizon, seed):
    # Greedy with largest-index tie-breaking: another greedy string wherever
    # a stage ties, which the monotone-marginal kind does often.
    f = _objective(kind, ground, horizon, seed)
    string = ()
    for _ in range(horizon):
        values = [f.evaluate(string + (a,)) for a in range(ground)]
        string += (max(a for a in range(ground) if values[a] == max(values)),)
    trace = GreedyTrace(
        string=string,
        prefix_values=tuple(f.evaluate(string[: i + 1]) for i in range(horizon)),
        tie_sets=(),
    )
    report = greedy_guarantee_report(f, horizon, greedy=string)
    assert report.greedy_value == trace.prefix_values[-1]
    eta = _outcome(reference.eta, f, trace, horizon)
    sigma = _outcome(reference.sigma, f, trace, horizon, DENOM_TOL)
    if eta == "undefined":
        assert "eta_undefined" in report.flags
    else:
        assert report.eta == eta[0]
    if sigma == "undefined":
        assert "sigma_undefined" in report.flags
    else:
        assert report.sigma == sigma[0]
    if string == greedy_string(f, horizon).string:
        assert report == greedy_guarantee_report(f, horizon)


@pytest.mark.parametrize("string", [(0, 1), (0, 1, 2, 0), (0, 3, 1)])
def test_named_greedy_string_must_fit_the_objective(string):
    f = _objective("random_monotone_marginals", 3, 3, 0)
    with pytest.raises(ValueError):
        greedy_guarantee_report(f, 3, greedy=string)


def test_witnesses_match_loop_reference():
    # Unconstrained tables fail both properties, so the first witness found
    # by each enumeration order is compared, not just the verdict.
    found = 0
    for seed in range(20):
        f = _objective("random_string_fn", 3, 3, seed)
        ok, witness, worst_slack = check_prefix_monotone(f, 3)
        assert (ok, witness, worst_slack) == reference.prefix_monotone(f, 3, VALUE_TOL)
        dr = check_diminishing_return(f, 3)
        assert dr == reference.diminishing_return(f, 3, VALUE_TOL)
        found += (witness is not None) + (dr[1] is not None)
    assert found == 40


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda s: float(max(0, len(s) - 1)),  # first greedy value 0: split 1 skipped
        lambda s: float(len(s) >= 3 and 1 + s[-1]),  # eta undefined, sigma defined
        lambda s: 0.0,  # every term skipped
    ],
)
def test_skipped_terms_match_loop_reference(evaluate):
    f = StringObjective(evaluate=evaluate, ground_size=2, horizon=3)
    trace = greedy_string(f, 3)
    assert _outcome(total_curvature_eta, f, trace, 3) == _outcome(reference.eta, f, trace, 3)
    assert _outcome(forward_curvature_sigma, f, trace, 3) == _outcome(
        reference.sigma, f, trace, 3, DENOM_TOL
    )


@pytest.mark.parametrize("kind", STRING_KINDS)
@pytest.mark.parametrize("ground,horizon", [(1, 3), (3, 1), (3, 4), (4, 3)])
def test_report_evaluates_each_string_once(kind, ground, horizon):
    counted = CountingObjective(_objective(kind, ground, horizon, 5))
    counted.calls.clear()
    greedy_guarantee_report(counted.objective, horizon)
    assert len(counted.calls) == sum(ground**n for n in range(horizon + 1))
    assert len(set(counted.calls)) == len(counted.calls)


@given(
    kind=st.sampled_from(STRING_KINDS),
    ground=st.integers(1, 4),
    horizon=st.integers(1, 4),
    offset=st.integers(-3, 3),
)
@settings(max_examples=100)
def test_report_budget_is_the_number_of_strings_it_evaluates(kind, ground, horizon, offset):
    # A budget within a few strings of the report's count of every string of
    # length 0..K: refused exactly when it falls short, and then before any
    # evaluation beyond the one construction makes of ().
    counted = CountingObjective(_objective(kind, ground, horizon, 0))
    strings = sum(ground**n for n in range(horizon + 1))
    budget = max(0, strings + offset)
    if strings > budget:
        with pytest.raises(BudgetExceededError) as err:
            greedy_guarantee_report(counted.objective, horizon, budget=budget)
        assert err.value.required == strings
        assert "string tabulation" in str(err.value)
        assert counted.calls == [()]
    else:
        greedy_guarantee_report(counted.objective, horizon, budget=budget)
        assert len(counted.calls) == 1 + strings
