"""Table-based enumerations against the loop reference, and their evaluation cost.

``stringopt_reference`` walks every string through a memoized callable; the
library computes the same quantities as reductions over value tables.  The
arithmetic is the same, so agreement is required with ``==``, not within a
tolerance: values, witnesses, tie sets, skipped-term counts and flags.
"""

from __future__ import annotations

import copy
import dataclasses
import math

import numpy as np
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
from adpbound.common import DENOM_TOL, VALUE_TOL, table_tol
from adpbound.stringopt import table_objective


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
    """The (curvature, skipped count) of ``fn``; the curvature is None where it is undefined."""
    try:
        return fn(*args)
    except UndefinedCurvatureError as exc:
        return None, exc.skipped


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
    value_tol = reference.table_tol(f, horizon, VALUE_TOL)
    assert check_prefix_monotone(f, horizon) == reference.prefix_monotone(f, horizon, value_tol)
    assert check_diminishing_return(f, horizon) == reference.diminishing_return(
        f, horizon, value_tol
    )
    eta = _outcome(total_curvature_eta, f, trace, horizon)
    assert eta == _outcome(reference.eta, f, trace, horizon)
    sigma = _outcome(forward_curvature_sigma, f, trace, horizon)
    denom_tol = reference.table_tol(f, horizon, DENOM_TOL)
    assert sigma == _outcome(reference.sigma, f, trace, horizon, denom_tol)

    report = greedy_guarantee_report(f, horizon)
    assert report.greedy_value == trace.prefix_values[-1]
    assert report.optimal_value == reference.bruteforce(f, horizon)[1]
    monotone, _, worst_slack = reference.prefix_monotone(f, horizon, value_tol)
    assert (report.prefix_monotone, report.worst_slack) == (monotone, worst_slack)
    assert report.diminishing_return == reference.diminishing_return(f, horizon, value_tol)[0]
    if eta[0] is None:
        assert "eta_undefined" in report.flags
    else:
        assert report.eta == eta[0]
    if sigma[0] is None:
        assert "sigma_undefined" in report.flags
    else:
        assert report.sigma == sigma[0]
    # An undefined curvature still counts the terms it skipped.
    assert report.skipped_terms == eta[1] + sigma[1]


def test_skipped_terms_count_every_term_of_an_undefined_curvature():
    # On the zero objective every term is skipped: 2 splits x 8 full strings
    # for eta, and 14 + 6 + 2 blocks for sigma.
    f = table_objective([np.zeros((2,) * n) for n in range(4)])
    trace = greedy_string(f, 3)
    assert _outcome(reference.eta, f, trace, 3) == (None, 16)
    assert _outcome(reference.sigma, f, trace, 3, reference.table_tol(f, 3, DENOM_TOL)) == (
        None, 22
    )
    assert _outcome(total_curvature_eta, f, trace, 3) == (None, 16)
    assert _outcome(forward_curvature_sigma, f, trace, 3) == (None, 22)
    report = greedy_guarantee_report(f, 3)
    assert {"eta_undefined", "sigma_undefined"} <= set(report.flags)
    assert report.skipped_terms == 38


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
    denom_tol = reference.table_tol(f, horizon, DENOM_TOL)
    sigma = _outcome(reference.sigma, f, trace, horizon, denom_tol)
    if eta[0] is None:
        assert "eta_undefined" in report.flags
    else:
        assert report.eta == eta[0]
    if sigma[0] is None:
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
        value_tol = reference.table_tol(f, 3, VALUE_TOL)
        ok, witness, worst_slack = check_prefix_monotone(f, 3)
        assert (ok, witness, worst_slack) == reference.prefix_monotone(f, 3, value_tol)
        dr = check_diminishing_return(f, 3)
        assert dr == reference.diminishing_return(f, 3, value_tol)
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
        reference.sigma, f, trace, 3, reference.table_tol(f, 3, DENOM_TOL)
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


def _same(a, b) -> bool:
    """``==`` on every field, recursively, with NaN equal to NaN."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, name.name), getattr(b, name.name)) for name in dataclasses.fields(a)
        )
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return type(a) is type(b) and a == b


def _callable_only(f: StringObjective) -> StringObjective:
    return StringObjective(evaluate=f.evaluate, ground_size=f.ground_size, horizon=f.horizon)


@given(
    kind=st.sampled_from(("random_monotone_marginals", "random_string_fn")),
    ground=st.integers(1, 4),
    horizon=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=120)
def test_table_path_is_the_callable_path(kind, ground, horizon, seed):
    tabled = _objective(kind, ground, horizon, seed)
    assert tabled.tables is not None
    plain = _callable_only(tabled)
    trace = greedy_string(plain, horizon)
    # Largest-index greedy: another greedy string wherever a stage ties.
    named = ()
    for _ in range(horizon):
        values = [plain.evaluate(named + (a,)) for a in range(ground)]
        named += (max(a for a in range(ground) if values[a] == max(values)),)
    calls = [
        (greedy_guarantee_report, horizon),
        (lambda f: greedy_guarantee_report(f, horizon, greedy=named),),
        (optimal_string_bruteforce, horizon),
        (check_prefix_monotone, horizon),
        (check_diminishing_return, horizon),
        (total_curvature_eta, trace, horizon),
        (forward_curvature_sigma, trace, horizon),
        (lambda f: reference.recursion_checks(f, horizon, greedy_guarantee_report(f, horizon)),),
    ]
    for fn, *args in calls:
        assert _same(_outcome(fn, tabled, *args), _outcome(fn, plain, *args)), fn


@pytest.mark.parametrize("kind", ("random_monotone_marginals", "random_string_fn"))
def test_report_reads_carried_tables_without_evaluating(kind):
    f = _objective(kind, 4, 4, 11)
    counted = CountingObjective(f)
    # The same levels, with the lookup swapped for a recording one of the same values.
    tabled = copy.copy(f)
    object.__setattr__(tabled, "evaluate", counted._evaluate)
    counted.calls.clear()
    report = greedy_guarantee_report(tabled, 4)
    assert counted.calls == []
    assert _same(report, greedy_guarantee_report(counted.objective, 4))


def _levels(ground: int, horizon: int) -> list[np.ndarray]:
    return [np.full((ground,) * n, float(n)) for n in range(horizon + 1)]


def _broken(change):
    levels = _levels(2, 3)
    change(levels)
    return levels


NON_FINITE = {
    "nan": lambda t: t[1].__setitem__(1, np.nan),
    "inf": lambda t: t[3].__setitem__((0, 1, 0), np.inf),
    "minus_inf": lambda t: t[2].__setitem__((1, 1), -np.inf),
}


@pytest.mark.parametrize(
    "tables",
    [
        pytest.param(_broken(lambda t: t.__setitem__(2, np.zeros((2, 3)))), id="wrong_shape"),
        pytest.param(_broken(lambda t: t.__setitem__(2, np.zeros(4))), id="flattened_level"),
        pytest.param(_broken(lambda t: t.__setitem__(0, np.ones(()))), id="nonzero_empty"),
        *[pytest.param(_broken(change), id=name) for name, change in NON_FINITE.items()],
    ],
)
def test_carried_tables_are_validated(tables):
    with pytest.raises(ValueError):
        table_objective(tables)


@pytest.mark.parametrize("change", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_values_of_a_callable_are_rejected(change):
    # The same values as the carried tables above, returned by a callable.
    levels = _broken(change)
    f = StringObjective(evaluate=lambda s: float(levels[len(s)][tuple(s)]), ground_size=2,
                        horizon=3)
    with pytest.raises(ValueError, match="not finite"):
        greedy_guarantee_report(f, 3)
    with pytest.raises(ValueError, match="not finite") as computed:
        check_prefix_monotone(f, 3)
    # Carried, they are refused with the same message.
    with pytest.raises(ValueError) as carried:
        table_objective(levels)
    assert str(carried.value) == str(computed.value)


@pytest.mark.parametrize("string", [(0,), (1,), (0, 1)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_greedy_string_rejects_a_non_finite_candidate(string, bad):
    # Every string here is a candidate of the smallest-index greedy pass.
    values = {string: bad}
    f = StringObjective(evaluate=lambda s: values.get(tuple(s), float(len(s))), ground_size=2,
                        horizon=3)
    with pytest.raises(ValueError, match="not finite"):
        greedy_string(f, 3)


def test_carried_tables_are_stored_read_only():
    f = table_objective(_levels(2, 3))
    assert isinstance(f.tables, tuple)
    for stored in f.tables:
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[...] = 1.0
    plain = StringObjective(evaluate=f.evaluate, ground_size=2, horizon=3)
    assert f == plain
    assert repr(f) == repr(plain)


def test_only_table_objective_carries_levels():
    f = StringObjective(evaluate=lambda s: float(len(s)), ground_size=2, horizon=3)
    assert f.tables is None
    with pytest.raises(TypeError):
        StringObjective(evaluate=f.evaluate, ground_size=2, horizon=3, tables=_levels(2, 3))


def test_table_objective_carries_the_levels_it_is_given():
    levels = _levels(2, 3)
    f = table_objective(levels)
    assert (f.ground_size, f.horizon) == (2, 3)
    for stored, given in zip(f.tables, levels):
        # Frozen in place, so the objective holds the caller's arrays, uncopied.
        assert stored is given
        assert not given.flags.writeable
    assert f.evaluate((1, 0)) == 2.0
    assert greedy_guarantee_report(f, 3) == greedy_guarantee_report(
        StringObjective(evaluate=lambda s: float(len(s)), ground_size=2, horizon=3), 3
    )


@pytest.mark.parametrize(
    "levels",
    [
        pytest.param(_levels(2, 0), id="no_strings"),
        pytest.param(_broken(lambda t: t.__setitem__(1, np.zeros((2, 2)))), id="level_1_not_1d"),
        pytest.param(_broken(lambda t: t.__setitem__(0, np.zeros(2))), id="nonscalar_empty"),
    ],
)
def test_table_objective_validates_its_levels(levels):
    # The sizes are read off the levels, so malformed ones must still be refused.
    with pytest.raises(ValueError):
        table_objective(levels)


def test_table_tol_is_absolute_up_to_one_and_relative_above():
    assert table_tol(1e-12, [np.zeros(()), np.array([0.25, -0.5])]) == 1e-12
    assert table_tol(1e-12, [np.zeros(()), np.array([3.0, -2.0**20])]) == 1e-12 * 2.0**20
    assert table_tol(1e-12, [np.zeros(()), np.array([[4.0, -1.0], [0.5, 0.0]])]) == 4e-12


def _levels_with_rounded_ties() -> list[np.ndarray]:
    # Three exact ties rounded one unit in the last place apart: f((0, 0))
    # below f((0,)), the gain of action 1 after (0,) above its gain at the
    # start, and f((1, 1)) above f((1,)), a forward-curvature denominator.
    below_one = np.nextafter(1.0, 0.0)
    above = np.nextafter(1.5, 2.0), np.nextafter(0.5, 1.0)
    return [np.zeros(()), np.array([1.0, 0.5]), np.array([[below_one, above[0]], [0.75, above[1]]])]


@pytest.mark.parametrize("k", [20, 40])
def test_checks_are_unchanged_by_scaling_with_a_power_of_two(k):
    levels = _levels_with_rounded_ties()
    f = table_objective(levels)
    scaled = table_objective([level * 2.0**k for level in levels])
    ok, witness, worst_slack = check_prefix_monotone(f, 2)
    assert ok and worst_slack < 0.0
    assert check_prefix_monotone(scaled, 2) == (ok, witness, worst_slack * 2.0**k)
    assert check_diminishing_return(f, 2) == check_diminishing_return(scaled, 2) == (True, None)
    sigma = forward_curvature_sigma(f, greedy_string(f, 2), 2)
    assert forward_curvature_sigma(scaled, greedy_string(scaled, 2), 2) == sigma
    # f(s) = w1[s1] + w2[s2] meets the stage recursion with equality, and
    # the sums round its slack one unit in the last place below 0.
    first, second = np.array([9.0, 3.0]) / 7, np.array([1.0, 1.0]) / 7
    levels = [np.zeros(()), first, first[:, None] + second]
    f = table_objective(levels)
    checks = reference.recursion_checks(f, 2, greedy_guarantee_report(f, 2))
    assert min(check.slack for check in checks) < 0.0
    scaled = table_objective([v * 2.0**k for v in levels])
    scaled_checks = reference.recursion_checks(scaled, 2, greedy_guarantee_report(scaled, 2))
    assert [check.satisfied for check in scaled_checks] == [check.satisfied for check in checks]
    assert all(check.satisfied for check in checks)
    assert [check.slack for check in scaled_checks] == [check.slack * 2.0**k for check in checks]
