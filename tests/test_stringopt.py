"""String-optimization core: greedy, brute force, properties, curvatures, bounds.

Expected values are frozen from independent oracles: tiny instances are
enumerated by hand in the comments, and the brute-force maximizer doubles as
the oracle for every greedy comparison.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adpbound import (
    BudgetExceededError,
    StringObjective,
    UndefinedCurvatureError,
    asymptotic_curvature_bound,
    check_diminishing_return,
    check_prefix_monotone,
    curvature_bound,
    forward_curvature_sigma,
    greedy_guarantee_report,
    greedy_recursion_checks,
    greedy_string,
    optimal_string_bruteforce,
    total_curvature_eta,
)
from conftest import distinct_objective, length_objective, table_objective


class TestGreedy:
    def test_length_objective_all_ties(self):
        trace = greedy_string(length_objective(), 2)
        assert trace.string == (0, 0)
        assert trace.prefix_values == (1.0, 2.0)
        assert trace.tie_sets == ((0, 1), (0, 1))

    def test_distinct_objective_prefers_new_action(self):
        # Stage 2 candidates: repeat 0 gains 0, fresh 1 gains 1.
        trace = greedy_string(distinct_objective(), 2)
        assert trace.string == (0, 1)
        assert trace.prefix_values == (1.0, 2.0)
        assert trace.tie_sets[1] == (1,)

    def test_single_stage_is_exhaustive(self):
        f = table_objective({(0,): 0.5, (1,): 2.0, (2,): 1.0}, ground_size=3, horizon=1)
        trace = greedy_string(f, 1)
        assert trace.string == (1,)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            greedy_string(length_objective(), 0)
        with pytest.raises(ValueError):
            StringObjective(evaluate=lambda s: float(len(s)), ground_size=0, horizon=2)

    def test_deterministic_trace(self):
        f = distinct_objective(3, 3)
        assert greedy_string(f, 3) == greedy_string(f, 3)


class TestBruteForce:
    def test_length_objective(self):
        assert optimal_string_bruteforce(length_objective(), 2) == ((0, 0), 2.0)

    def test_distinct_objective(self):
        # All four length-2 strings evaluate to 1, 2, 2, 1.
        f = distinct_objective()
        values = [f.evaluate(s) for s in itertools.product(range(2), repeat=2)]
        assert values == [1.0, 2.0, 2.0, 1.0]
        assert optimal_string_bruteforce(f, 2) == ((0, 1), 2.0)

    def test_budget_error_reports_required_count(self):
        with pytest.raises(BudgetExceededError) as err:
            optimal_string_bruteforce(distinct_objective(2, 8), 8, budget=100)
        assert err.value.required == 2**8

    def test_never_below_greedy(self):
        for ground, horizon in [(2, 3), (3, 2), (3, 3)]:
            f = distinct_objective(ground, horizon)
            _, best = optimal_string_bruteforce(f, horizon)
            assert best >= greedy_string(f, horizon).prefix_values[-1]


class TestPropertyChecks:
    def test_length_monotone(self):
        # Every extension by one action gains exactly 1.
        assert check_prefix_monotone(length_objective(), 3) == (True, None, 1.0)

    def test_distinct_monotone(self):
        # Repeating an action gains nothing.
        assert check_prefix_monotone(distinct_objective(), 3) == (True, None, 0.0)

    def test_monotonicity_witness(self):
        f = table_objective(
            {(0,): 1.0, (1,): 0.2, (0, 0): 1.5, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5},
            2,
            2,
        )
        ok, witness, worst_slack = check_prefix_monotone(f, 2)
        assert not ok
        assert witness == ((0,), (0, 1))
        assert worst_slack == 0.5 - 1.0

    def test_diminishing_return_cases(self):
        assert check_diminishing_return(distinct_objective(), 3)[0]
        assert check_diminishing_return(length_objective(), 3)[0]
        quadratic = StringObjective(
            evaluate=lambda s: float(len(s) ** 2), ground_size=2, horizon=3
        )
        ok, witness = check_diminishing_return(quadratic, 3)
        assert not ok
        assert witness is not None


class TestCurvatures:
    def test_length_objective_eta_zero(self):
        f = length_objective()
        trace = greedy_string(f, 2)
        eta, skipped = total_curvature_eta(f, trace, 2)
        assert eta == 0.0
        assert skipped == 0

    def test_distinct_objective_eta_terms(self):
        # At the only split stage the four candidate strings contribute
        # terms 1, 0, 2, -1 (enumerated by direct substitution below).
        f = distinct_objective()
        trace = greedy_string(f, 2)
        head = trace.string[:1]
        terms = []
        for candidate in itertools.product(range(2), repeat=2):
            spliced = f.evaluate(head + candidate[1:])
            terms.append(2.0 * (1.0 - (spliced - 0.5 * f.evaluate(candidate)) / 1.0))
        assert terms == [1.0, 0.0, 2.0, -1.0]
        eta, skipped = total_curvature_eta(f, trace, 2)
        assert eta == 2.0
        assert skipped == 0

    def test_sigma_zero_for_diminishing_returns(self):
        for f in (length_objective(), distinct_objective()):
            trace = greedy_string(f, 3)
            sigma, _ = forward_curvature_sigma(f, trace, 3)
            assert abs(sigma) <= 1e-12

    def test_all_zero_objective_is_undefined(self):
        f = StringObjective(evaluate=lambda s: 0.0, ground_size=2, horizon=2)
        trace = greedy_string(f, 2)
        with pytest.raises(UndefinedCurvatureError):
            total_curvature_eta(f, trace, 2)
        with pytest.raises(UndefinedCurvatureError):
            forward_curvature_sigma(f, trace, 2)

    def test_nonnegative_when_continuations_are_bounded(self):
        # Whenever every spliced continuation gains at most its proportional
        # share of the optimum, the total curvature cannot be negative.
        for seed in range(6):
            f = _monotone_instance(seed)
            horizon = f.horizon
            trace = greedy_string(f, horizon)
            _, optimal = optimal_string_bruteforce(f, horizon)
            condition = all(
                f.evaluate(trace.string[:i] + m[i:]) - f.evaluate(trace.string[:i])
                <= (horizon - i) / horizon * optimal + 1e-12
                for i in range(1, horizon)
                for m in itertools.product(range(f.ground_size), repeat=horizon)
            )
            if condition:
                try:
                    eta, _ = total_curvature_eta(f, trace, horizon)
                except UndefinedCurvatureError:
                    continue
                assert eta >= -1e-12


def _monotone_instance(seed: int) -> StringObjective:
    from adpbound import GeneratedInstanceSpec, generate_string_instances

    spec = GeneratedInstanceSpec(
        kind="random_monotone_marginals", count=1, seed=seed, ground_size=2, horizon=3
    )
    return generate_string_instances(spec)[0]


class TestBounds:
    def test_closed_form_values(self):
        assert curvature_bound(1.0, 0.0, 2) == 0.75
        assert curvature_bound(0.5, 0.0, 2) == 0.875
        assert curvature_bound(0.0, 0.25, 7) == 0.75

    def test_classic_uniform_bound(self):
        for K in range(1, 11):
            assert curvature_bound(1.0, 0.0, K) == 1.0 - (1.0 - 1.0 / K) ** K
        assert abs(asymptotic_curvature_bound(1.0, 0.0) - (1.0 - math.exp(-1.0))) <= 1e-15

    def test_asymptotic_values(self):
        assert asymptotic_curvature_bound(0.0, 0.0) == 1.0
        assert abs(asymptotic_curvature_bound(2.0, 0.0) - (1.0 - math.exp(-2.0)) / 2.0) <= 1e-15

    @given(
        eta=st.floats(1e-6, 3.0, allow_nan=False),
        sigma=st.floats(0.0, 1.0, allow_nan=False),
        horizon=st.integers(1, 20),
    )
    @settings(max_examples=200)
    def test_ordering_on_realizable_triples(self, eta, sigma, horizon):
        # Realizable instances satisfy eta * (1 - sigma) <= K, and on that
        # domain the finite-horizon bound decreases toward the asymptote.
        # Evaluating 1 - (1 - x)^K / eta cancels catastrophically as eta -> 0,
        # so the comparison slack must absorb ~K*eps/eta of formula noise.
        if eta * (1.0 - sigma) > horizon:
            return
        tol = 1e-12 + 64.0 * (horizon + 1) * 2.3e-16 / eta
        here = curvature_bound(eta, sigma, horizon)
        assert here >= curvature_bound(eta, sigma, horizon + 1) - tol
        assert here >= asymptotic_curvature_bound(eta, sigma) - tol


class TestGuaranteeReport:
    def test_length_objective_equality_case(self):
        report = greedy_guarantee_report(length_objective(), 2)
        assert report.ratio == 1.0
        assert report.bound_finite_K == 1.0
        assert report.prefix_monotone and report.diminishing_return
        assert not report.eta_nonpositive

    def test_distinct_objective(self):
        report = greedy_guarantee_report(distinct_objective(), 2)
        assert report.eta == 2.0
        assert abs(report.sigma) <= 1e-12
        assert report.bound_finite_K == 0.5
        assert report.ratio == 1.0

    def test_zero_objective_flags(self):
        f = StringObjective(evaluate=lambda s: 0.0, ground_size=2, horizon=2)
        report = greedy_guarantee_report(f, 2)
        assert report.ratio == 1.0
        assert "degenerate_zero_optimum" in report.flags
        assert "eta_undefined" in report.flags
        assert "sigma_undefined" in report.flags
        assert math.isnan(report.bound_finite_K)

    def test_single_stage_horizon(self):
        report = greedy_guarantee_report(distinct_objective(2, 1), 1)
        assert report.ratio == 1.0
        assert "eta_undefined" in report.flags
        assert report.bound_finite_K == 1.0 - report.sigma

    def test_prefix_values_nondecreasing_when_monotone(self, string_sweep):
        for _, horizon, objective in string_sweep[:20]:
            values = greedy_string(objective, horizon).prefix_values
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestRecursionChecks:
    def test_distinct_objective_first_stage_tight(self):
        checks = greedy_recursion_checks(distinct_objective(), 2)
        first = checks[0]
        assert first.label == "first_stage_share"
        # f(G_1) = 1 and the share of the optimum is (1/2) * 2 = 1.
        assert first.lhs == 1.0
        assert abs(first.slack) <= 1e-12
        assert first.satisfied

    def test_length_objective_three_stages(self):
        checks = greedy_recursion_checks(length_objective(2, 3), 3)
        assert {c.label for c in checks} == {
            "first_stage_share",
            "stage_recursion",
            "chained_recursion",
        }
        for check in checks:
            assert abs(check.slack) <= 1e-12
            assert check.satisfied


@given(data=st.data())
@settings(max_examples=30)
def test_random_monotone_tables_obey_guarantee(data):
    ground = data.draw(st.integers(2, 3), label="ground")
    horizon = data.draw(st.integers(2, 3), label="horizon")
    values: dict[tuple[int, ...], float] = {(): 0.0}
    frontier = [()]
    for _ in range(horizon):
        frontier = [
            prefix + (a,) for prefix in frontier for a in range(ground)
        ]
        for string in frontier:
            gain = data.draw(st.floats(0.0, 1.0, allow_nan=False), label=f"gain{string}")
            values[string] = values[string[:-1]] + gain
    f = StringObjective(
        evaluate=lambda s: values[tuple(s)], ground_size=ground, horizon=horizon
    )
    # greedy_guarantee_report raises GuaranteeViolationError on failure.
    report = greedy_guarantee_report(f, horizon)
    assert report.prefix_monotone
    if not math.isnan(report.sigma):
        assert -1e-12 <= report.sigma <= 1.0 + 1e-12
    if not math.isnan(report.eta) and not math.isnan(report.sigma):
        for check in greedy_recursion_checks(f, horizon):
            assert check.slack >= -1e-12
