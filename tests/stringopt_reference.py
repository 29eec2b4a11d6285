"""Loop implementations of the exhaustive string enumerations, kept as the reference.

``adpbound.stringopt`` computes these quantities as reductions over per-length
value tables.  The functions here walk the same strings one at a time through
a memoized callable, in lexicographic order, with the same formulas in the
same order of operations, so the table code must agree with them exactly:
values, witnesses, tie sets and skipped-term counts.

:func:`recursion_checks` keeps the proof's stage inequalities, which the
library does not compute: it checks them against the values the guarantee
report returns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from adpbound import GreedyTrace, StringObjective, UndefinedCurvatureError
from adpbound.common import VALUE_TOL
from adpbound.stringopt import CurvatureReport

ActionString = tuple[int, ...]


def cached_evaluator(objective: StringObjective) -> Callable[[ActionString], float]:
    memo: dict[ActionString, float] = {}
    raw = objective.evaluate

    def evaluate(string: ActionString) -> float:
        value = memo.get(string)
        if value is None:
            value = float(raw(string))
            memo[string] = value
        return value

    return evaluate


def greedy(f: StringObjective, horizon: int) -> GreedyTrace:
    ev = cached_evaluator(f)
    string: ActionString = ()
    prefix_values: list[float] = []
    tie_sets: list[tuple[int, ...]] = []
    for _ in range(horizon):
        best_value: Optional[float] = None
        for action in range(f.ground_size):
            value = ev(string + (action,))
            if best_value is None or value > best_value:
                best_value = value
        ties = tuple(
            action for action in range(f.ground_size) if ev(string + (action,)) == best_value
        )
        string = string + (ties[0],)
        prefix_values.append(ev(string))
        tie_sets.append(ties)
    return GreedyTrace(string=string, prefix_values=tuple(prefix_values), tie_sets=tuple(tie_sets))


def bruteforce(f: StringObjective, horizon: int) -> tuple[ActionString, float]:
    ev = cached_evaluator(f)
    best_string: Optional[ActionString] = None
    best_value = -math.inf
    for candidate in itertools.product(range(f.ground_size), repeat=horizon):
        value = ev(candidate)
        if value > best_value:
            best_string = candidate
            best_value = value
    assert best_string is not None
    return best_string, best_value


def table_tol(f: StringObjective, horizon: int, tol: float) -> float:
    """``tol`` times max(1, largest |f| over every string of length 0..horizon)."""
    ev = cached_evaluator(f)
    scale = max(
        abs(ev(string))
        for length in range(horizon + 1)
        for string in itertools.product(range(f.ground_size), repeat=length)
    )
    return tol * max(1.0, scale)


def prefix_monotone(
    f: StringObjective, horizon: int, tol: float
) -> tuple[bool, Optional[tuple[ActionString, ActionString]], float]:
    ev = cached_evaluator(f)
    witness: Optional[tuple[ActionString, ActionString]] = None
    worst = math.inf
    for length in range(1, horizon + 1):
        for string in itertools.product(range(f.ground_size), repeat=length):
            value = ev(string)
            for cut in range(len(string)):
                prefix = string[:cut]
                slack = value - ev(prefix)
                worst = min(worst, slack)
                if witness is None and slack < -tol:
                    witness = (prefix, string)
    return witness is None, witness, worst


def diminishing_return(
    f: StringObjective, horizon: int, tol: float
) -> tuple[bool, Optional[tuple[ActionString, ActionString, int]]]:
    ev = cached_evaluator(f)
    m = f.ground_size
    for length in range(horizon):
        for longer in itertools.product(range(m), repeat=length):
            gain_long = [ev(longer + (a,)) - ev(longer) for a in range(m)]
            for cut in range(length):
                shorter = longer[:cut]
                for action in range(m):
                    if ev(shorter + (action,)) - ev(shorter) < gain_long[action] - tol:
                        return False, (shorter, longer, action)
    return True, None


def eta(f: StringObjective, trace: GreedyTrace, horizon: int) -> tuple[float, int]:
    if horizon < 2:
        raise UndefinedCurvatureError("total curvature has no terms for a single-stage horizon")
    ev = cached_evaluator(f)
    full_strings = list(itertools.product(range(f.ground_size), repeat=horizon))
    full_values = [ev(s) for s in full_strings]
    best = -math.inf
    skipped = 0
    for i in range(1, horizon):
        denom = trace.prefix_values[i - 1]
        if denom <= 0.0:
            skipped += len(full_strings)
            continue
        head = trace.string[:i]
        scale = horizon / (horizon - i)
        frac = (horizon - i) / horizon
        for string, value in zip(full_strings, full_values):
            spliced = ev(head + string[i:])
            term = scale * (1.0 - (spliced - frac * value) / denom)
            if term > best:
                best = term
    if best == -math.inf:
        raise UndefinedCurvatureError("every total-curvature term was skipped")
    return best, skipped


def sigma(f: StringObjective, trace: GreedyTrace, horizon: int, tol: float) -> tuple[float, int]:
    ev = cached_evaluator(f)
    best = -math.inf
    skipped = 0
    for i in range(horizon):
        head = trace.string[:i]
        base = ev(head)
        for j in range(i + 1, horizon + 1):
            for block in itertools.product(range(f.ground_size), repeat=j - i):
                denom = ev(head + block) - ev(head + block[:-1])
                if denom <= tol:
                    skipped += 1
                    continue
                numer = ev(head + (block[-1],)) - base
                term = 1.0 - numer / denom
                if term > best:
                    best = term
    if best == -math.inf:
        raise UndefinedCurvatureError("every forward-curvature term was skipped")
    return best, skipped


@dataclass(frozen=True)
class InequalityCheck:
    """One stage inequality of the guarantee's proof: ``lhs >= rhs`` up to the tolerance."""

    label: str
    stage: Optional[int]
    lhs: float
    rhs: float
    slack: float
    satisfied: bool


def recursion_checks(
    f: StringObjective, horizon: int, report: CurvatureReport
) -> tuple[InequalityCheck, ...]:
    """The inequalities that chain greedy prefix values to the optimum.

    Three families, read along the smallest-index greedy trace with the eta,
    sigma and optimum of ``report``: the first greedy value against its share
    of the optimum, the stage recursion linking consecutive greedy prefixes,
    and the fully chained consequence of that recursion.  For a
    prefix-monotone objective every slack is at least ``-VALUE_TOL`` scaled
    by :func:`table_tol`, so a violation points at an implementation bug
    rather than at the instance.  A single stage has no total curvature and
    takes eta = 0; otherwise both curvatures must be defined.
    """
    eta = report.eta if horizon >= 2 else 0.0
    if math.isnan(eta) or math.isnan(report.sigma):
        raise UndefinedCurvatureError("the stage inequalities need both curvatures")
    values = greedy(f, horizon).prefix_values
    optimum = report.optimal_value
    tol = table_tol(f, horizon, VALUE_TOL)
    share = (1.0 - report.sigma) / horizon
    decay = 1.0 - eta * share

    sides = [("first_stage_share", None, values[0], share * optimum)]
    for i in range(1, horizon):
        sides.append(("stage_recursion", i, values[i], share * optimum + decay * values[i - 1]))
    chained = 0.0
    for t in range(horizon - 1):
        chained += decay**t * share * optimum
    chained += decay ** (horizon - 1) * values[0]
    sides.append(("chained_recursion", None, values[-1], chained))
    return tuple(
        InequalityCheck(label, stage, lhs, rhs, lhs - rhs, lhs - rhs >= -tol)
        for label, stage, lhs, rhs in sides
    )
