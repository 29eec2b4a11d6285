"""Greedy string optimization with curvature-based performance guarantees.

A string objective maps ordered action sequences to values, with the empty
string worth 0.  This module provides the greedy and brute-force-optimal
strategies over a fixed horizon, exhaustive checkers for the prefix-monotone
and diminishing-return properties, two curvature statistics measured along the
greedy trajectory, and the closed-form lower bound on the greedy/optimal value
ratio that those curvatures certify.

Everything here is exhaustive and deterministic: argmax ties break toward the
smallest action index and enumerations run in lexicographic order.

The enumerations read value tables, one numpy array of shape ``(m,) * n``
per string length ``n``, and compute each quantity as elementwise
expressions and reductions over those tables.  An objective built by
:func:`table_objective` (the generated table objectives are) hands its
levels over as they are; a callable objective is evaluated once per string
to fill them.  The budget counts those strings and is checked before the
first one is read, whichever way the tables are filled: a function that
tabulates lengths 0..K needs sum_{n<=K} m^n, one that reads length K only
(the brute-force optimum and the total curvature) needs m^K.  A non-finite
value, carried or returned, raises the same ``ValueError``.  One stage-wise
argmax reads each stage's m candidates once: from the callable in
:func:`greedy_string` (m * K evaluations) and the surrogate's Theorem 2
check, and from table rows in the guarantee report.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .common import (
    DEFAULT_BUDGET,
    DENOM_TOL,
    ETA_ZERO_TOL,
    VALUE_TOL,
    GuaranteeViolationError,
    UndefinedCurvatureError,
    ensure_budget,
    strings_up_to,
    table_tol,
)

ActionString = tuple[int, ...]

__all__ = [
    "ActionString",
    "StringObjective",
    "table_objective",
    "GreedyTrace",
    "CurvatureReport",
    "greedy_string",
    "optimal_string_bruteforce",
    "check_prefix_monotone",
    "check_diminishing_return",
    "total_curvature_eta",
    "forward_curvature_sigma",
    "curvature_bound",
    "asymptotic_curvature_bound",
    "greedy_guarantee_report",
]


@dataclass(frozen=True)
class StringObjective:
    """A deterministic objective over action strings with a fixed ground set.

    ``evaluate`` must map any tuple of action indices (below ``ground_size``)
    to a value, return 0 for the empty string, and be deterministic.
    ``horizon`` records the intended maximum string length.

    ``tables`` is None for a callable objective.  One built by
    :func:`table_objective` carries the levels its ``evaluate`` looks values
    up in, and the enumerations read those levels instead of calling
    ``evaluate`` once per string.  ``tables`` is not a field, so it takes no
    part in construction, equality or repr.
    """

    evaluate: Callable[[ActionString], float]
    ground_size: int
    horizon: int
    tables: ClassVar[Optional[tuple[np.ndarray, ...]]] = None

    def __post_init__(self) -> None:
        if self.ground_size < 1:
            raise ValueError("ground set must contain at least one action")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        empty = float(self.evaluate(()))
        if empty != 0.0:
            raise ValueError(f"objective must map the empty string to 0, got {empty}")


def table_objective(levels: Sequence[np.ndarray]) -> StringObjective:
    """The string objective whose values are ``levels``, one per length 0..K.

    Level ``n`` holds f on every string of length ``n``, shape ``(m,) * n``;
    K and m are read off the levels.  There must be at least two levels,
    every value must be finite and level 0 must be 0.  The levels are marked
    read-only in place and carried without a copy as ``tables``.
    ``evaluate`` looks a string up in them and raises ``ValueError`` for a
    string longer than K or an action outside 0..m-1, which numpy would
    otherwise wrap around.
    """
    levels = tuple(np.asarray(level, dtype=float) for level in levels)
    if len(levels) < 2:
        raise ValueError(f"tables need at least two levels, got {len(levels)}")
    horizon = len(levels) - 1
    ground_size = levels[1].shape[0] if levels[1].ndim else 0
    for length, level in enumerate(levels):
        if level.shape != (ground_size,) * length:
            raise ValueError(f"table level {length} has shape {level.shape}")
        _finite(level)
    for level in levels:
        level.setflags(write=False)

    def evaluate(string: ActionString) -> float:
        string = tuple(string)
        if len(string) > horizon or not all(0 <= a < ground_size for a in string):
            raise ValueError(f"string {string!r} is not in the table")
        return float(levels[len(string)][string])

    # The empty-string check of the constructor reads level 0.
    f = StringObjective(evaluate=evaluate, ground_size=ground_size, horizon=horizon)
    object.__setattr__(f, "tables", levels)
    return f


@dataclass(frozen=True)
class GreedyTrace:
    """Greedy strategy of length K plus the evidence gathered while building it.

    ``prefix_values[i]`` is the objective value of the first ``i + 1`` greedy
    actions.  ``tie_sets[i]`` lists every action achieving the stage maximum;
    unless the caller named the string, the chosen action is its smallest
    member.
    """

    string: ActionString
    prefix_values: tuple[float, ...]
    tie_sets: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CurvatureReport:
    """Everything the greedy-ratio guarantee produces for one objective.

    ``bound_finite_K`` is the horizon-K guarantee and ``bound_asymptotic`` its
    large-horizon limit; both are NaN when the underlying curvature maximum
    had no valid terms (see ``flags``).  ``ratio`` is greedy/optimal; a zero
    optimum is flagged and gives 1 when the greedy value is 0 too, NaN
    otherwise.  ``worst_slack`` is the minimum of f(s) - f(prefix) over every
    string and prefix, the margin by which ``prefix_monotone`` holds or fails.
    """

    eta: float
    sigma: float
    bound_finite_K: float
    bound_asymptotic: float
    greedy_value: float
    optimal_value: float
    ratio: float
    prefix_monotone: bool
    worst_slack: float
    diminishing_return: bool
    eta_nonpositive: bool
    skipped_terms: int
    flags: tuple[str, ...]


def _greedy(
    children: Callable[[ActionString], Sequence[float]],
    horizon: int,
    chosen: Optional[ActionString] = None,
) -> tuple[GreedyTrace, tuple[float, ...]]:
    """The stage-wise argmax over ``children(prefix)``, f(prefix + (a,)) for every action a.

    Each stage reads its candidates once.  ``chosen`` replaces the
    smallest-index pick at every stage when given.  Returns the trace and
    the stage maxima; a value that is not finite raises ``ValueError``.
    """
    string: ActionString = ()
    prefix_values: list[float] = []
    tie_sets: list[tuple[int, ...]] = []
    maxima: list[float] = []
    for stage in range(horizon):
        values = [float(value) for value in children(string)]
        for action, value in enumerate(values):
            if not math.isfinite(value):
                raise ValueError(f"objective value {value} at {string + (action,)!r} is not finite")
        best = max(values)
        ties = tuple(action for action, value in enumerate(values) if value == best)
        action = ties[0] if chosen is None else chosen[stage]
        string = string + (action,)
        prefix_values.append(values[action])
        tie_sets.append(ties)
        maxima.append(best)
    trace = GreedyTrace(string=string, prefix_values=tuple(prefix_values), tie_sets=tuple(tie_sets))
    return trace, tuple(maxima)


def greedy_string(f: StringObjective, horizon: int) -> GreedyTrace:
    """Build the greedy strategy of length ``horizon``.

    Stage ``i`` appends the action maximizing the objective of the extended
    prefix; ties break toward the smallest action index and the full tie set
    is recorded.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    m = f.ground_size
    trace, _ = _greedy(lambda prefix: [f.evaluate(prefix + (a,)) for a in range(m)], horizon)
    return trace


def _level(f: StringObjective, length: int, budget: int) -> np.ndarray:
    """``f`` on every string of ``length``: the carried level, or evaluated in
    lexicographic order.

    The result has shape ``(m,) * length``: entry ``s`` holds f(s).
    """
    m = f.ground_size
    count = m**length
    ensure_budget(count, budget, "string tabulation")
    if f.tables is not None and length <= f.horizon:
        return f.tables[length]
    strings = itertools.product(range(m), repeat=length)
    values = np.fromiter((float(f.evaluate(s)) for s in strings), dtype=float, count=count)
    return _finite(values.reshape((m,) * length))


def _tables(f: StringObjective, horizon: int, budget: int) -> list[np.ndarray]:
    """Value tables of every length 0..horizon; each string is evaluated once."""
    ensure_budget(strings_up_to(f.ground_size, horizon), budget, "string tabulation")
    return [_level(f, length, budget) for length in range(horizon + 1)]


def _expand(values: np.ndarray, lead: int, extra: int) -> np.ndarray:
    """Insert ``extra`` unit axes after the first ``lead`` axes, for broadcasting.

    A table indexed by a prefix then lines up with a table indexed by its
    extensions: the inserted axes stand for the appended actions.
    """
    shape = np.shape(values)
    return np.reshape(values, shape[:lead] + (1,) * extra + shape[lead:])


def _string_at(flat_index: int, shape: tuple[int, ...]) -> ActionString:
    return tuple(int(a) for a in np.unravel_index(flat_index, shape))


def _first(mask: np.ndarray) -> Optional[ActionString]:
    """Lexicographically first index at which ``mask`` holds, if any."""
    flat = mask.ravel()
    if not flat.any():
        return None
    return _string_at(int(np.argmax(flat)), mask.shape)


def _finite(values: np.ndarray) -> np.ndarray:
    """``values``, once no value is NaN or infinite; else ``ValueError`` naming the first."""
    string = _first(~np.isfinite(values))
    if string is not None:
        raise ValueError(f"objective value {values[string]} at {string!r} is not finite")
    return values


def _bruteforce(full: np.ndarray) -> tuple[ActionString, float]:
    # argmax returns the first maximum, which is the lexicographic tie-break.
    index = int(np.argmax(full))
    return _string_at(index, full.shape), float(full.flat[index])


def optimal_string_bruteforce(
    f: StringObjective, horizon: int, budget: int = DEFAULT_BUDGET
) -> tuple[ActionString, float]:
    """Exhaustively maximize ``f`` over strings of length exactly ``horizon``.

    Ties break lexicographically.  Restricting to full-length strings loses
    nothing for prefix-monotone objectives; diagnostics on other objectives
    should note the restriction.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    return _bruteforce(_level(f, horizon, budget))


def _prefix_monotone(
    tables: list[np.ndarray],
) -> tuple[bool, Optional[tuple[ActionString, ActionString]], float]:
    witness: Optional[tuple[ActionString, ActionString]] = None
    worst = math.inf
    tol = table_tol(VALUE_TOL, tables)
    for length in range(1, len(tables)):
        # first_cut[s]: the shortest prefix that string s is worth less than, or length.
        first_cut = np.full(np.shape(tables[length]), length)
        for cut in reversed(range(length)):
            # slack[s] = f(s) - f(s[:cut]), what extending the prefix of length cut to s gains.
            slack = tables[length] - _expand(tables[cut], cut, length - cut)
            worst = min(worst, float(slack.min()))
            first_cut[slack < -tol] = cut
        string = _first(first_cut < length) if witness is None else None
        if string is not None:
            witness = (string[: first_cut[string]], string)
    return witness is None, witness, worst


def check_prefix_monotone(
    f: StringObjective,
    horizon: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[bool, Optional[tuple[ActionString, ActionString]], float]:
    """Exhaustively test whether extending any string can lower the objective.

    Checks every pair (prefix, string) with string length up to ``horizon``,
    including the empty prefix (so nonnegativity is covered): the slack
    f(string) - f(prefix) must not fall below ``-VALUE_TOL``, scaled to the
    values by :func:`~adpbound.common.table_tol`.  Returns
    ``(ok, witness, worst_slack)``: the witness is the first violating pair,
    ordered by string length, then string, then prefix length, or None;
    ``worst_slack`` is the minimum slack over every pair.
    """
    return _prefix_monotone(_tables(f, horizon, budget))


def _diminishing_return(
    tables: list[np.ndarray],
) -> tuple[bool, Optional[tuple[ActionString, ActionString, int]]]:
    # gains[n][s + (a,)] = f(s + (a,)) - f(s) for every string s of length n.
    gains = [tables[n + 1] - _expand(tables[n], n, 1) for n in range(len(tables) - 1)]
    tol = table_tol(VALUE_TOL, tables)
    for length in range(1, len(gains)):
        limit = gains[length] - tol
        # Axes of violated: prefix length cut, the longer string, the action.
        violated = np.stack(
            [_expand(gains[cut], cut, length - cut) < limit for cut in range(length)]
        )
        longer = _first(violated.any(axis=(0, -1)))
        if longer is not None:
            at_longer = violated[(slice(None),) + longer]
            cut, action = divmod(int(np.argmax(at_longer)), at_longer.shape[1])
            return False, (longer[:cut], longer, action)
    return True, None


def check_diminishing_return(
    f: StringObjective,
    horizon: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[bool, Optional[tuple[ActionString, ActionString, int]]]:
    """Exhaustively test whether marginal gains can grow along prefix extensions.

    For every prefix pair M of N with |N| <= horizon - 1 and every action a,
    requires gain of a at M >= gain of a at N, up to ``VALUE_TOL`` scaled to
    the values by :func:`~adpbound.common.table_tol`.  Returns a witness (M, N, a)
    on failure, the first by length of N, then N, then length of M, then a.
    """
    return _diminishing_return(_tables(f, horizon, budget))


def _eta(full: np.ndarray, trace: GreedyTrace, horizon: int) -> tuple[float, int]:
    if horizon < 2:
        raise UndefinedCurvatureError("total curvature has no terms for a single-stage horizon")
    best = -math.inf
    skipped = 0
    for i in range(1, horizon):
        denom = trace.prefix_values[i - 1]
        if denom <= 0.0:
            skipped += full.size
            continue
        # spliced[M] = f((G_{1:i}, M_{i+1:K})) for every full-length string M.
        spliced = _expand(full[trace.string[:i]], 0, i)
        scale = horizon / (horizon - i)
        frac = (horizon - i) / horizon
        terms = scale * (1.0 - (spliced - frac * full) / denom)
        best = max(best, float(terms.max()))
    if best == -math.inf:
        raise UndefinedCurvatureError("every total-curvature term was skipped", skipped)
    return best, skipped


def total_curvature_eta(
    f: StringObjective,
    greedy: GreedyTrace,
    horizon: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[float, int]:
    """Worst-case total curvature of ``f`` along the greedy trajectory.

    Maximizes, over every full-length string M and every split stage i, the
    normalized shortfall of the spliced value f((G_{1:i}, M_{i+1:K})) against
    the proportional share of f(M), measured relative to f(G_{1:i}).  Splits
    whose greedy prefix value is not strictly positive are skipped and
    counted; if nothing survives the curvature is undefined.
    """
    return _eta(_level(f, horizon, budget), greedy, horizon)


def _sigma(tables: list[np.ndarray], trace: GreedyTrace, horizon: int) -> tuple[float, int]:
    best = -math.inf
    skipped = 0
    threshold = table_tol(DENOM_TOL, tables)
    for i in range(horizon):
        head = trace.string[:i]
        # gain[a] = f(G_{1:i} + (a,)) - f(G_{1:i}), the one-step gain of action a.
        gain = tables[i + 1][head] - tables[i][head]
        for j in range(i + 1, horizon + 1):
            # denom[b] = f(G_{1:i} + b) - f(G_{1:i} + b[:-1]) for every block b of length j - i.
            denom = tables[j][head] - _expand(tables[j - 1][head], j - i - 1, 1)
            kept = ~(denom <= threshold)
            skipped += denom.size - int(kept.sum())
            terms = 1.0 - np.broadcast_to(gain, denom.shape)[kept] / denom[kept]
            if terms.size:
                best = max(best, float(terms.max()))
    if best == -math.inf:
        raise UndefinedCurvatureError("every forward-curvature term was skipped", skipped)
    return best, skipped


def forward_curvature_sigma(
    f: StringObjective,
    greedy: GreedyTrace,
    horizon: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[float, int]:
    """Worst-case forward curvature of ``f`` along the greedy trajectory.

    For every greedy prefix G_{1:i}, block of appended actions, and block
    length, compares the one-step gain of the block's last action against the
    block's final marginal gain.  Terms whose denominator is at most
    ``DENOM_TOL``, scaled to the values by :func:`~adpbound.common.table_tol`,
    are skipped and counted.
    """
    # The subtree under the empty greedy prefix is every string up to the horizon.
    return _sigma(_tables(f, horizon, budget), greedy, horizon)


def curvature_bound(eta: float, sigma: float, horizon: int) -> float:
    """Finite-horizon guarantee on greedy/optimal implied by the curvatures.

    Evaluates (1/eta) * (1 - (1 - eta*(1-sigma)/K)^K).  Near eta = 0 the
    formula degenerates numerically, so values with |eta| <= 1e-9 return the
    analytic limit 1 - sigma.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if abs(eta) <= ETA_ZERO_TOL:
        return 1.0 - sigma
    base = 1.0 - eta * (1.0 - sigma) / horizon
    try:
        power = base**horizon
    except OverflowError:
        # Diagnostic inputs far outside the certified domain; keep the sign.
        power = math.inf if base > 0 or horizon % 2 == 0 else -math.inf
    return (1.0 - power) / eta


def asymptotic_curvature_bound(eta: float, sigma: float) -> float:
    """Large-horizon limit of :func:`curvature_bound`, (1 - e^{-eta(1-sigma)})/eta."""
    if abs(eta) <= ETA_ZERO_TOL:
        return 1.0 - sigma
    try:
        decayed = math.exp(-eta * (1.0 - sigma))
    except OverflowError:
        decayed = math.inf
    return (1.0 - decayed) / eta


def _ratio(value: float, optimal_value: float, flags: list[str]) -> float:
    """``value / optimal_value``, the achieved fraction of the optimum.

    A zero optimum appends ``degenerate_zero_optimum`` to ``flags`` (once) and
    gives 1 when ``value`` is 0 too, and NaN otherwise.
    """
    if optimal_value != 0.0:
        return value / optimal_value
    if "degenerate_zero_optimum" not in flags:
        flags.append("degenerate_zero_optimum")
    return 1.0 if value == 0.0 else math.nan


def greedy_guarantee_report(
    f: StringObjective,
    horizon: int,
    budget: int = DEFAULT_BUDGET,
    greedy: Optional[ActionString] = None,
) -> CurvatureReport:
    """Run the full guarantee pipeline on one objective and certify the result.

    Computes the greedy strategy, the brute-force optimum, both structural
    property checks, both curvatures, and both bounds.  Whenever the objective
    is prefix-monotone and the curvatures are defined, the achieved ratio is
    asserted against the finite-horizon bound (tolerance 1e-12); a violation
    raises :class:`GuaranteeViolationError` because the bound is proven.

    ``greedy`` names the greedy string to certify, for callers whose greedy
    strategy breaks ties its own way; the curvatures are measured along it.
    It must pick a stage maximum at every stage, which is not checked here.
    By default the smallest-index greedy string is certified.

    ``f`` is evaluated exactly once on every string of length 0..``horizon``,
    sum_{n<=horizon} m^n strings, and all phases read those values; that count
    is checked against the budget before the first evaluation.
    """
    m = f.ground_size
    if greedy is not None and (
        len(greedy) != horizon or not all(0 <= a < m for a in greedy)
    ):
        raise ValueError(f"greedy string {greedy!r} is not {horizon} actions below {m}")
    tables = _tables(f, horizon, budget)
    trace, _ = _greedy(lambda prefix: tables[len(prefix) + 1][prefix], horizon, greedy)
    _, optimal_value = _bruteforce(tables[horizon])
    greedy_value = trace.prefix_values[-1]

    monotone, _, worst_slack = _prefix_monotone(tables)
    diminishing, _ = _diminishing_return(tables)

    flags: list[str] = []

    def measured(name, curvature, *args) -> tuple[float, int]:
        # An undefined curvature is NaN and a flag; its skipped terms still count.
        try:
            return curvature(*args)
        except UndefinedCurvatureError as exc:
            flags.append(f"{name}_undefined")
            return math.nan, exc.skipped

    eta, eta_skipped = measured("eta", _eta, tables[horizon], trace, horizon)
    sigma, sigma_skipped = measured("sigma", _sigma, tables, trace, horizon)
    skipped = eta_skipped + sigma_skipped

    eta_defined = not math.isnan(eta)
    sigma_defined = not math.isnan(sigma)
    eta_nonpositive = eta_defined and eta <= -ETA_ZERO_TOL
    if eta_nonpositive:
        flags.append("eta_nonpositive")

    if eta_defined and sigma_defined:
        bound_finite = curvature_bound(eta, sigma, horizon)
        bound_asymptotic = asymptotic_curvature_bound(eta, sigma)
    elif horizon == 1 and sigma_defined:
        # The horizon-1 bound is (1 - sigma) for every eta, so it survives
        # the empty total-curvature maximum.
        bound_finite = 1.0 - sigma
        bound_asymptotic = math.nan
    else:
        bound_finite = math.nan
        bound_asymptotic = math.nan

    ratio = _ratio(greedy_value, optimal_value, flags)

    if monotone and not math.isnan(bound_finite) and ratio < bound_finite - VALUE_TOL:
        raise GuaranteeViolationError(
            f"greedy/optimal ratio {ratio!r} fell below the certified bound {bound_finite!r}"
        )

    return CurvatureReport(
        eta=eta,
        sigma=sigma,
        bound_finite_K=bound_finite,
        bound_asymptotic=bound_asymptotic,
        greedy_value=greedy_value,
        optimal_value=optimal_value,
        ratio=ratio,
        prefix_monotone=monotone,
        worst_slack=worst_slack,
        diminishing_return=diminishing,
        eta_nonpositive=eta_nonpositive,
        skipped_terms=skipped,
        flags=tuple(flags),
    )
