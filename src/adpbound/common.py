"""Shared constants and exception types used across the library."""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Strings, or noise paths, one exhaustive enumeration may evaluate.  Each
# operation counts its enumerations from the problem sizes before any work.
DEFAULT_BUDGET = 1_000_000

# Comparison tolerance for certified numeric checks; see ``table_tol`` for
# the checks over value tables, which scale it.
VALUE_TOL = 1e-12

# Curvature terms whose denominator is at or below this, scaled by ``table_tol``,
# are skipped, not treated as inf.
DENOM_TOL = 1e-12

# |eta| at or below this threshold uses the analytic small-eta limit of the bound formulas.
ETA_ZERO_TOL = 1e-9


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed the configured evaluation budget."""

    def __init__(self, required: int, budget: int, what: str = "enumeration") -> None:
        super().__init__(f"{what} needs {required} evaluations but the budget is {budget}")
        self.required = required
        self.budget = budget


class UndefinedCurvatureError(RuntimeError):
    """Every term of a curvature maximum was skipped, so it is undefined; ``skipped`` counts them."""

    def __init__(self, message: str, skipped: int = 0) -> None:
        super().__init__(message)
        self.skipped = skipped


class GuaranteeViolationError(AssertionError):
    """A numerically certified guarantee failed; this indicates an implementation bug."""


class ModelFormatError(ValueError):
    """A model or configuration file failed schema validation."""


def ensure_budget(required: int, budget: int, what: str) -> None:
    if required > budget:
        raise BudgetExceededError(required, budget, what)


def strings_up_to(ground_size: int, horizon: int) -> int:
    """The number of strings of length 0..``horizon`` over ``ground_size`` actions."""
    if ground_size == 1:
        return horizon + 1
    return (ground_size ** (horizon + 1) - 1) // (ground_size - 1)


def values_agree(a: float, b: float) -> bool:
    """Whether two computed values agree to ``VALUE_TOL`` relative to their size.

    The tolerance is absolute for values up to 1 in magnitude and relative
    above, so values that grow with the reward scale agree to a fixed number
    of significant digits rather than to a fixed number of decimal places.
    """
    return abs(a - b) <= VALUE_TOL * max(1.0, abs(a), abs(b))


def table_tol(tol: float, tables: Sequence[np.ndarray]) -> float:
    """``tol`` scaled to the largest |f| over a set of value tables.

    Returns ``tol * max(1, s)`` with s the largest |f| in ``tables``, so the
    checks that compare differences of table values (the prefix-monotone
    slack, the diminishing-return gains and the forward-curvature skip
    threshold) give the same verdicts when every value is scaled by a power
    of two, and keep the absolute ``tol`` on tables of values up to 1.  The
    ratio-against-bound assertions compare a ratio, which has no scale, so
    they keep ``VALUE_TOL`` as it is.
    """
    # max(t.max(), -t.min()) is max |t| without an elementwise copy.
    scale = max(max(float(t.max()), -float(t.min())) for t in tables)
    return tol * max(1.0, scale)
