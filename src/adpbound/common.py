"""Shared constants and exception types used across the library."""

from __future__ import annotations

# Leaf evaluations allowed per exhaustive enumeration before an operation bails out.
DEFAULT_BUDGET = 1_000_000

# Comparison tolerance for certified numeric checks.
VALUE_TOL = 1e-12

# Curvature terms whose denominator is at or below this are skipped, not treated as inf.
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
    """Every term of a curvature maximum was skipped, leaving the value undefined."""


class GuaranteeViolationError(AssertionError):
    """A numerically certified guarantee failed; this indicates an implementation bug."""


class ModelFormatError(ValueError):
    """A model or configuration file failed schema validation."""


def ensure_budget(required: int, budget: int, what: str) -> None:
    if required > budget:
        raise BudgetExceededError(required, budget, what)


def values_agree(a: float, b: float) -> bool:
    """Whether two computed values agree to ``VALUE_TOL`` relative to their size.

    The tolerance is absolute for values up to 1 in magnitude and relative
    above, so values that grow with the reward scale agree to a fixed number
    of significant digits rather than to a fixed number of decimal places.
    """
    return abs(a - b) <= VALUE_TOL * max(1.0, abs(a), abs(b))
