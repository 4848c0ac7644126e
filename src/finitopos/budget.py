"""Enumeration budget shared by all search loops.

Exponential blowup is intrinsic to presheaf enumeration; every unbounded
loop charges a shared counter and aborts predictably instead of hanging.
"""

from __future__ import annotations

import os

from .errors import BudgetExceeded, FinitoposError

DEFAULT_BUDGET = 10**6
ENV_VAR = "FINITOPOS_BUDGET"


def default_budget() -> int:
    """FINITOPOS_BUDGET if set, else DEFAULT_BUDGET; a value that is not a
    positive integer raises rather than being replaced."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
        if value > 0:
            return value
    except ValueError:
        pass
    raise FinitoposError(f"{ENV_VAR} must be a positive integer, got {raw!r}")


class Budget:
    """Mutable step counter; raises once `limit` charges have been spent."""

    def __init__(self, limit: int | None = None, what: str = "enumeration"):
        self.limit = default_budget() if limit is None else limit
        self.spent = 0
        self.what = what

    def charge(self, n: int = 1) -> None:
        self.spent += n
        if self.spent > self.limit:
            raise BudgetExceeded(self.what, self.limit)

    def sub(self, what: str) -> "Budget":
        """Child view sharing nothing; used for independent sub-searches."""
        return Budget(self.limit, what)


def ensure_budget(budget: Budget | int | None, what: str = "enumeration") -> Budget:
    if isinstance(budget, Budget):
        return budget
    return Budget(budget, what)
