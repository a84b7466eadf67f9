"""Resource budgets guarding exhaustive basis-tuple scans.

Predicates walk on the order of d**(n+1) basis tuples and full-space
computations solve systems with ell*d**(n-1) unknowns; both are capped so a
careless arity never silently degrades into sampling. ``GMALG_BUDGET``
overrides the tuple cap; the unknown cap scales with it (one tenth). These
caps are the only bound on the arity. A value that is not a positive integer
is refused with a ValueError, an input error; unset or empty keeps the
defaults.
"""

import os

from .errors import BudgetExceededError

ENV_VAR = "GMALG_BUDGET"

DEFAULT_TUPLE_BUDGET = 100_000


def tuple_budget() -> int:
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return DEFAULT_TUPLE_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def unknown_budget() -> int:
    return max(1, tuple_budget() // 10)


def guard_tuples(what: str, required: int) -> None:
    allowed = tuple_budget()
    if required > allowed:
        raise BudgetExceededError(what, required, allowed)


def guard_unknowns(what: str, required: int) -> None:
    allowed = unknown_budget()
    if required > allowed:
        raise BudgetExceededError(what, required, allowed)


def guard_power(what: str, base: int, exp: int) -> None:
    """Refuse base ** exp basis tuples without forming the power.

    For base >= 2 the power is at least 2 ** exp, past the tuple budget once
    exp reaches the budget's bit length; a huge exponent would take unbounded
    time and memory to raise to.
    """
    bits = tuple_budget().bit_length()
    if base >= 2 and exp >= bits:
        raise BudgetExceededError(
            f"{what} ({base}**{exp}, at least 2**{bits})", 2 ** bits, tuple_budget())
