"""Shared exception types, and the one budget rule of every exact search.

A search refuses input past its budget rather than run: check_limit before
it starts (the empty graph needs no search, so no limit applies to it), and
check_cap on a list it builds.  The CLI reports either with exit code 3.
"""


class BudgetExceededError(RuntimeError):
    """An exact computation would exceed its configured size budget."""


def check_limit(what: str, n: int, limit: int) -> None:
    if n and n > limit:
        raise BudgetExceededError(f"{what} for n={n} exceeds the limit {limit}")


def check_cap(what: str, count: int, cap: int, noun: str) -> None:
    if count > cap:
        raise BudgetExceededError(f"{what} exceeds the limit {cap} ({count} {noun})")
