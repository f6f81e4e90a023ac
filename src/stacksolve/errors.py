"""Exception hierarchy shared across the toolkit, and the integer check of the JSON readers."""

import operator


class ToolkitError(Exception):
    """Base class for all toolkit-raised errors."""


class InputError(ToolkitError, ValueError):
    """Malformed instance data or invalid arguments (CLI exit code 2)."""


class SizeLimitError(ToolkitError):
    """A brute-force or enumeration limit was exceeded (CLI exit code 3)."""


class LpNumericalError(ToolkitError):
    """The LP solver failed numerically (pivot guard or solver breakdown).

    Deliberately distinct from an infeasible status: infeasibility is an
    answer, numerical failure is not.
    """


def as_index(value, what: str) -> int:
    """``value`` as an int by ``operator.index``; a bool raises ``InputError``.

    JSON's ``true`` and ``false`` arrive as Python's ``True`` and ``False``,
    which ``operator.index`` and ``==`` take for 1 and 0.
    """
    if isinstance(value, bool):
        raise InputError(f"{what} must be an integer, not a boolean")
    return operator.index(value)
