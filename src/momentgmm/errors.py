"""Exception hierarchy shared across the package, and the integer check for
values read from JSON.

The CLI maps these onto exit codes: InputError -> 1, NumericalError -> 2,
plain OSError -> 3.
"""

import numbers


class InputError(ValueError):
    """Malformed or inconsistent user input (shapes, ranges, file contents)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (rank deficiency, eigen-solver trouble, ...)."""


def json_int(value, name: str) -> int:
    """`value` as an int: an integer, or a float with an integral value such
    as 1e5.  Fractions, booleans, strings and non-finite numbers are rejected
    instead of truncated by int()."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)
