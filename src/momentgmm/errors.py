"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: InputError -> 1, NumericalError -> 2,
plain OSError -> 3.
"""


class InputError(ValueError):
    """Malformed or inconsistent user input (shapes, ranges, file contents)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (rank deficiency, eigen-solver trouble, ...)."""
