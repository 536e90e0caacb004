"""Exception hierarchy shared across the package.

Input problems (bad ids, malformed files, non-composable paths, modules that
fail their defining equations) are all subclasses of :class:`InputError` and
map to CLI exit code 2.  :class:`InvariantViolation` signals that an internal
consistency check failed on data that was supposed to be correct by
construction; it is a bug indicator, never a user error.
"""

from collections.abc import Mapping


class QuiverHomError(Exception):
    """Base class for all package errors."""


class InputError(QuiverHomError):
    """Invalid user-supplied data."""


class ParseError(InputError):
    """Malformed text input; carries position information."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class DanglingIdError(InputError):
    """A vertex or arrow id referenced but never declared."""


class CompositionError(InputError):
    """An arrow sequence that is not composable."""


class ModuleValidationError(InputError):
    """A representation that violates its algebra's defining relations."""


class InvariantViolation(QuiverHomError):
    """A supposedly-impossible internal state; indicates a bug upstream."""


def require_int(value, what: str) -> None:
    """Refuse anything but an int (a bool is refused too), naming it as `what`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an int, got {value!r}")


def require_mapping(value, what: str) -> None:
    """Refuse anything but a mapping, naming it as `what` and the value by its type."""
    if not isinstance(value, Mapping):
        raise InputError(f"{what} must be a mapping, not {type(value).__name__}")
