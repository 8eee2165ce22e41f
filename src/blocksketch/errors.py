"""Exception types shared across the package, and the one integer check."""

import operator


class BlocksketchError(Exception):
    """Base class for errors raised by this package."""


class ParameterError(BlocksketchError, ValueError):
    """An argument violates a documented precondition."""


class EmptyGraphError(ParameterError):
    """An operation that needs at least one node got an empty graph."""


class DomainError(BlocksketchError, ValueError):
    """Inputs are outside the mathematical domain of a bound or identity."""


class CapacityError(BlocksketchError, RuntimeError):
    """The request exceeds a hard size cap of an exhaustive or dense method."""


class GraphFormatError(BlocksketchError, ValueError):
    """A graph text file violates the on-disk format."""


def as_int(value, what: str) -> int:
    """`value` as a Python int: integers, numpy integers included, pass;
    bools and floats, even integral ones, raise ParameterError."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ParameterError(f"{what} must be an integer, got {value!r}")
