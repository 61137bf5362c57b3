"""Exception hierarchy shared by every module in the package, and the size and seed checks."""


class LogentError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LogentError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InvalidPartitionError(LogentError, ValueError):
    """Blocks overlap, miss an element of the carrier, or are empty."""


class NotEquivalenceError(LogentError, ValueError):
    """A relation required to be an equivalence fails reflexivity, symmetry, or transitivity."""


class SizeMismatchError(LogentError, ValueError):
    """Operands are defined over carriers of different sizes."""


class LimitExceededError(LogentError, ValueError):
    """A request exceeds a configured cap, or needs more memory than can be allocated."""


class InvalidDistributionError(LogentError, ValueError):
    """Probabilities are negative or do not sum to one within tolerance."""


class InvalidDistanceMatrixError(LogentError, ValueError):
    """A distance matrix is not square and symmetric with a zero diagonal and nonnegative entries."""


class ParseError(LogentError, ValueError):
    """Text input could not be parsed."""


def _check_positive(name: str, value) -> None:
    """Raise :class:`DomainError` unless ``value`` is a positive ``int`` (``bool`` excluded)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")


def _check_seed(seed) -> None:
    """Raise :class:`DomainError` unless ``seed`` is an ``int`` (``bool`` excluded), used mod 2**64."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise DomainError(f"seed must be an integer, got {seed!r}")
