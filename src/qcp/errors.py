"""Exception types shared across the package."""


class QcpError(Exception):
    """Base class for all package errors."""


class ValidationError(QcpError, ValueError):
    """An input violates its declared preconditions."""


class InternalConsistencyError(QcpError, RuntimeError):
    """A self-check failed: a broken structural invariant, such as a term
    divisor that does not divide the lcm period.  Indicates a bug, never
    bad input."""


class BudgetExceededError(QcpError, RuntimeError):
    """A computation would exceed its configured work budget."""
