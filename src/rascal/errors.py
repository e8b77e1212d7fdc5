"""Exception types shared across the package."""


class RascalError(Exception):
    """Base class for all package-specific errors."""


class InexactDivision(RascalError):
    """The product recurrence produced a non-integer quotient.

    This never happens for valid inputs; seeing it means the recurrence
    implementation is broken, so it is an error rather than a result.
    """


class ResourceLimit(RascalError):
    """A computation would exceed its configured size cap."""


class DomainViolation(RascalError, ValueError):
    """An input lies outside the declared domain of an operation."""


class UnknownIdentity(RascalError, LookupError):
    """No identity is registered under the requested name."""

