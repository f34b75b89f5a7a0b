"""Exception types shared across the package."""


class QOpinionError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(QOpinionError):
    """An input value violates a documented precondition or invariant."""


class ImpossibleOutcomeError(QOpinionError):
    """Attempt to collapse onto an outcome whose probability is zero."""


class SingularityError(QOpinionError):
    """A closed-form expression was evaluated within tolerance of a pole."""
