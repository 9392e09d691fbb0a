"""Shared exception and warning types."""


class DomainError(ValueError):
    """Argument outside the documented domain of an operation."""


class PoleError(ZeroDivisionError):
    """Evaluation requested exactly at a pole."""


class SingularCouplingError(ValueError):
    """Reflection couplings make a matching or transfer matrix singular."""


class InvalidPathError(ValueError):
    """A bounce sequence violates the mirror-path ordering constraints."""


class AccuracyLossWarning(UserWarning):
    """Result is returned but cancellation may have degraded accuracy."""


class BracketError(ArithmeticError):
    """A root scan cannot be trusted: roots are missing or a sign is lost."""
