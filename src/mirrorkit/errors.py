"""Exception types shared across the package."""


class MirrorkitError(Exception):
    """Base class for all mirrorkit errors."""


class DomainError(MirrorkitError):
    """A point lies outside the domain of a potential or model."""


class ConvergenceError(MirrorkitError):
    """An iterative solver exhausted its iteration budget."""


class GridError(MirrorkitError):
    """A sampling grid is too narrow to capture the density's tails."""


class ScheduleError(MirrorkitError):
    """An operation requires a different step-size schedule."""


class DegenerateError(MirrorkitError):
    """An input combination makes the requested quantity ill-defined."""


class RankError(MirrorkitError):
    """A constraint matrix does not have full row rank."""


class StepCapError(MirrorkitError):
    """An iteration hit its step cap before reaching tolerance."""

    def __init__(self, message, steps=None, residual=None):
        super().__init__(message)
        self.steps = steps
        self.residual = residual


class ConfigError(MirrorkitError):
    """An experiment configuration violates a precondition."""


class ParseError(MirrorkitError):
    """A configuration file could not be parsed."""


class ValidationError(MirrorkitError):
    """A configuration field has an invalid value."""


class ArtifactError(MirrorkitError):
    """An output file could not be written."""
