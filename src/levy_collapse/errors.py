"""Exception hierarchy shared across the package."""


class LevyCollapseError(Exception):
    """Base class for all package errors."""


class ModelError(LevyCollapseError, ValueError):
    """Invalid model parameters or an operation unsupported by the model."""


class SubordinatorInput(ModelError):
    """The driving process is nondecreasing, so phi(alpha) = lambda has no positive root."""


class DomainError(LevyCollapseError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class QuadratureFailure(LevyCollapseError, ArithmeticError):
    """A numerical rule could not reach the requested tolerance."""


class EmptyPool(LevyCollapseError, ValueError):
    """A statistic was requested from a SamplePool with no samples."""


class ConfigError(LevyCollapseError):
    """Base class for run-configuration problems (CLI exit code 2)."""


class ParseError(ConfigError):
    """Malformed config text (bad line, duplicate key, unparseable value)."""


class ValidationError(ConfigError):
    """Structurally valid config with semantically invalid or missing content."""
