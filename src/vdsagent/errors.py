"""Shared exception types."""


class VdsAgentError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(VdsAgentError):
    """A structured input does not match its documented JSON shape."""


class CrossReferenceError(VdsAgentError):
    """An input references an entity that does not exist."""


class InfeasibleGeneration(VdsAgentError):
    """Instance sampling could not find a feasible OD assignment."""


class ValidationError(VdsAgentError):
    """A knowledge-base entry failed validation."""


class ConfigError(VdsAgentError):
    """A workflow, backend, or benchmark configuration is invalid."""
