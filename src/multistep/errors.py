"""Exception types shared across the package."""


class MultistepError(Exception):
    """Base class for all package errors."""


class ShapeError(MultistepError, ValueError):
    """Array dimensions do not match what an operation requires."""


class NumericError(MultistepError, ValueError):
    """Non-finite values where finite ones are required."""


class IngestError(MultistepError, ValueError):
    """Raw data could not be validated at ingest time."""


class ConfigError(MultistepError, ValueError):
    """Invalid configuration or precondition violation."""
