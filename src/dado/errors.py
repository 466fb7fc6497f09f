"""Exception types shared across the package."""

from __future__ import annotations


class DadoError(Exception):
    """Base class for all package-specific errors."""


class MissingFile(DadoError):
    """A required input file does not exist."""


class SchemaMismatch(DadoError):
    """An input file does not match the expected column layout."""


class NonFiniteValue(DadoError):
    """A NaN or infinity appeared where finite data is required."""


class PoolExhausted(DadoError):
    """A draw asked for more candidates than remain available."""


class UnknownId(DadoError):
    """A referenced candidate id is not present."""


class AlreadyConsumed(DadoError):
    """Attempt to consume a candidate id twice."""


class DimensionMismatch(DadoError):
    """Vector or matrix shapes are inconsistent."""


class NumericalDivergence(DadoError):
    """Training produced a non-finite loss or non-finite weights."""


class SizeMismatch(DadoError):
    """Two collections that must have equal sizes do not."""


class DegenerateInput(DadoError):
    """Input is too small for the requested statistic."""


class ConfigError(DadoError):
    """Invalid experiment or command-line configuration."""
