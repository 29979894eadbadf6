"""Exception types shared across the package."""

from __future__ import annotations


class InfopowerError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(InfopowerError):
    """Operands act on Hilbert spaces of different dimensions."""


class NotPositiveSemidefinite(InfopowerError):
    """A matrix required to be PSD has an eigenvalue below tolerance."""


class ZeroOperator(InfopowerError):
    """An operation received the zero matrix where a nonzero one is required."""


class NotCommuting(InfopowerError):
    """Matrices required to commute have no common eigenbasis, within tolerance."""


class EigendecompositionError(InfopowerError):
    """The dense Hermitian eigensolver failed to converge."""


class SchemaError(InfopowerError):
    """A structured input file does not match its declared schema."""
