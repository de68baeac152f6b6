"""Exception hierarchy for wgscat.

All package errors derive from :class:`WgscatError` so callers can catch
everything with one clause while tests distinguish failure modes.
"""

from __future__ import annotations


class WgscatError(Exception):
    """Base class for all wgscat errors."""


class DimensionError(WgscatError):
    """Operand shapes are inconsistent (non-square, mismatched, non-2D...)."""


class SingularMatrixError(WgscatError):
    """A linear solve hit a matrix that is singular to working tolerance.

    Carries the exact 1-norm condition of the refused matrix, ``inf`` when
    it is exactly singular.
    """

    def __init__(self, msg: str, cond: float = float("inf")):
        super().__init__(f"{msg} (1-norm condition {cond:.3e})")
        self.cond = cond


class ContourError(WgscatError):
    """A resolvent contour passes too close to the spectrum."""


class AccuracyError(WgscatError):
    """An internal cross-check (dual-route or residual) exceeded tolerance."""


class DomainError(WgscatError):
    """Argument outside the validity region of a family or series."""


class HypothesisError(WgscatError):
    """A structural hypothesis (positivity, annihilation, ...) fails on input."""


class ConfigError(WgscatError):
    """A configuration value is missing, malformed or of the wrong type."""


class ModelError(ConfigError):
    """Invalid waveguide model data (orthonormality, boundedness, schema)."""


class TruncationError(WgscatError):
    """The requested mode-sum tail tolerance cannot be met below the mode cap."""


class ChannelClosedError(WgscatError):
    """A trace row was requested for a channel that is closed at this energy."""


class BranchPointError(WgscatError):
    """Free resolvent kernel evaluated at its branch point z = 0."""


class EigenvalueHitError(WgscatError):
    """The sandwiched resolvent is singular at this energy; use the expansion
    machinery instead of a direct solve."""


class StructuralError(WgscatError):
    """A ladder-level certificate failed; the built ladder cannot be trusted."""
