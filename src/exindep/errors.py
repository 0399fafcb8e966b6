"""Semantic exception and warning hierarchy shared across the package.

All library errors derive from :class:`ExindepError` so callers can catch
package failures with a single handler while still distinguishing the
builtin category (``ValueError``, ``RuntimeError``, ...) each one extends.
"""
from __future__ import annotations

__all__ = [
    "ExindepError",
    "StructuralError",
    "DomainError",
    "ResourceBudgetError",
    "NumericError",
    "RegimeWarning",
    "DroppedEventsWarning",
]


class ExindepError(Exception):
    """Base class for every error raised by this package."""


class StructuralError(ExindepError, ValueError):
    """Inputs are structurally inconsistent (dimension mismatch, bad index)."""


class DomainError(ExindepError, ValueError):
    """A numeric argument lies outside the mathematical domain of the operation."""


class ResourceBudgetError(ExindepError, RuntimeError):
    """An enumeration would exceed the configured set-inspection budget."""


class NumericError(ExindepError, ArithmeticError):
    """A numerical procedure failed (e.g. factorization after jitter retry)."""


class RegimeWarning(UserWarning):
    """Parameters are outside the asymptotic regime a formula was derived for.

    The value is still computed: negative-control experiments deliberately
    evaluate formulas where their hypotheses fail.
    """


class DroppedEventsWarning(UserWarning):
    """Zero-probability events were removed while building an event system."""
