"""Exception types shared across the package."""

from __future__ import annotations

import functools


class HypothesisError(ValueError):
    """Raised when k fails the standing hypotheses (4 | k, or D not squarefree)."""


class CriterionUnsupportedError(ValueError):
    """Raised when a detection criterion is asked about a (k, p) pair it does not cover."""


class ResourceBudgetError(RuntimeError):
    """A computation was stopped or refused because it would exceed its budget."""


class FactorizationBudgetError(ResourceBudgetError):
    """Factoring ran out of budget before finishing.

    `cofactor` is the composite piece left over; `partial` holds the
    (prime, exponent) pairs that were extracted before giving up.
    """

    def __init__(self, message: str, *, cofactor: int, partial: tuple = ()):
        super().__init__(message)
        self.cofactor = cofactor
        self.partial = partial

    def __reduce__(self):
        # The default reduction calls cls(message) and fails on the required
        # keyword, so an error raised in a pool worker could not reach the parent.
        rebuild = functools.partial(type(self), cofactor=self.cofactor, partial=self.partial)
        return rebuild, self.args


class InconsistencyError(RuntimeError):
    """The criteria disagreed, or an exact-division check failed. Should never happen.

    Carries the offending classification in `classification` so callers can
    report exactly which criterion broke ranks.
    """

    def __init__(self, message: str, *, classification=None):
        super().__init__(message)
        self.classification = classification
