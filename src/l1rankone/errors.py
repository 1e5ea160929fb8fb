"""Exception types shared across the package."""


class L1RankOneError(Exception):
    """Base class for all errors raised by this package."""


class NotSquareError(L1RankOneError):
    """Input array is not a square matrix."""


class NonFiniteInputError(L1RankOneError):
    """Input has a nan or infinite entry."""


class ScaleOverflowError(L1RankOneError):
    """Input entries are so large that squared norms computed from them overflow."""


class NotHermitianError(L1RankOneError):
    """Input deviates from its conjugate transpose beyond tolerance."""

    def __init__(self, message, index=None, deviation=None):
        super().__init__(message)
        self.index = index
        self.deviation = deviation


class EigenFailureError(L1RankOneError):
    """The eigensolver failed: LAPACK did not converge or the input was not finite."""


class NotPSDError(L1RankOneError):
    """Matrix is not positive semidefinite within tolerance."""


class NotDiagonallyDominantError(L1RankOneError):
    """Matrix fails the diagonal dominance check."""

    def __init__(self, message, row=None, margin=None):
        super().__init__(message)
        self.row = row
        self.margin = margin


class DimensionMismatchError(L1RankOneError):
    """Vectors or matrices do not share the expected dimension."""


class ReconstructionError(L1RankOneError):
    """A decomposition does not reconstruct its target within tolerance."""


class QuadFormTooLargeError(L1RankOneError):
    """<Ax, x> exceeds 1 beyond tolerance, so the peel would break PSD-ness."""


class ZeroDirectionError(L1RankOneError):
    """Ax vanishes, so there is nothing to peel in that direction."""


class StallDetectedError(L1RankOneError):
    """Greedy residual trace stopped decreasing."""


class NormalizationError(L1RankOneError):
    """Caratheodory input vectors are not unit l1-normalized."""


class NumericalRankFailureError(L1RankOneError):
    """Null-space solve did not produce a usable direction."""


class RankOneInputError(L1RankOneError):
    """Operation requires rank >= 2 input; use the rank-one fast path."""


class InsufficientDataError(L1RankOneError):
    """Not enough data points to fit the requested model."""


class BudgetExceededError(L1RankOneError):
    """Problem size exceeds the guard for this (expensive) operation."""
