"""Exception types raised across the package.

Every input the package refuses raises a :class:`QCombsError`, which the CLI
maps onto exit codes in one place, except a TypeError for an argument of the
wrong type and FileExistsError from ``OperatorFile.save`` without ``force``.
"""


class QCombsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(QCombsError, ValueError):
    """An argument with a refused value, or a count or tolerance that is not
    an integer or a real number (an iteration count of 10.0, a tolerance of
    "1e-6"); also a ValueError."""


class DuplicateLabelError(QCombsError):
    """A wire label occurs more than once where labels must be unique."""


class UnknownLabelError(QCombsError):
    """A referenced wire label does not exist on the operator."""


class NotAPermutationError(QCombsError):
    """A wire reordering does not name every wire exactly once."""


class LabelMismatchError(QCombsError):
    """An operator's wire set does not match the expected structure."""


class DimMismatchError(LabelMismatchError):
    """Two wires with the same label disagree on dimension."""


class NotHermitianError(QCombsError):
    """An operand required to be Hermitian is not, beyond tolerance."""


class NotPSDError(QCombsError):
    """An operand required to be positive semidefinite has a negative
    eigenvalue beyond tolerance."""


class SlotArityMismatchError(QCombsError):
    """The number or placement of inserted circuits does not match the
    board's open slots."""


class DimOverflowError(QCombsError):
    """Total dimension exceeds the supported dense-storage cap."""


class TooManyWiresError(QCombsError):
    """A contraction spans more wires than one einsum call can index."""


class IndexOutOfRangeError(QCombsError):
    """A tooth index lies outside the comb's range."""


class InvalidBranchSumError(QCombsError):
    """Branches of a probabilistic comb do not sum to a deterministic comb."""


class UnsupportedError(QCombsError):
    """The requested closed-form reference value is not available."""


class BoundUnavailableError(QCombsError):
    """No valid dual bound could be constructed."""


class NoConvergenceError(QCombsError):
    """An iterative routine hit its iteration budget before reaching
    tolerance.  Carries the best iterate found and diagnostics."""

    def __init__(self, message, best=None, diagnostics=None):
        super().__init__(message)
        self.best = best
        self.diagnostics = diagnostics or {}


class OperatorFileError(QCombsError):
    """An operator file is malformed or fails validation on re-read."""
