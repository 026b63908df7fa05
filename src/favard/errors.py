"""Exception types shared across the package."""


class FavardError(Exception):
    """Base class for all errors raised by this package."""


class MomentDegreeError(FavardError):
    """A computation needs moments of higher degree than the functional provides."""


class PositivityError(FavardError):
    """The moment functional is not positive semidefinite at some degree."""


class FileFormatError(FavardError):
    """A moment or Jacobi file violates the documented schema."""


class FavardConditionError(FavardError):
    """Jacobi data violates one of the admissibility conditions."""


class AdjointInconsistencyError(FavardConditionError):
    """The annihilator adjoint system has no solution.

    Raised when a kernel vector of one level's metric does not lift into
    the kernel of the next level's metric, which makes the creation
    operator non-adjointable.
    """


class WordLengthError(FavardError):
    """A vacuum expectation was requested for a word longer than the data supports."""


class InconsistentSystemError(FavardError):
    """An exact linear system that should be consistent has no solution."""


class NumericalBreakdownError(FavardError):
    """A float solve failed that exact arithmetic solves for the (positive) input."""
