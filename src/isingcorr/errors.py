"""Exception types shared across the library."""


class IsingCorrError(Exception):
    """Base class for every error raised by this package."""


class InvalidCoupling(IsingCorrError):
    """Couplings must be finite and positive."""


class InvalidAlphas(IsingCorrError):
    """Direct alpha input violates the ordering 0 <= alpha1 <= alpha2, alpha2 != 1."""


class CriticalPoint(InvalidAlphas):
    """alpha2 is (numerically) 1: the critical point is outside every expansion's domain."""


class RegimeMismatch(IsingCorrError):
    """Operation requested for the wrong temperature regime."""


class BranchViolation(IsingCorrError):
    """Evaluation point leaves the region where the per-factor principal branch is safe."""


class RadiusOutOfRange(IsingCorrError):
    """Contour radius outside the open interval (r_min, 1)."""


class NonFinite(IsingCorrError):
    """An integrand or weight evaluated to nan or inf on the grid."""


class PoleOnGrid(IsingCorrError):
    """A nearest-neighbour factor 1/(1 - z_i z_j) is singular on the grid."""


class SingularMatrix(IsingCorrError):
    """Toeplitz matrix is numerically singular (parameters at or beyond validity)."""


class MethodUnavailable(IsingCorrError):
    """The requested evaluation method does not support these arguments."""


class DegeneratePoints(IsingCorrError):
    """Identity check received coincident points or a pole configuration."""


class SpectralRadiusExceeded(IsingCorrError):
    """det(I - K) is not a positive real, so log det(I - K) has no real value."""


class NoConvergence(IsingCorrError):
    """Grid refinement hit its cap before meeting the tolerance.

    Carries the best value seen, the last successive difference and the
    final grid size so callers can still report diagnostics.
    """

    def __init__(self, message: str, value, est_error: float, M_used: int):
        super().__init__(message)
        self.value = value
        self.est_error = est_error
        self.M_used = M_used
