"""The symbol, its factor pairs and chain weights, with a fixed branch convention.

Every square root is taken factor by factor with the principal branch
(cut along the negative real axis).  Each factor has the form
(1 - a*w)**(+-1/2); as long as |a*w| < 1 its argument has positive real
part, so no cut is ever crossed and reciprocal pairs multiply to 1 at
machine precision.  All evaluators enforce that disk condition and raise
BranchViolation outside it.

The shifted symbol z * phi(z) has coefficients b_n = a_(n-1), so it
needs no evaluator: toeplitz reads its matrix as a slice of phi's.
"""

from __future__ import annotations

import numpy as np

from .errors import BranchViolation, RegimeMismatch
from .params import ModelParams, Regime


def _as_complex(z):
    return np.asarray(z, dtype=complex)


class KernelSet:
    """Evaluators for the symbol, its factor pairs, and chain weights.

    Pure functions of immutable parameters; safe to share.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.a1 = float(params.alpha1)
        self.a2 = float(params.alpha2)
        # largest |z| at which the plain factors keep positive real part
        self.pq_radius = np.inf if self.a2 == 0.0 else 1.0 / self.a2
        self.hat_radius = min(
            np.inf if self.a1 == 0.0 else 1.0 / self.a1, self.a2
        )

    # ------------------------------------------------------------------
    # branch guards
    # ------------------------------------------------------------------
    def _require_disk(self, z, radius: float, what: str) -> None:
        biggest = np.max(np.abs(z))
        if not np.isfinite(biggest):
            raise BranchViolation(f"{what}: non-finite evaluation point")
        if biggest >= radius:
            raise BranchViolation(
                f"{what}: |z|={biggest:.6g} reaches the branch disk radius {radius:.6g}"
            )

    def phi_annulus(self) -> tuple[float, float]:
        """Open annulus on which the symbol is analytic and branch-safe."""
        if self.params.regime is Regime.BELOW:
            return self.a2, 1.0 / self.a2
        lo = max(self.a1, 1.0 / self.a2)
        hi = min(np.inf if self.a1 == 0.0 else 1.0 / self.a1, self.a2)
        return lo, hi

    def _require_annulus(self, z, what: str) -> None:
        lo, hi = self.phi_annulus()
        mags = np.abs(z)
        if np.any(mags <= lo) or np.any(mags >= hi):
            raise BranchViolation(
                f"{what}: |z| must lie in the open annulus ({lo:.6g}, {hi:.6g})"
            )

    # ------------------------------------------------------------------
    # factor pairs
    # ------------------------------------------------------------------
    def p(self, z):
        """((1 - a2 z)/(1 - a1 z))**(1/2), analytic and nonzero for |z| < 1/a2."""
        z = _as_complex(z)
        self._require_disk(z, self.pq_radius, "p")
        return np.sqrt(1.0 - self.a2 * z) / np.sqrt(1.0 - self.a1 * z)

    def q(self, z):
        """Reciprocal of p on the same disk."""
        z = _as_complex(z)
        self._require_disk(z, self.pq_radius, "q")
        return np.sqrt(1.0 - self.a1 * z) / np.sqrt(1.0 - self.a2 * z)

    def p_hat(self, z):
        """((1 - a1 z)(1 - z/a2))**(-1/2), analytic for |z| < min(1/a1, a2)."""
        z = _as_complex(z)
        self._require_disk(z, self.hat_radius, "p_hat")
        return 1.0 / (np.sqrt(1.0 - self.a1 * z) * np.sqrt(1.0 - z / self.a2))

    def q_hat(self, z):
        """Reciprocal of p_hat on the same disk."""
        z = _as_complex(z)
        self._require_disk(z, self.hat_radius, "q_hat")
        return np.sqrt(1.0 - self.a1 * z) * np.sqrt(1.0 - z / self.a2)

    # ------------------------------------------------------------------
    # symbols
    # ------------------------------------------------------------------
    def phi(self, z):
        """Generating function of the Toeplitz coefficients.

        Below the critical point this is q(z) * p(1/z).  Above it, the
        square root has two continuous determinations on the annulus; the
        physical one (the branch that makes the Toeplitz determinants
        equal the positive spin correlations) is minus the per-factor
        principal product, so phi = -q_hat(z) p_hat(1/z) / z there.
        Points must stay in phi_annulus().
        """
        z = _as_complex(z)
        self._require_annulus(z, "phi")
        if self.params.regime is Regime.BELOW:
            return self.q(z) * self.p(1.0 / z)
        return -self.q_hat(z) * self.p_hat(1.0 / z) / z

    # ------------------------------------------------------------------
    # chain weights: products over a point and its reflection 1/z
    # ------------------------------------------------------------------
    def qq(self, z):
        z = _as_complex(z)
        return self.q(z) * self.q(1.0 / z)

    def pp(self, z):
        z = _as_complex(z)
        return self.p(z) * self.p(1.0 / z)

    def qq_hat(self, z):
        z = _as_complex(z)
        return self.q_hat(z) * self.q_hat(1.0 / z)

    def pp_hat(self, z):
        z = _as_complex(z)
        return self.p_hat(z) * self.p_hat(1.0 / z)


def s_infinity(params: ModelParams) -> float:
    """Large-separation limit of the correlation below the critical point."""
    if params.regime is not Regime.BELOW:
        raise RegimeMismatch("s_infinity is defined below the critical point")
    a1, a2 = params.alpha1, params.alpha2
    return float(((1.0 - a1 * a1) * (1.0 - a2 * a2) / (1.0 - a1 * a2) ** 2) ** 0.25)


def s_hat_infinity(params: ModelParams) -> float:
    """Szego limit of the sign-adjusted shifted determinants above the critical point."""
    if params.regime is not Regime.ABOVE:
        raise RegimeMismatch("s_hat_infinity is defined above the critical point")
    a1, a2 = params.alpha1, params.alpha2
    val = (1.0 - a1 * a1) * (1.0 - a2 ** -2) * (1.0 - a1 / a2) ** 2
    return float(val ** 0.25)
