"""Spectral form of the chain expansions.

Discretizing the two-step chain kernel on the quadrature grid gives one
M x M matrix K.  Its power sums p_n = tr(K^n) carry the whole family:
the order-2n closed-chain coefficient is -p_n/n, and Newton's identities
turn p_1..p_n into the signed elementary symmetric functions of the
spectrum, which are the form factor terms.  log det(I - K) sums the
exponential series from the eigenvalues at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFinite, RegimeMismatch, SpectralRadiusExceeded
from .kernels import KernelSet
from .params import ModelParams, Regime
from .quadrature import ContourGrid


@dataclass
class KernelMatrix:
    """Discretized chain kernel, immutable after build."""

    matrix: np.ndarray
    N: int
    hat: bool
    M: int
    _eigs: np.ndarray | None = field(default=None, repr=False, compare=False)

    def eigenvalues(self) -> np.ndarray:
        if self._eigs is None:
            self._eigs = np.linalg.eigvals(self.matrix)
        return self._eigs

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.eigenvalues())))

    def power_sums(self, n_max: int) -> np.ndarray:
        """p_1..p_{n_max} with p_n = tr(K^n), from one running product.

        tr(K^n) is read as the elementwise sum of K^(n-1) * K^T, so the
        n_max sums cost max(n_max - 2, 0) matrix products.
        """
        if n_max < 0:
            raise ValueError("n_max must be non-negative")
        K = self.matrix
        p = np.zeros(n_max, dtype=complex)
        if n_max >= 1:
            p[0] = np.trace(K)
        power = K                                  # K^(n-1) at step n
        for n in range(2, n_max + 1):
            p[n - 1] = np.sum(power * K.T)
            if n < n_max:
                power = power @ K
        return p

    def trace_power(self, n: int) -> complex:
        """tr(K^n), the last of the power sums p_1..p_n."""
        if n < 1:
            raise ValueError("power must be at least 1")
        return complex(self.power_sums(n)[n - 1])


def build_kernel(params: ModelParams, grid: ContourGrid, N: int, hat: bool = False) -> KernelMatrix:
    """Assemble K = A B for the closed chains at separation N.

    A[j, k] = u_j W_odd(z_j) z_j^N / (1 - z_j z_k) and
    B[k, j] = u_k W_even(z_k) z_k^N / (1 - z_k z_j); keeping all weights
    on the left index avoids square roots of complex weights and any
    branch ambiguity they would bring.
    """
    if hat and params.regime is not Regime.ABOVE:
        raise RegimeMismatch("hat kernels require the above regime")
    if not hat and params.regime is not Regime.BELOW:
        raise RegimeMismatch("plain kernels require the below regime")
    ks = KernelSet(params)
    z = grid.nodes
    w_odd = (ks.qq_hat if hat else ks.qq)(z)
    w_even = (ks.pp_hat if hat else ks.pp)(z)
    if not (np.all(np.isfinite(w_odd)) and np.all(np.isfinite(w_even))):
        raise NonFinite("chain weights evaluated to non-finite values")
    zn = z ** N
    C = grid.cauchy_matrix()
    A = (grid.weights * w_odd * zn)[:, None] * C
    B = (grid.weights * w_even * zn)[:, None] * C
    return KernelMatrix(matrix=A @ B, N=N, hat=hat, M=grid.M)


def log_det_expansion(K: KernelMatrix) -> float:
    """log det(I - K) = sum_i log(1 - lambda_i); the summed exponential series."""
    lam = K.eigenvalues()
    if np.max(np.abs(lam)) >= 1.0:
        raise SpectralRadiusExceeded(
            f"spectral radius {np.max(np.abs(lam)):.6g} >= 1, log det diverges"
        )
    return float(np.sum(np.log(1.0 - lam)).real)


def _newton_elementary(power_sums: np.ndarray, n_max: int) -> np.ndarray:
    """e_0..e_n from power sums p_1..p_n via Newton's identities."""
    e = np.zeros(n_max + 1, dtype=complex)
    e[0] = 1.0
    for n in range(1, n_max + 1):
        acc = 0.0 + 0.0j
        for k in range(1, n + 1):
            acc += (-1) ** (k - 1) * e[n - k] * power_sums[k - 1]
        e[n] = acc / n
    return e


def ff_coeffs_complex(K: KernelMatrix, n_max: int) -> list[complex]:
    """Signed elementary symmetric functions (-1)^n e_n of the spectrum.

    Newton's identities applied to the power sums tr(K), ..., tr(K^n_max);
    no eigendecomposition is involved.  Returned with their
    (rounding-level) imaginary residues so callers can report them; see
    ff_coeffs for the real-valued convenience form.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if n_max > K.M:
        raise ValueError(f"n_max={n_max} exceeds the matrix size {K.M}")
    e = _newton_elementary(K.power_sums(n_max), n_max)
    return [complex((-1) ** n * e[n]) for n in range(n_max + 1)]


def ff_coeffs(K: KernelMatrix, n_max: int) -> list[float]:
    """Form factor candidates f(2n) for n = 0..n_max, as reals."""
    return [c.real for c in ff_coeffs_complex(K, n_max)]
