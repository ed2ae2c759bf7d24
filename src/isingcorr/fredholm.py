"""Spectral form of the chain expansions.

On the M-node circle the two-step chain kernel at separation N is
D_a C D_b C, with C_ij = 1/(1 - z_i z_j) and the diagonals
a_k = u_k W_odd(z_k) z_k^N, b_k = u_k W_even(z_k) z_k^N.  Because z_k^M = r^M on the circle, C = c V V^T
exactly, with V_ks = z_k^s (s < M) and c = 1/(1 - r^(2M)).  The kernel
therefore has the nonzero spectrum of P Q, where P_st = c m_odd(N+s+t)
and Q_st = c m_even(N+s+t) are Hankel matrices of the contour moments
m(j) = sum_k u_k w(z_k) z_k^j of the two weights: the finite section of
det(I - H(b) H(c~)) in the Borodin-Okounkov formula.  The moments decay
like r_min^j, so the section is cut at the size L where r_min^(2L)
reaches the float64 rounding level (L = M is the exact identity).

The section's power sums p_n = tr((PQ)^n) carry the whole family: the
order-2n closed-chain coefficient is -p_n/n, and Newton's identities
turn p_1..p_n into the signed elementary symmetric functions of the
spectrum, which are the form factor terms.  Both expansions are Taylor
series of det(I - K), which one LU of the section sums to all orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RegimeMismatch, SpectralRadiusExceeded
from .params import ModelParams, Regime
from .quadrature import ContourGrid, r_min
from .toeplitz import contour_moments


@dataclass
class KernelMatrix:
    """Chain kernel section (L x L) of the M-node grid, immutable after build.

    section holds the factors it was multiplied from, (P, Q, odd, even, c)
    as returned by _chain_section; the open chains read them.
    """

    matrix: np.ndarray
    N: int
    hat: bool
    M: int
    section: tuple = field(default=(), repr=False, compare=False)

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


def _section_size(params: ModelParams, M: int) -> int:
    """L = min(M, ceil(ln 2^-53 / (2 ln r_min)) + 2).

    Positive moments decay like r_min^j, so entries of P Q beyond L
    fall below the float64 rounding of its leading ones.
    """
    return min(M, math.ceil(-53.0 * math.log(2.0) / (2.0 * math.log(r_min(params)))) + 2)


def _chain_section(params: ModelParams, grid: ContourGrid, N: int, hat: bool):
    """Hankel factors P, Q of the chain kernel at separation N.

    Returns (P, Q, odd, even, c) with odd[j] = m_odd(N - 1 + j) and
    even[j] = m_even(N - 1 + j) for j < 2L, so P = c odd[1 + s + t];
    the leading L entries are the end vectors of the open chains at
    separation N - 1.
    """
    if hat and params.regime is not Regime.ABOVE:
        raise RegimeMismatch("hat kernels require the above regime")
    if not hat and params.regime is not Regime.BELOW:
        raise RegimeMismatch("plain kernels require the below regime")
    L = _section_size(params, grid.M)
    c = 1.0 / (1.0 - grid.r ** (2 * grid.M))
    odd = contour_moments(params, grid, "qq_hat" if hat else "qq", N - 1, 2 * L)
    even = contour_moments(params, grid, "pp_hat" if hat else "pp", N - 1, 2 * L)
    idx = 1 + np.add.outer(np.arange(L), np.arange(L))
    return c * odd[idx], c * even[idx], odd, even, c


def build_kernel(params: ModelParams, grid: ContourGrid, N: int, hat: bool = False) -> KernelMatrix:
    """The L x L section P Q of the closed-chain kernel at separation N.

    Its power sums equal those of the M x M grid kernel A B with
    A[j, k] = u_j W_odd(z_j) z_j^N / (1 - z_j z_k) and
    B[k, j] = u_k W_even(z_k) z_k^N / (1 - z_k z_j), up to moments
    below the rounding level (exactly, when L = M).
    """
    section = _chain_section(params, grid, N, hat)
    P, Q = section[:2]
    return KernelMatrix(matrix=P @ Q, N=N, hat=hat, M=grid.M, section=section)


def log_det_expansion(K: KernelMatrix) -> float:
    """log det(I - K), the exponential series summed to all orders, from one LU.

    The section is complex only by rounding, so det(I - K) counts as a
    positive real when the LU sign has a positive real part; otherwise
    the log has no real value and SpectralRadiusExceeded is raised.
    """
    sign, logabs = np.linalg.slogdet(np.eye(len(K.matrix)) - K.matrix)
    if not sign.real > 0.0:
        raise SpectralRadiusExceeded(f"det(I - K) has sign {sign:.6g}, so log det has no real value")
    return float(logabs)


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
    if n_max > len(K.matrix):
        raise ValueError(f"n_max={n_max} exceeds the matrix size {len(K.matrix)}")
    e = _newton_elementary(K.power_sums(n_max), n_max)
    return [complex((-1) ** n * e[n]) for n in range(n_max + 1)]


def ff_coeffs(K: KernelMatrix, n_max: int) -> list[float]:
    """Form factor candidates f(2n) for n = 0..n_max, as reals."""
    return [c.real for c in ff_coeffs_complex(K, n_max)]
