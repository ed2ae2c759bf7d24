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
Separation enters only as the offset N: every section of a grid is a
window into its one moment table (toeplitz.moment_table), which holds
the two moment sequences, c, L and strided Hankel windows of the scaled
moments, so P and Q are two basic slices of it and build_kernel does no
more than slice them and form K = P Q.  For real alpha the moments are
real, so the section, its power sums, form factors and log det are
computed in float64, and what the readers take from it are Python
floats; the imaginary residue of the grid is a property of the direct
grid products alone.

The section's power sums p_n = tr((PQ)^n) carry the whole family: the
order-2n closed-chain coefficient is -p_n/n, and Newton's identities
turn p_1..p_n into the signed elementary symmetric functions of the
spectrum, which are the form factor terms (form_factors, which
ff_coeffs and the expansion readers share).  The sums, -n times the
Taylor coefficients of log det(I - zK), are read as traces of two powers
of K (KernelMatrix.power_sums), each by a formula of its order alone, so
a shorter list is a bit-exact prefix of a longer one.  Both expansions are
Taylor series of det(I - K), which one LU of the section sums to all
orders.  There is one section per (grid, N), shared by every route and
order: expansions._section_terms keeps the floats it yields, the power
sums and the open chains, in the moment table under N, and builds the
section again only for a higher order than it kept.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import SpectralRadiusExceeded
from .params import ModelParams
from .quadrature import ContourGrid
from .toeplitz import MomentTable, moment_table


@dataclass
class KernelMatrix:
    """Chain kernel section (L x L) of the M-node grid, immutable after build."""

    matrix: np.ndarray
    N: int
    M: int

    def power_sums(self, n_max: int) -> np.ndarray:
        """p_1..p_{n_max} with p_n = tr(K^n), as traces of two powers.

        p_1 = tr K, and p_n = sum_ij (K^a)_ij (K^b)_ji with a = ceil(n/2)
        and b = floor(n/2) for n >= 2: one dot product of K^a with the
        transposed copy of K^b, with no elementwise temporary.  K^(j+1) is
        K^j K whatever n_max is, so each p_n is computed by a formula of n
        alone and the sums are prefix-stable bit for bit
        (power_sums(n)[:k] equals power_sums(k)).  The n_max sums cost
        ceil(n_max/2) - 1 matrix products and floor(n_max/2) transposed
        copies.
        """
        if n_max < 0:
            raise ValueError("n_max must be non-negative")
        K = self.matrix
        p = np.empty(n_max, dtype=K.dtype)
        if n_max:
            p[0] = np.add.reduce(K.diagonal())
        # power is K^a and flat the flattened (K^b)^T at step n
        power = K
        for n in range(2, n_max + 1):
            if n % 2:
                power = power @ K
            else:
                flat = power.T.ravel()
            p[n - 1] = np.dot(power.ravel(), flat)
        return p

    def trace_power(self, n: int) -> float:
        """tr(K^n), the last of the power sums p_1..p_n."""
        if n < 1:
            raise ValueError("power must be at least 1")
        return float(self.power_sums(n)[n - 1])


def _chain_section(table: MomentTable, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Hankel factors P, Q of the chain kernel at separation N.

    Both are basic slices of the strided windows of the grid's moment
    table (toeplitz.moment_table, holding the weights odd, even = qq, pp
    below T_c and qq_hat, pp_hat above): read-only views of its one
    scaled copy of each moment sequence, with no gather and no per-call
    scaling.  P[s, t] = c m_odd(N + s + t) and Q[s, t] = c m_even(N + s + t).
    """
    rows = slice(N + 1, N + 1 + table.L)
    return table.odd_windows[rows], table.even_windows[rows]


def build_kernel(params: ModelParams, grid: ContourGrid, N: int,
                 table: MomentTable | None = None) -> KernelMatrix:
    """The L x L section P Q of the closed-chain kernel at separation N.

    Its power sums equal those of the M x M grid kernel A B with
    A[j, k] = u_j W_odd(z_j) z_j^N / (1 - z_j z_k) and
    B[k, j] = u_k W_even(z_k) z_k^N / (1 - z_k z_j), up to moments
    below the rounding level (exactly, when L = M).  table, when given,
    is moment_table(params, grid, N), which the caller already holds.
    """
    P, Q = _chain_section(moment_table(params, grid, N) if table is None else table, N)
    return KernelMatrix(P @ Q, N, grid.M)


def log_det_expansion(K: KernelMatrix) -> float:
    """log det(I - K), the exponential series summed to all orders, from one LU.

    det(I - K) must be positive (for a complex K, the LU sign must have
    a positive real part); otherwise the log has no real value and
    SpectralRadiusExceeded is raised.
    """
    sign, logabs = np.linalg.slogdet(np.eye(len(K.matrix)) - K.matrix)
    if not sign.real > 0.0:
        raise SpectralRadiusExceeded(f"det(I - K) has sign {sign:.6g}, so log det has no real value")
    return float(logabs)


def ff_coeffs(K: KernelMatrix, n_max: int) -> list[float]:
    """Form factors f(2n) = (-1)^n e_n of the section K for n = 0..n_max (at
    most its size), by Newton's identities on its power sums."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if n_max > len(K.matrix):
        raise ValueError(f"n_max={n_max} exceeds the matrix size {len(K.matrix)}")
    return form_factors(K.power_sums(n_max).tolist(), len(K.matrix))


def form_factors(p: Sequence[float], size: int) -> list[float]:
    """(-1)^n e_n for n = 0..len(p), by Newton's identities on the power
    sums p = [p_1, p_2, ...] of a size x size section; each depends on
    p_1..p_n only, and e_n vanishes past the size, so len(p) may not
    exceed it."""
    n_max = len(p)
    if n_max > size:
        raise ValueError(f"n_max={n_max} exceeds the matrix size {size}")
    e, f = [1.0], [1.0]
    for n in range(1, n_max + 1):
        acc = 0.0
        for k in range(1, n + 1):
            term = e[n - k] * p[k - 1]
            acc += term if k % 2 else -term
        e.append(acc / n)
        f.append(-e[n] if n % 2 else e[n])
    return f
