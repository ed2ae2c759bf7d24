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
moments, so P and Q are two basic slices of it.  For real alpha
the moments are real, so the section, its power sums, form factors and
log det are computed in float64; the imaginary residue of the grid is a
property of the direct grid products alone.

The section's power sums p_n = tr((PQ)^n) carry the whole family: the
order-2n closed-chain coefficient is -p_n/n, and Newton's identities
turn p_1..p_n into the signed elementary symmetric functions of the
spectrum, which are the form factor terms (form_factors, which
ff_coeffs and the expansion readers share).  Both expansions are Taylor
series of det(I - K), which one LU of the section sums to all orders.
There is one section per (grid, N), shared by every route and order:
expansions._section_terms keeps the floats it yields, the power sums
and the open chains, in the moment table under N, and builds the section
again only for a higher order than it kept.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import SpectralRadiusExceeded
from .params import ModelParams
from .quadrature import ContourGrid
from .toeplitz import MomentTable, moment_table


@dataclass
class KernelMatrix:
    """Chain kernel section (L x L) of the M-node grid, immutable after build.

    section holds the factors it was multiplied from and the moment table
    they are windows into, (P, Q, x_odd, x_even, c, table) as returned by
    _chain_section; the open chains read them.
    """

    matrix: np.ndarray
    N: int
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
        KT, power = K.T, K                         # power is K^(n-1) at step n
        p = [K.trace()] if n_max else []
        for n in range(2, n_max + 1):
            p.append((power * KT).sum())
            if n < n_max:
                power = power @ K
        return np.array(p, dtype=K.dtype)

    def trace_power(self, n: int) -> float:
        """tr(K^n), the last of the power sums p_1..p_n."""
        if n < 1:
            raise ValueError("power must be at least 1")
        return float(self.power_sums(n)[n - 1])


def _chain_section(params: ModelParams, grid: ContourGrid, N: int,
                   table: MomentTable | None = None):
    """Hankel factors P, Q of the chain kernel at separation N.

    Both are basic slices of the strided windows of the grid's moment
    table (toeplitz.moment_table) of the weights odd, even = qq, pp below
    T_c and qq_hat, pp_hat above: read-only views of its one scaled copy
    of each moment sequence, with no gather and no per-call scaling.
    Returns (P, Q, x_odd, x_even, c, table) with x_odd[k] = m_odd(N - 1 + k)
    and x_even[k] = m_even(N - 1 + k) for k < L, the end vectors of the
    open chains at N - 1, also views into the table.  table is
    moment_table(params, grid, N), looked up here unless the caller holds it.
    """
    T = moment_table(params, grid, N) if table is None else table
    rows, ends = slice(N + 1, N + 1 + T.L), slice(N, N + T.L)
    return T.odd_windows[rows], T.even_windows[rows], T.odd[ends], T.even[ends], T.c, T


def build_kernel(params: ModelParams, grid: ContourGrid, N: int,
                 table: MomentTable | None = None) -> KernelMatrix:
    """The L x L section P Q of the closed-chain kernel at separation N.

    Its power sums equal those of the M x M grid kernel A B with
    A[j, k] = u_j W_odd(z_j) z_j^N / (1 - z_j z_k) and
    B[k, j] = u_k W_even(z_k) z_k^N / (1 - z_k z_j), up to moments
    below the rounding level (exactly, when L = M).  table, when given,
    is moment_table(params, grid, N), which the caller already holds.
    """
    section = _chain_section(params, grid, N, table)
    P, Q = section[:2]
    return KernelMatrix(matrix=P @ Q, N=N, M=grid.M, section=section)


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
