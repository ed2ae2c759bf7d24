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
more than slice them and form the L x L array K = P Q.  For real alpha
the moments are real, so the section, its power sums, form factors and
log det are computed in float64, and what the readers take from it are
Python floats; the imaginary residue of the grid is a property of the
direct grid products alone.

The section's power sums p_n = tr(K^n) carry the whole family: the
order-2n closed-chain coefficient is -p_n/n, and Newton's identities
turn p_1..p_n into the signed elementary symmetric functions of the
spectrum, which are the form factor terms (form_factors, which ff_coeffs
and the expansion readers share).  The sums, -n times the Taylor
coefficients of log det(I - zK), are read as traces of two powers of K
(power_sums), each by a formula of its order alone, so a shorter list is
a bit-exact prefix of a longer one.  The open chains of the ratio series
are bilinear forms in the same moments, with K applied as P (Q v).  Both
expansions are Taylor series of det(I - K), which one LU of the section
sums to all orders.  The expansion readers take the sums and the chains
as Python floats from section_sums and section_chains, which alone keep
them per (grid, N) in the moment table's record (MomentTable.sections),
so every route, order and term of one (grid, N) shares one section.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import SpectralRadiusExceeded
from .params import ModelParams, Regime
from .quadrature import ContourGrid
from .toeplitz import MomentTable, moment_table


def power_sums(K: np.ndarray, n_max: int) -> np.ndarray:
    """p_1..p_{n_max} with p_n = tr(K^n), as traces of two powers.

    p_1 = tr K, and p_n = sum_ij (K^a)_ij (K^b)_ji with a = ceil(n/2)
    and b = floor(n/2) for n >= 2: one dot product of K^a with the
    transposed copy of K^b, with no elementwise temporary.  K^(j+1) is
    K^j K whatever n_max is, so each p_n is computed by a formula of n
    alone and the sums are prefix-stable bit for bit
    (power_sums(K, n)[:k] equals power_sums(K, k)).  The n_max sums cost
    ceil(n_max/2) - 1 matrix products and floor(n_max/2) transposed
    copies.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
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
                 table: MomentTable | None = None) -> np.ndarray:
    """The L x L section P Q of the closed-chain kernel at separation N.

    Its power sums equal those of the M x M grid kernel A B with
    A[j, k] = u_j W_odd(z_j) z_j^N / (1 - z_j z_k) and
    B[k, j] = u_k W_even(z_k) z_k^N / (1 - z_k z_j), up to moments
    below the rounding level (exactly, when L = M).  table, when given,
    is moment_table(params, grid, N), which the caller already holds.
    """
    P, Q = _chain_section(moment_table(params, grid, N) if table is None else table, N)
    return P @ Q


def section_sums(params: ModelParams, grid: ContourGrid, N: int, n: int) -> tuple[float, ...]:
    """The power sums p_1..p_n of the section at separation N, as Python floats.

    They are kept in the table's record under N, and since they are
    prefix-stable, a section is built only when more are asked for than
    the record holds: none at n = 0.
    """
    table = moment_table(params, grid, N)
    sums, chains = table.sections.get(N, ((), ()))
    if len(sums) < n:
        sums = tuple(power_sums(build_kernel(params, grid, N, table), n).tolist())
        table.sections[N] = sums, chains
    return sums[:n]


def section_chains(params: ModelParams, grid: ContourGrid, N: int, n: int) -> tuple[float, ...]:
    """The open chains of separation N - 1 to order n, as Python floats.

    With x_k = m_even(N - 1 + k), y_k = m_odd(N - 1 + k) and K = P Q the
    section at N, they are phi_2k = -c x^T K^(k-1) y (k = 1..n) below
    T_c, and above it G_1 = -m_even(N - 2), one entry of the moment table,
    followed by G_(2k+1) = -c x^T K^(k-1) P x (k = 1..n).  K is applied as
    P (Q v), so no section is built.  The chains past G_1 are kept in the
    table's record under N, next to the power sums.
    """
    table = moment_table(params, grid, N)
    sums, chains = table.sections.get(N, ((), ()))
    above = params.regime is Regime.ABOVE
    if len(chains) < n:
        ends, c = slice(N, N + table.L), table.c
        x, y = table.even[ends], table.odd[ends]
        P, Q = _chain_section(table, N)
        # v runs through K^(k-1) y below and K^(k-1) P x above
        v, values = (P @ x if above else y), []
        for k in range(1, n + 1):
            if k > 1:
                v = P @ (Q @ v)
            values.append(float(-c * (x @ v)))
        chains = tuple(values)
        table.sections[N] = sums, chains
    if above:
        return (-float(table.even[N - 1]),) + chains[:n]
    return chains[:n]


def log_det_expansion(K: np.ndarray) -> float:
    """log det(I - K), the exponential series summed to all orders, from one LU.

    det(I - K) must be positive (for a complex K, the LU sign must have
    a positive real part); otherwise the log has no real value and
    SpectralRadiusExceeded is raised.
    """
    sign, logabs = np.linalg.slogdet(np.eye(len(K)) - K)
    if not sign.real > 0.0:
        raise SpectralRadiusExceeded(f"det(I - K) has sign {sign:.6g}, so log det has no real value")
    return float(logabs)


def ff_coeffs(K: np.ndarray, n_max: int) -> list[float]:
    """Form factors f(2n) = (-1)^n e_n of the section K for n = 0..n_max (at
    most its size, checked before any power sum), by Newton's identities."""
    if n_max > len(K):
        raise ValueError(f"n_max={n_max} exceeds the matrix size {len(K)}")
    return form_factors(power_sums(K, n_max).tolist(), len(K))


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
