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
and section_form_factors share).  The sums, -n times the Taylor
coefficients of log det(I - zK), are read as traces of two powers of K
(power_sums), each by a formula of its order alone, so a shorter list is
a bit-exact prefix of a longer one.  The open chains of the ratio series
are bilinear forms in the same moments, with K applied as P (Q v).  Both
expansions are Taylor series of det(I - K), which one LU of the section
sums to all orders.  The expansion readers take the sums, the chains
and the form factors as Python floats from section_sums, section_chains
and section_form_factors, the seam behind which the section lives: the
first two alone keep the floats per (grid, N) in the moment table's two
records, MomentTable.sums and MomentTable.chains, so every route, order
and term of one (grid, N) shares one section, and the third reads the
section size from the same table.  Tables and the verify suites read
runs of consecutive separations on one grid, so a miss at N whose record
already holds N - 1 (a run is being read) extends that record over the
block N..N + BLOCK - 1 in one batched pass, while any other miss, such
as a lone read, fills N alone (_extend): the factors of the block's
sections are two zero-copy stacks of the table's Hankel views, and their
sums or open chains come from stacked products, one contraction per
sum; above T_c, where every entry reads both, a miss of the sums also
extends the chains.  A section's floats are computed by the same formula
whatever block it falls in, so the records are the same bit for bit in
any call order.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from .errors import SpectralRadiusExceeded
from .params import ModelParams, Regime
from .quadrature import ContourGrid
from .toeplitz import MomentTable, moment_table


def power_sums(K: np.ndarray, n_max: int) -> np.ndarray:
    """p_1..p_{n_max} with p_n = tr(K^n), as traces of two powers.

    K is one L x L section, or a (count, L, L) stack of them, whose sums
    come back as a (count, n_max) array.  p_1 = tr K, and
    p_n = sum_ij (K^a)_ij (K^b)_ji with a = ceil(n/2) and b = floor(n/2)
    for n >= 2: one contraction per sum and section, of K^a with the
    transposed copy of K^b, with no elementwise temporary.  Every step
    is one stacked numpy call whose work for a section is the same
    whatever else the stack holds, and K^(j+1) is K^j K whatever n_max
    is, so each p_n of a section is computed by a formula of n and that
    section alone: the sums are prefix-stable bit for bit
    (power_sums(K, n)[..., :k] equals power_sums(K, k)) and do not
    depend on the stack a section is read in.  The n_max sums cost
    ceil(n_max/2) - 1 matrix products and floor(n_max/2) transposed
    copies.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    stack = K.reshape(-1, *K.shape[-2:])
    count, size = len(stack), stack.shape[-1]
    p = np.empty((count, n_max), dtype=K.dtype)
    if n_max:
        p[:, 0] = np.add.reduce(np.diagonal(stack, axis1=1, axis2=2), axis=1)
    # power is K^a and flat the columns of the flattened (K^b)^T at step n
    power = stack
    for n in range(2, n_max + 1):
        if n % 2:
            power = power @ stack
        else:
            flat = np.ascontiguousarray(power.transpose(0, 2, 1)).reshape(count, -1, 1)
        p[:, n - 1] = (power.reshape(count, 1, size * size) @ flat)[:, 0, 0]
    return p if K.ndim == 3 else p[0]


def build_kernel(params: ModelParams, grid: ContourGrid, N: int | slice) -> np.ndarray:
    """The L x L section P Q of the closed-chain kernel at separation N.

    P and Q are basic slices of the stacked Hankel views of the grid's
    moment table (toeplitz.moment_table, holding the weights odd, even =
    qq, pp below T_c and qq_hat, pp_hat above): read-only views of its
    one scaled copy of each moment sequence, with no gather and no
    per-call scaling, P[s, t] = c m_odd(N + s + t) and
    Q[s, t] = c m_even(N + s + t).  The power sums of P Q equal those of
    the M x M grid kernel A B with
    A[j, k] = u_j W_odd(z_j) z_j^N / (1 - z_j z_k) and
    B[k, j] = u_k W_even(z_k) z_k^N / (1 - z_k z_j), up to moments
    below the rounding level (exactly, when L = M).  N may also be a
    slice start:stop of consecutive separations, which gives the stack of
    their sections, one stacked product over two zero-copy Hankel views;
    the section seam builds its blocks this way.
    """
    table = moment_table(params, grid, N if isinstance(N, int) else N.stop - 1)
    return table.odd_sections[N] @ table.even_sections[N]


#: separations one pass of the section seam fills inside a run: a miss at
#: N with N - 1 recorded computes N..N + BLOCK - 1 at once, as far as the
#: moment table of N reaches.  At M = 64 on one thread, the power sums to
#: order 3 of eight sections took 61/86/73 us at L = 18/29/38, against
#: 31/35/24 us for one; sixteen took 92 us at L <= 29 but 205 us at
#: L = 38, where the stack leaves the cache
BLOCK = 8


def _extend(record: dict, table: MomentTable, N: int, n: int,
            values: Callable[[slice], np.ndarray]) -> None:
    """Extend record, one of the table's two, which lacks order n at N:
    the rows of values(run) become its entries from N on, as tuples of
    Python floats.

    The run lies in the block N..N + BLOCK - 1 when the record holds
    N - 1, so a run of separations is being read, and is N alone
    otherwise, so a lone read pays for one section; it ends at the first
    entry that already holds order n and at the table's end.  Every pass
    fills such a run whole, so no entry past that first one lacks the
    order either, and kept entries are neither recomputed nor shortened.
    """
    stop = min(N + BLOCK, len(table.odd_sections)) if N - 1 in record else N + 1
    end = N + 1
    while end < stop and len(record.get(end, ())) < n:
        end += 1
    record.update(zip(range(N, end), map(tuple, values(slice(N, end)).tolist())))


def _open_chains(table: MomentTable, run: slice, n: int, above: bool) -> np.ndarray:
    """The open chains to order n of the sections in the run, one row each.

    With the end vectors x_k = m_even(S - 1 + k) and y_k = m_odd(S - 1 + k)
    of the section at S, they are -c x^T v for v = K^(k-1) y below T_c
    and v = K^(k-1) P x above, k = 1..n, with K applied as P (Q v): no
    section is built.
    """
    P, Q = table.odd_sections[run], table.even_sections[run]
    ends = np.arange(run.start, run.stop)[:, None] + np.arange(table.L)
    x = table.even[ends][:, None, :]
    # v runs through K^(k-1) y below and K^(k-1) P x above
    v = P @ x.transpose(0, 2, 1) if above else table.odd[ends][:, :, None]
    values = np.empty((len(ends), n))
    for k in range(n):
        if k:
            v = P @ (Q @ v)
        values[:, k] = (x @ v)[:, 0, 0]
    return -table.c * values


def section_sums(params: ModelParams, grid: ContourGrid, N: int, n: int) -> tuple[float, ...]:
    """The power sums p_1..p_n of the section at separation N, as Python floats.

    They are kept in the table's record MomentTable.sums under N, and
    since they are prefix-stable, sections are built only when more are
    asked for than the record holds (none at n = 0), a block of them at a
    time once N - 1 is recorded; above T_c, where every entry reads both,
    the same miss also fills the open chains.
    """
    table = moment_table(params, grid, N)
    sums = table.sums.get(N, ())
    if len(sums) < n:
        _extend(table.sums, table, N, n, lambda run: power_sums(build_kernel(params, grid, run), n))
        if params.regime is Regime.ABOVE:
            section_chains(params, grid, N, n)
        sums = table.sums[N]
    return sums[:n]


def section_form_factors(params: ModelParams, grid: ContourGrid, N: int, n: int) -> list[float]:
    """The form factors (-1)^k e_k, k = 0..n, of the section at separation N.

    n may not exceed the section size L, which is checked before any power
    sum is read; the form factors come from section_sums by Newton's
    identities (form_factors).
    """
    L = moment_table(params, grid, N).L
    if n > L:
        raise ValueError(f"n_max={n} exceeds the matrix size {L}")
    return form_factors(section_sums(params, grid, N, n), L)


def section_chains(params: ModelParams, grid: ContourGrid, N: int, n: int) -> tuple[float, ...]:
    """The open chains of separation N - 1 to order n, as Python floats.

    With x_k = m_even(N - 1 + k), y_k = m_odd(N - 1 + k) and K = P Q the
    section at N, they are phi_2k = -c x^T K^(k-1) y (k = 1..n) below
    T_c, and above it G_1 = -m_even(N - 2), one entry of the moment table,
    followed by G_(2k+1) = -c x^T K^(k-1) P x (k = 1..n).  K is applied as
    P (Q v), so no section is built.  The chains past G_1 are kept in the
    table's record MomentTable.chains under N, and a miss fills those of
    the whole block at N once N - 1 is recorded there.
    """
    table = moment_table(params, grid, N)
    above = params.regime is Regime.ABOVE
    chains = table.chains.get(N, ())
    if len(chains) < n:
        _extend(table.chains, table, N, n, lambda run: _open_chains(table, run, n, above))
        chains = table.chains[N]
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
