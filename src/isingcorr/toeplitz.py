"""Toeplitz determinants and linear solves: the ground-truth route.

Fourier coefficients of the symbol come from contour quadrature (one FFT
of the symbol on the grid, cached per parameter point and grid), with an
independent binomial-series convolution available as a second route for
cross-checks.  The same cached FFTs of the chain weights give their
contour moments, kept as one real table per grid (moment_table); every
chain kernel section fredholm builds is a pair of basic slices of its
strided Hankel windows, with no gather (a block of consecutive sections
is a basic slice of the same windows seen as a stack), and the table
carries two records of the floats the sections yield, their power sums
(MomentTable.sums) and their open chains (MomentTable.chains), which
fredholm's section_sums and section_chains alone read and write.  The
moments are real for real alpha on the conjugate-symmetric grid, so the
table holds the real parts of the FFT moments; their imaginary residue
is rounding, at most about eps max|w(z_k)|, and stays with
contour_moments, the tests' reference.  The coefficients of the symbol,
the Toeplitz matrices and their determinants and solves stay complex.
The shifted symbol above the critical point has coefficients
b_n = a_(n-1), so its N x N matrix is the (N+1) x (N+1) matrix of phi
without its last row and first column; det_DhatN and solve_x read it
as that slice.
Determinants use dense LU with partial pivoting; at desk scale (N <= 64)
that is both fast and more robust near the edge of validity than any
fast Toeplitz recursion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFinite, RegimeMismatch, SingularMatrix
from .kernels import KernelSet
from .params import ModelParams, Regime
from .quadrature import ContourGrid, make_grid, r_min


@functools.lru_cache(maxsize=64)
def _coeff_array(params: ModelParams, M: int, r: float, function: str) -> np.ndarray:
    """fft(f(z_k)) / M on the grid make_grid(params, M, r), read-only.

    f is the KernelSet evaluator named by function (phi or a chain
    weight).  Entry n mod M is r^n a_n: with u_k = z_k / M and
    z_k = r e^(2 pi i k / M) the trapezoidal sum of the Laurent
    coefficient a_n of f is r^(-n) (1/M) sum_k f(z_k) e^(-2 pi i k n / M).
    """
    nodes = make_grid(params, M, r).nodes
    values = getattr(KernelSet(params), function)(nodes)
    if not np.all(np.isfinite(values)):
        raise NonFinite(f"{function} evaluated to non-finite values on the grid")
    coeffs = np.fft.fft(values) / M
    coeffs.flags.writeable = False
    return coeffs


def clear_cache() -> None:
    _coeff_array.cache_clear()
    _moment_table.cache_clear()
    _factor_series.cache_clear()


def fourier_coeff(params: ModelParams, grid: ContourGrid, n: int) -> complex:
    """Coefficient a_n of the symbol.

    The M-node trapezoidal sum sum_k u_k phi(z_k) z_k^(-n-1), wrap-around
    aliasing included, read off one FFT per (params, M, r).
    """
    return complex(_coeff_array(params, grid.M, grid.r, "phi")[n % grid.M] * grid.r ** -n)


def _moments(params: ModelParams, M: int, r: float, weight: str, j1: np.ndarray) -> np.ndarray:
    """m(j1 - 1) for every j1: the trapezoidal Laurent coefficients a_(-j1) of the weight."""
    return _coeff_array(params, M, r, weight)[-j1 % M] * r ** j1


def contour_moments(params: ModelParams, grid: ContourGrid, weight: str,
                    start: int, count: int) -> np.ndarray:
    """m(j) = sum_k u_k w(z_k) z_k^j for j = start..start+count-1.

    w is the KernelSet evaluator named by weight.  m(j) is the
    trapezoidal Laurent coefficient a_(-(j+1)) of w, read off the same
    cached FFT as fourier_coeff.  The program reads moments from
    moment_table; this per-call gather is the reference it is tested
    against.
    """
    return _moments(params, grid.M, grid.r, weight, np.arange(start + 1, start + count + 1))


def section_size(params: ModelParams, M: int) -> int:
    """L = min(M, ceil(ln 2^-53 / (2 ln r_min)) + 2).

    Positive moments decay like r_min^j, so entries of the chain kernel
    section P Q beyond L fall below the float64 rounding of its leading
    ones.
    """
    return min(M, math.ceil(-53.0 * math.log(2.0) / (2.0 * math.log(r_min(params)))) + 2)


@dataclass(frozen=True)
class MomentTable:
    """The chain-weight moments of one grid, read by every kernel section.

    odd[i] = m_odd(i - 1) and even[i] = m_even(i - 1), the Laurent
    coefficients a_(-i) of the regime's weights (qq, pp below T_c,
    qq_hat, pp_hat above), for i < len(odd), as float64: the weights are
    real on the real axis, so on the conjugate-symmetric grid the moments
    are real and the FFT's imaginary part is rounding, which is dropped
    here and kept by contour_moments.  c = 1/(1 - r^(2M)) and L is the
    section size.  odd_sections and even_sections are strided views of
    one scaled copy of each sequence, seen as stacks of Hankel sections:
    odd_sections[N] is the factor P of the section at separation N,
    P[s, t] = c odd[N + 1 + s + t], and even_sections[N] likewise Q, for
    every N the table serves (N + 2L <= len(odd)); a slice of separations
    gives the (count, L, L) stack of them, also with no copy.  Every
    array is read-only.

    sums and chains are the two records of what the sections yield: each
    maps a separation N to a tuple of Python floats, to the highest order
    read so far, sums the power sums of the section at N and chains the
    open chains read from it.  fredholm.section_sums and
    fredholm.section_chains alone fill them, a block of consecutive
    separations per miss inside a run of them.  They are the one mutable
    part, which lives and dies with the cached table, so clear_cache
    empties them too.
    """

    odd: np.ndarray
    even: np.ndarray
    c: float
    L: int
    odd_sections: np.ndarray
    even_sections: np.ndarray
    sums: dict = field(default_factory=dict, repr=False, compare=False)
    chains: dict = field(default_factory=dict, repr=False, compare=False)


@functools.lru_cache(maxsize=64)
def _moment_table(params: ModelParams, M: int, r: float, length: int) -> MomentTable:
    suffix = "_hat" if params.regime is Regime.ABOVE else ""
    j1 = np.arange(length)
    odd, even = (_moments(params, M, r, weight + suffix, j1).real.copy() for weight in ("qq", "pp"))
    for array in (odd, even):
        array.flags.writeable = False
    c, L = 1.0 / (1.0 - r ** (2 * M)), section_size(params, M)
    # stack[N, s, t] = c array[N + 1 + s + t], one read-only view per
    # sequence; its last element is c array[-1], so every stride stays inside
    count = length - 2 * L + 1
    stacks = (np.lib.stride_tricks.as_strided(scaled[1:], shape=(count, L, L),
                                              strides=(scaled.strides[0],) * 3, writeable=False)
              for scaled in (c * odd, c * even))
    return MomentTable(odd, even, c, L, *stacks)


def moment_table(params: ModelParams, grid: ContourGrid, N: int) -> MomentTable:
    """The grid's moment table, long enough for the kernel section at separation N.

    One table of 3M entries per (params, M, r) covers every N <= M; a
    larger N rebuilds it with twice the length until N + 2L entries fit.
    """
    if N < 0:
        raise ValueError(f"separation N={N} must be non-negative")
    length = 3 * grid.M
    table = _moment_table(params, grid.M, grid.r, length)
    while N + 2 * table.L > length:
        length *= 2
        table = _moment_table(params, grid.M, grid.r, length)
    return table


# ----------------------------------------------------------------------
# independent series route
# ----------------------------------------------------------------------

def _binom_coeffs(exponent: float, a: float, terms: int) -> np.ndarray:
    """Taylor coefficients of (1 - a z)**exponent up to z**(terms-1), exponent = +-1/2.

    binom(-1/2, k) = (-1)^k C(2k, k) / 4^k and binom(1/2, k) =
    -(-1)^k C(2k, k) / ((2k - 1) 4^k), with the central binomial
    C(2k, k) carried exactly by C(2k+2, k+1) = C(2k, k) 2(2k+1)/(k+1);
    one integer true division per coefficient rounds it once.
    """
    if exponent not in (0.5, -0.5):
        raise ValueError(f"exponent {exponent} must be 1/2 or -1/2")
    binoms = np.empty(terms)
    central, sign = 1, (1 if exponent < 0 else -1)
    for k in range(terms):
        odd = 1 if exponent < 0 else 2 * k - 1
        binoms[k] = sign * central / (odd << 2 * k)
        central = central * 2 * (2 * k + 1) // (k + 1)
        sign = -sign
    return binoms * (-a) ** np.arange(terms)


@functools.lru_cache(maxsize=16)
def _factor_series(params: ModelParams, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """The two convolved factor series (in z and in 1/z), read-only."""
    a1, a2 = params.alpha1, params.alpha2
    if params.regime is Regime.BELOW:
        factors = ((0.5, a1), (-0.5, a2)), ((0.5, a2), (-0.5, a1))
    else:
        factors = ((0.5, a1), (0.5, 1.0 / a2)), ((-0.5, a1), (-0.5, 1.0 / a2))
    out = tuple(np.convolve(*(_binom_coeffs(e, a, terms) for e, a in pair))[:terms] for pair in factors)
    for series in out:
        series.flags.writeable = False
    return out


def fourier_coeff_series(params: ModelParams, n: int) -> float:
    """Series-convolution route to the same coefficients.

    Expands each square-root factor of the symbol as a binomial series in
    z (respectively 1/z), Cauchy-multiplies the pair on each side, and
    reads the requested Laurent coefficient off the two tails.  Entirely
    independent of the quadrature route.  Above the critical point the
    physical branch of the symbol is minus the per-factor principal
    product (see KernelSet.phi), hence the sign flip there, and the
    shifted symbol z phi has index 0, hence m = n + 1.

    The series decay like r_min^k, so truncating them at T terms drops
    r_min^(2(T - |m|)) of the coefficient; T = ceil(ln 1e-40 / ln r_min)
    + 50 + 128 ceil((|m| + 1) / 128) puts that below 1e-80, and one
    cached pair of series serves every |m| < 128.
    """
    m, sign = (n, 1.0) if params.regime is Regime.BELOW else (n + 1, -1.0)
    base = math.ceil(math.log(1e-40) / math.log(r_min(params))) + 50
    terms = base + 128 * math.ceil((abs(m) + 1) / 128)
    plus, minus = _factor_series(params, terms)
    if m >= 0:
        return float(sign * np.dot(plus[m:], minus[:terms - m]))
    return float(sign * np.dot(plus[:terms + m], minus[-m:]))


# ----------------------------------------------------------------------
# matrices, determinants, solves
# ----------------------------------------------------------------------

def toeplitz_matrix(params: ModelParams, N: int, grid: ContourGrid | None = None,
                    route: str = "quadrature") -> np.ndarray:
    """N x N Toeplitz matrix with entries a_{i-j} of the symbol."""
    if N < 1:
        raise ValueError("matrix size must be at least 1")
    if route == "quadrature":
        if grid is None:
            grid = make_grid(params)
        coeffs = [fourier_coeff(params, grid, n) for n in range(1 - N, N)]
    elif route == "series":
        coeffs = [fourier_coeff_series(params, n) for n in range(1 - N, N)]
    else:
        raise ValueError(f"unknown coefficient route {route!r}")
    coeffs = np.array(coeffs, dtype=complex)
    i = np.arange(N)
    return coeffs[i[:, None] - i[None, :] + N - 1]


def _lu_det(mat: np.ndarray) -> complex:
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix must not contain infs or NaNs")
    sign, logabs = np.linalg.slogdet(mat)
    if sign == 0:
        raise SingularMatrix("zero pivot in LU factorization")
    return complex(sign * np.exp(logabs))


def det_DN(params: ModelParams, N: int, grid: ContourGrid | None = None,
           route: str = "quadrature") -> float:
    """Determinant of the N x N correlation matrix (the oracle value).

    Returns the real part; the imaginary residue is at rounding level
    because the grid is conjugate-symmetric.
    """
    return _lu_det(toeplitz_matrix(params, N, grid, route)).real


def det_DhatN(params: ModelParams, N: int, grid: ContourGrid | None = None,
              route: str = "quadrature") -> float:
    """Determinant of the N x N shifted-symbol matrix, above the critical point."""
    if params.regime is not Regime.ABOVE:
        raise RegimeMismatch("shifted-symbol determinant is an above-regime object")
    # b_n = a_(n-1): T_(N+1) without its last row and first column
    return _lu_det(toeplitz_matrix(params, N + 1, grid, route)[:-1, 1:]).real


def solve_x(params: ModelParams, N: int, matrix: str = "A",
            grid: ContourGrid | None = None) -> np.ndarray:
    """Solve the (N+1) x (N+1) Toeplitz system M x = e_0.

    matrix "A" uses the plain symbol; matrix "B" the shifted one (above
    the critical point only).  Returns the N+1 real solution entries.
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    if matrix == "A":
        mat = toeplitz_matrix(params, N + 1, grid)
    elif matrix == "B":
        if params.regime is not Regime.ABOVE:
            raise RegimeMismatch("matrix B exists above the critical point only")
        mat = toeplitz_matrix(params, N + 2, grid)[:-1, 1:]
    else:
        raise ValueError(f"matrix must be 'A' or 'B', got {matrix!r}")
    rhs = np.zeros(N + 1, dtype=complex)
    rhs[0] = 1.0
    try:
        x = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    return x.real
