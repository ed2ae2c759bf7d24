"""Toeplitz determinants and linear solves: the ground-truth route.

Fourier coefficients of the symbol come from contour quadrature (one FFT
of the symbol on the grid, cached per parameter point and grid), with an
independent binomial-series convolution available as a second route for
cross-checks.  Determinants use dense LU with partial pivoting; at desk
scale (N <= 64) that is both fast and more robust near the edge of
validity than any fast Toeplitz recursion.
"""

from __future__ import annotations

import functools
import warnings
from enum import Enum

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve, toeplitz
from scipy.special import binom

from .errors import RegimeMismatch, SingularMatrix
from .kernels import KernelSet
from .params import ModelParams, Regime
from .quadrature import ContourGrid, make_grid

SERIES_TERMS = 200


class Symbol(Enum):
    PHI = "phi"
    PHI1 = "phi1"


@functools.lru_cache(maxsize=64)
def _coeff_array(params: ModelParams, M: int, r: float) -> np.ndarray:
    """fft(phi(z_k)) / M on the grid make_grid(params, M, r), read-only.

    Entry n mod M is r^n a_n: with u_k = z_k / M and z_k = r w^k the
    trapezoidal sum of a_n is r^(-n) (1/M) sum_k phi(z_k) w^(-k n).
    """
    nodes = make_grid(params, M, r).nodes
    coeffs = np.fft.fft(KernelSet(params).phi(nodes)) / M
    coeffs.flags.writeable = False
    return coeffs


def clear_cache() -> None:
    _coeff_array.cache_clear()


def fourier_coeff(params: ModelParams, grid: ContourGrid, n: int, symbol: Symbol = Symbol.PHI) -> complex:
    """Coefficient a_n of the symbol (or b_n of the shifted symbol).

    The M-node trapezoidal sum sum_k u_k phi(z_k) z_k^(-n-1), wrap-around
    aliasing included, read off one FFT per (params, M, r).  The
    shifted-symbol coefficients satisfy b_n = a_{n-1} identically, so
    they are looked up rather than re-integrated; the two calls return
    bit-identical values.
    """
    if symbol is Symbol.PHI1:
        return fourier_coeff(params, grid, n - 1, Symbol.PHI)
    return complex(_coeff_array(params, grid.M, grid.r)[n % grid.M] * grid.r ** -n)


# ----------------------------------------------------------------------
# independent series route
# ----------------------------------------------------------------------

def _binom_coeffs(exponent: float, a: float, terms: int) -> np.ndarray:
    """Taylor coefficients of (1 - a z)**exponent up to z**(terms-1)."""
    k = np.arange(terms)
    return binom(exponent, k) * (-a) ** k


def fourier_coeff_series(params: ModelParams, n: int, symbol: Symbol = Symbol.PHI,
                         terms: int = SERIES_TERMS) -> float:
    """Series-convolution route to the same coefficients.

    Expands each square-root factor of the symbol as a binomial series in
    z (respectively 1/z), Cauchy-multiplies the pair on each side, and
    reads the requested Laurent coefficient off the two tails.  Entirely
    independent of the quadrature route.  Above the critical point the
    physical branch of the symbol is minus the per-factor principal
    product (see KernelSet.phi), hence the sign flip there.
    """
    a1, a2 = params.alpha1, params.alpha2
    if params.regime is Regime.BELOW:
        # natural index-0 symbol is phi itself
        m = n if symbol is Symbol.PHI else n - 1
        sign = 1.0
        plus = np.convolve(_binom_coeffs(0.5, a1, terms), _binom_coeffs(-0.5, a2, terms))[:terms]
        minus = np.convolve(_binom_coeffs(0.5, a2, terms), _binom_coeffs(-0.5, a1, terms))[:terms]
    else:
        # above the critical point the shifted symbol has index 0
        m = n + 1 if symbol is Symbol.PHI else n
        sign = -1.0
        plus = np.convolve(_binom_coeffs(0.5, a1, terms), _binom_coeffs(0.5, 1.0 / a2, terms))[:terms]
        minus = np.convolve(_binom_coeffs(-0.5, a1, terms), _binom_coeffs(-0.5, 1.0 / a2, terms))[:terms]
    if m >= 0:
        upper = terms - m
        return float(sign * np.dot(plus[m:m + upper], minus[:upper]))
    k = -m
    upper = terms - k
    return float(sign * np.dot(plus[:upper], minus[k:k + upper]))


# ----------------------------------------------------------------------
# matrices, determinants, solves
# ----------------------------------------------------------------------

def toeplitz_matrix(params: ModelParams, N: int, symbol: Symbol = Symbol.PHI,
                    grid: ContourGrid | None = None, route: str = "quadrature") -> np.ndarray:
    """N x N Toeplitz matrix with entries c_{i-j} of the chosen symbol."""
    if N < 1:
        raise ValueError("matrix size must be at least 1")
    if route == "quadrature":
        if grid is None:
            grid = make_grid(params)
        coeff = lambda n: fourier_coeff(params, grid, n, symbol)
    elif route == "series":
        coeff = lambda n: fourier_coeff_series(params, n, symbol)
    else:
        raise ValueError(f"unknown coefficient route {route!r}")
    col = np.array([coeff(i) for i in range(N)], dtype=complex)
    row = np.array([coeff(-j) for j in range(N)], dtype=complex)
    return toeplitz(col, row)


def _lu_det(mat: np.ndarray) -> complex:
    with warnings.catch_warnings():
        # a zero pivot is handled explicitly below
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(mat, check_finite=True)
    diag = np.diag(lu)
    if np.any(diag == 0.0):
        raise SingularMatrix("zero pivot in LU factorization")
    swaps = int(np.sum(piv != np.arange(len(piv))))
    return complex((-1) ** swaps * np.prod(diag))


def det_DN(params: ModelParams, N: int, grid: ContourGrid | None = None,
           route: str = "quadrature") -> float:
    """Determinant of the N x N correlation matrix (the oracle value).

    Returns the real part; the imaginary residue is at rounding level
    because the grid is conjugate-symmetric.
    """
    return _lu_det(toeplitz_matrix(params, N, Symbol.PHI, grid, route)).real


def det_DhatN(params: ModelParams, N: int, grid: ContourGrid | None = None,
              route: str = "quadrature") -> float:
    """Determinant of the N x N shifted-symbol matrix, above the critical point."""
    if params.regime is not Regime.ABOVE:
        raise RegimeMismatch("shifted-symbol determinant is an above-regime object")
    return _lu_det(toeplitz_matrix(params, N, Symbol.PHI1, grid, route)).real


def solve_x(params: ModelParams, N: int, matrix: str = "A",
            grid: ContourGrid | None = None) -> np.ndarray:
    """Solve the (N+1) x (N+1) Toeplitz system M x = e_0.

    matrix "A" uses the plain symbol; matrix "B" the shifted one (above
    the critical point only).  Returns the N+1 real solution entries.
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    if matrix == "A":
        symbol = Symbol.PHI
    elif matrix == "B":
        if params.regime is not Regime.ABOVE:
            raise RegimeMismatch("matrix B exists above the critical point only")
        symbol = Symbol.PHI1
    else:
        raise ValueError(f"matrix must be 'A' or 'B', got {matrix!r}")
    mat = toeplitz_matrix(params, N + 1, symbol, grid)
    rhs = np.zeros(N + 1, dtype=complex)
    rhs[0] = 1.0
    try:
        lu, piv = lu_factor(mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - scipy raises ValueError instead
        raise SingularMatrix(str(exc)) from exc
    if np.any(np.diag(lu) == 0.0):
        raise SingularMatrix("zero pivot in LU factorization")
    x = lu_solve((lu, piv), rhs)
    return x.real
