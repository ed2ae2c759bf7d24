"""Toeplitz determinants and linear solves: the ground-truth route.

Fourier coefficients of the symbol come from contour quadrature (one FFT
of the symbol on the grid, cached per parameter point and grid), with an
independent binomial-series convolution available as a second route for
cross-checks.  The same cached FFTs of the chain weights give their
contour moments, from which fredholm builds the chain kernel.
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

import numpy as np

from .errors import NonFinite, RegimeMismatch, SingularMatrix
from .kernels import KernelSet
from .params import ModelParams, Regime
from .quadrature import ContourGrid, make_grid

SERIES_TERMS = 200


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


def fourier_coeff(params: ModelParams, grid: ContourGrid, n: int) -> complex:
    """Coefficient a_n of the symbol.

    The M-node trapezoidal sum sum_k u_k phi(z_k) z_k^(-n-1), wrap-around
    aliasing included, read off one FFT per (params, M, r).
    """
    return complex(_coeff_array(params, grid.M, grid.r, "phi")[n % grid.M] * grid.r ** -n)


def contour_moments(params: ModelParams, grid: ContourGrid, weight: str,
                    start: int, count: int) -> np.ndarray:
    """m(j) = sum_k u_k w(z_k) z_k^j for j = start..start+count-1.

    w is the KernelSet evaluator named by weight.  m(j) is the
    trapezoidal Laurent coefficient a_(-(j+1)) of w, read off the same
    cached FFT as fourier_coeff.
    """
    j1 = np.arange(start + 1, start + count + 1)
    return _coeff_array(params, grid.M, grid.r, weight)[-j1 % grid.M] * grid.r ** j1


# ----------------------------------------------------------------------
# independent series route
# ----------------------------------------------------------------------

def _binom_coeffs(exponent: float, a: float, terms: int) -> np.ndarray:
    """Taylor coefficients of (1 - a z)**exponent up to z**(terms-1).

    binom(e, k) is the cumulative product of (e - i + 1)/i over i = 1..k,
    taken in integers over the exact ratio e = num/den, so each
    coefficient is rounded once.
    """
    num, den = float(exponent).as_integer_ratio()
    binoms = np.empty(terms)
    top = bottom = 1
    for k in range(terms):
        binoms[k] = top / bottom
        top *= num - k * den
        bottom *= (k + 1) * den
    return binoms * (-a) ** np.arange(terms)


def fourier_coeff_series(params: ModelParams, n: int, terms: int = SERIES_TERMS) -> float:
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
        m = n
        sign = 1.0
        plus = np.convolve(_binom_coeffs(0.5, a1, terms), _binom_coeffs(-0.5, a2, terms))[:terms]
        minus = np.convolve(_binom_coeffs(0.5, a2, terms), _binom_coeffs(-0.5, a1, terms))[:terms]
    else:
        # above the critical point the shifted symbol z phi has index 0
        m = n + 1
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
