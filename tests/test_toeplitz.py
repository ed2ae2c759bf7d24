import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isingcorr as ic
from isingcorr import toeplitz as toeplitz_module
from isingcorr.toeplitz import _binom_coeffs, _lu_det, contour_moments, toeplitz_matrix

FIXTURES = Path(__file__).parent / "fixtures" / "determinants.txt"
SRC = Path(__file__).resolve().parent.parent / "src"


def load_fixture_records():
    records = []
    for line in FIXTURES.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        a1, a2, N, value, est, route = line.split()
        records.append((float(a1), float(a2), int(N), float(value), float(est), route))
    return records


# ----------------------------------------------------------------------
# Fourier coefficients
# ----------------------------------------------------------------------

def test_coeff_quadrature_vs_series(below, above):
    for params in (below, above, ic.direct(0.2, 0.5), ic.direct(0.2, 3.0)):
        grid = ic.make_grid(params, 64)
        for n in range(-6, 7):
            quad = ic.fourier_coeff(params, grid, n)
            series = ic.fourier_coeff_series(params, n)
            assert abs(quad - series) < 1e-12, (params.alpha1, params.alpha2, n)


def test_series_coeffs_near_the_critical_point_match_a_large_grid():
    """The derived series length keeps the series route exact near T_c.

    On 16384 nodes at the midpoint radius the grid's aliasing
    (r_min/r)^M is below 1e-35 at these points, so its FFT coefficients
    are exact to rounding; a fixed 200-term series was off by up to 8e-6.
    """
    points = (ic.diagonal_from_alpha2(0.95), ic.diagonal_from_alpha2(0.99),
              ic.diagonal_from_alpha2(1.05), ic.direct(0.2, 1.05))
    for params in points:
        grid = ic.make_grid(params, 16384)
        for n in range(-63, 64):
            series = ic.fourier_coeff_series(params, n)
            assert abs(series - ic.fourier_coeff(params, grid, n)) < 1e-14, (params.alpha2, n)


def test_coeff_imaginary_residue_small(below, below_grid):
    for n in range(-8, 9):
        assert abs(ic.fourier_coeff(below, below_grid, n).imag) < 1e-13


def test_shifted_coeff_is_bit_identical(below, below_grid, above, above_grid):
    """b_n = a_(n-1) exactly: the shifted matrix is a slice of the plain one."""
    for params, grid in ((below, below_grid), (above, above_grid)):
        quad = toeplitz_matrix(params, 7, grid)[:-1, 1:]
        series = toeplitz_matrix(params, 7, route="series")[:-1, 1:]
        for n in (-2, 0, 3, 5):
            i, j = max(n, 0), max(-n, 0)
            assert quad[i, j] == ic.fourier_coeff(params, grid, n - 1)
            assert series[i, j] == ic.fourier_coeff_series(params, n - 1)


def test_degenerate_coeffs_are_kronecker(degenerate):
    g = ic.make_grid(degenerate, 32)
    assert ic.fourier_coeff(degenerate, g, 0) == pytest.approx(1.0, abs=1e-15)
    for n in (-3, -1, 1, 2, 7):
        # rounding scale grows with the z**(-n-1) powers on the circle
        assert abs(ic.fourier_coeff(degenerate, g, n)) < 1e-14


def test_coeff_geometric_decay(below, below_grid):
    a2 = below.alpha2
    for n in range(1, 10):
        hi = abs(ic.fourier_coeff(below, below_grid, n + 1))
        lo = abs(ic.fourier_coeff(below, below_grid, n))
        assert hi <= a2 * lo * 1.0001
        hi_neg = abs(ic.fourier_coeff(below, below_grid, -n - 1))
        lo_neg = abs(ic.fourier_coeff(below, below_grid, -n))
        assert hi_neg <= a2 * lo_neg * 1.0001


def test_coeff_is_the_trapezoidal_sum(below, above):
    """fourier_coeff equals sum_k u_k phi(z_k) z_k^(-n-1), aliasing included.

    The reference powers z_k^(-n-1) are built from the phase reduced mod
    M, so the sum does not multiply the rounding of z_k by n+1; the gap
    is measured against the sum of the magnitudes of its terms, the scale
    of its rounding error (aliased coefficients near M/2 are far smaller).
    """
    M = 64
    k = np.arange(M)
    for params in (below, above):
        grid = ic.make_grid(params, M)
        phi = ic.KernelSet(params).phi(grid.nodes)
        for n in (0, 1, -1, M // 2, -M // 2, M + 3, -M - 1):
            powers = grid.r ** (-n - 1) * np.exp(-2j * np.pi * ((n + 1) * k % M) / M)
            summands = grid.weights * phi * powers
            gap = abs(ic.fourier_coeff(params, grid, n) - np.sum(summands))
            assert gap <= 1e-15 * np.sum(np.abs(summands)), (params.alpha2, n)


def test_clear_cache_empties_the_cache(below, below_grid):
    ic.fourier_coeff(below, below_grid, 0)
    ic.fourier_coeff_series(below, 0)
    assert toeplitz_module._coeff_array.cache_info().currsize > 0
    assert toeplitz_module._factor_series.cache_info().currsize > 0
    toeplitz_module.clear_cache()
    assert toeplitz_module._coeff_array.cache_info().currsize == 0
    assert toeplitz_module._factor_series.cache_info().currsize == 0


def test_clear_cache_drops_chain_weight_moments(below, below_grid):
    contour_moments(below, below_grid, "qq", 0, 4)
    assert toeplitz_module._coeff_array.cache_info().currsize > 0
    toeplitz_module.clear_cache()
    assert toeplitz_module._coeff_array.cache_info().currsize == 0


def test_moments_are_the_trapezoidal_sums(below, above):
    """m(j) = sum_k u_k w(z_k) z_k^j, read off the cached FFT of w."""
    for params, weight in ((below, "qq"), (below, "pp"), (above, "qq_hat"), (above, "pp_hat")):
        grid = ic.make_grid(params, 64)
        values = getattr(ic.KernelSet(params), weight)(grid.nodes)
        got = contour_moments(params, grid, weight, -2, 8)
        for j, m in zip(range(-2, 6), got):
            summands = grid.weights * values * grid.nodes ** j
            assert abs(m - np.sum(summands)) <= 1e-15 * np.sum(np.abs(summands)), (weight, j)


def test_binom_coeffs_match_mpmath():
    import mpmath

    terms = 200
    with mpmath.workdps(30):
        for exponent in (0.5, -0.5):
            for a in (1.0, 0.3):
                got = _binom_coeffs(exponent, a, terms)
                for k in range(terms):
                    want = float(mpmath.binomial(mpmath.mpf(exponent), k) * (-mpmath.mpf(a)) ** k)
                    assert abs(got[k] - want) <= 1e-15 * abs(want), (exponent, a, k)


def test_package_imports_no_scipy():
    code = ("import sys, isingcorr, isingcorr.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# determinants
# ----------------------------------------------------------------------

def test_det_size_one_is_a0(below, below_grid):
    assert ic.det_DN(below, 1, below_grid) == \
        pytest.approx(ic.fourier_coeff(below, below_grid, 0).real, abs=1e-16)


def test_det_degenerate_is_identity(degenerate):
    g = ic.make_grid(degenerate, 32)
    for N in (1, 3, 6):
        assert ic.det_DN(degenerate, N, g) == pytest.approx(1.0, abs=1e-14)


def test_frozen_dual_route_regressions():
    for a1, a2, N, value, est, route in load_fixture_records():
        params = ic.direct(a1, a2)
        if route == "quadrature":
            got = ic.det_DN(params, N, ic.make_grid(params, 128))
        else:
            got = ic.det_DN(params, N, route="series")
        assert got == pytest.approx(value, abs=1e-13), (a1, a2, N, route)
        assert est < 1e-11


def test_dual_routes_agree_at_desk_grid(below):
    # the [DERIVED] reference case: quadrature vs series at N = 4
    quad = ic.det_DN(below, 4, ic.make_grid(below, 64))
    series = ic.det_DN(below, 4, route="series")
    assert abs(quad - series) < 1e-11


def test_dhat_regime_guard(below):
    with pytest.raises(ic.RegimeMismatch):
        ic.det_DhatN(below, 3)


def test_shifted_matrix_structure(above, above_grid):
    B = toeplitz_matrix(above, 4, above_grid)[:-1, 1:]
    for i in range(3):
        for j in range(3):
            assert B[i, j] == ic.fourier_coeff(above, above_grid, i - j - 1)


def test_minor_of_shifted_matrix_is_plain_matrix(above, above_grid):
    N = 4
    B = toeplitz_matrix(above, N + 2, above_grid)[:-1, 1:]
    A = toeplitz_matrix(above, N, above_grid)
    assert np.array_equal(B[1:, :-1], A)


ABOVE_POINTS = (ic.diagonal_from_alpha2(2.5), ic.direct(0.2, 3.0), ic.direct(0.05, 5.0))


def _entrywise(coeff, N):
    """N x N matrix with entries coeff(i - j), built one entry at a time."""
    return np.array([[coeff(i - j) for j in range(N)] for i in range(N)], dtype=complex)


@pytest.mark.parametrize("M", [64, 256])
def test_shifted_det_and_solve_equal_entrywise_matrix(M):
    """det_DhatN and solve_x(B) read b_n = a_(n-1); compared with == on both routes."""
    e0 = np.zeros(13, dtype=complex)
    e0[0] = 1.0
    for params in ABOVE_POINTS:
        grid = ic.make_grid(params, M)
        shifted = lambda n: ic.fourier_coeff(params, grid, n - 1)
        for N in range(1, 13):
            B = _entrywise(shifted, N)
            assert ic.det_DhatN(params, N, grid) == _lu_det(B).real, (params.alpha2, N)
            B1 = _entrywise(shifted, N + 1)
            assert np.array_equal(ic.solve_x(params, N, "B", grid),
                                  np.linalg.solve(B1, e0[:N + 1]).real), (params.alpha2, N)
            if M == 64:
                B = _entrywise(lambda n: ic.fourier_coeff_series(params, n - 1), N)
                assert ic.det_DhatN(params, N, route="series") == _lu_det(B).real


def test_dhat_szego_convergence(above, above_grid):
    target = ic.s_hat_infinity(above)
    gaps = [abs((-1) ** N * ic.det_DhatN(above, N, above_grid) - target)
            for N in range(2, 9)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_det_szego_convergence_below(below, below_grid):
    target = ic.s_infinity(below)
    gaps = [abs(ic.det_DN(below, N, below_grid) - target) for N in range(2, 11)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_singular_matrix_detected():
    with pytest.raises(ic.SingularMatrix):
        _lu_det(np.ones((3, 3), dtype=complex))


def test_nonfinite_matrix_rejected():
    mat = np.eye(3, dtype=complex)
    mat[1, 2] = np.nan
    with pytest.raises(ValueError):
        _lu_det(mat)


def test_singular_solve_detected(monkeypatch, below):
    monkeypatch.setattr(toeplitz_module, "toeplitz_matrix",
                        lambda params, n, *args: np.ones((n, n), dtype=complex))
    with pytest.raises(ic.SingularMatrix):
        ic.solve_x(below, 2, "A")


# ----------------------------------------------------------------------
# linear solves
# ----------------------------------------------------------------------

def test_solve_degenerate_is_unit_vector(degenerate):
    g = ic.make_grid(degenerate, 32)
    x = ic.solve_x(degenerate, 4, "A", g)
    expected = np.zeros(5)
    expected[0] = 1.0
    assert np.max(np.abs(x - expected)) < 1e-14


def test_cramer_consistency_both_regimes(below, below_grid, above, above_grid):
    for params, grid in ((below, below_grid), (above, above_grid)):
        for N in range(1, 9):
            x0 = ic.solve_x(params, N, "A", grid)[0]
            ratio = ic.det_DN(params, N, grid) / ic.det_DN(params, N + 1, grid)
            assert abs(x0 * ic.det_DN(params, N + 1, grid) - ic.det_DN(params, N, grid)) \
                < 1e-10 * abs(ic.det_DN(params, N, grid))
            assert x0 == pytest.approx(ratio, rel=1e-11)


def test_shifted_solve_det_ratio(above, above_grid):
    for N in range(1, 6):
        x = ic.solve_x(above, N, "B", above_grid)
        lhs = (-1) ** N * x[N]
        rhs = ic.det_DN(above, N, above_grid) / ic.det_DhatN(above, N + 1, above_grid)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_solve_matrix_b_needs_above(below):
    with pytest.raises(ic.RegimeMismatch):
        ic.solve_x(below, 3, "B")
    with pytest.raises(ValueError):
        ic.solve_x(below, 3, "C")
