import math

import numpy as np
import pytest

import isingcorr as ic
from isingcorr import KernelSet
from isingcorr.fredholm import KernelMatrix, ff_coeffs_complex


def test_build_kernel_regime_guards(below, below_grid, above, above_grid):
    with pytest.raises(ic.RegimeMismatch):
        ic.build_kernel(below, below_grid, 2, hat=True)
    with pytest.raises(ic.RegimeMismatch):
        ic.build_kernel(above, above_grid, 2, hat=False)


def test_trace_matches_chain(below, below_grid):
    K = ic.build_kernel(below, below_grid, 2)
    ks = KernelSet(below)
    chain1 = ic.chain_integral(below_grid, 2, ks.qq, ks.pp, sites=2, closed=True)
    chain2 = ic.chain_integral(below_grid, 2, ks.qq, ks.pp, sites=4, closed=True)
    assert abs(K.trace_power(1) - chain1) < 1e-12
    assert abs(K.trace_power(2) - chain2) < 1e-11


def test_degenerate_traces_vanish(degenerate):
    g = ic.make_grid(degenerate, 64)
    K = ic.build_kernel(degenerate, g, 1)
    assert np.max(np.abs(K.matrix)) > 0.0
    for n in (1, 2, 3):
        assert abs(K.trace_power(n)) / n < 1e-13


def test_spectral_radius_below_one(below, below_grid, above, above_grid):
    for params, grid, hat in ((below, below_grid, False), (above, above_grid, True)):
        for N in (1, 2, 3):
            K = ic.build_kernel(params, grid, N, hat=hat)
            assert K.spectral_radius() < 1.0


def test_log_det_route_hits_determinant(below, below_grid):
    K = ic.build_kernel(below, below_grid, 3)
    value = ic.s_infinity(below) * math.exp(ic.log_det_expansion(K))
    assert abs(value - ic.det_DN(below, 3, below_grid)) < 1e-8


def test_log_det_spectral_radius_guard():
    K = KernelMatrix(matrix=np.eye(4, dtype=complex) * 2.0, N=0, hat=False, M=4)
    with pytest.raises(ic.SpectralRadiusExceeded):
        ic.log_det_expansion(K)


def test_ff_coeff_zero_is_one(below, below_grid):
    K = ic.build_kernel(below, below_grid, 2)
    assert ic.ff_coeffs(K, 0)[0] == 1.0


def test_ff_first_coefficient_is_minus_trace(below, below_grid):
    K = ic.build_kernel(below, below_grid, 2)
    ff = ic.ff_coeffs(K, 1)
    assert ff[1] == pytest.approx(-K.trace_power(1).real, abs=1e-15)
    direct = ic.f_2n(below, below_grid, 2, 1, method="direct").value
    assert abs(ff[1] - direct) < 1e-11


def test_route_equivalence_orders_up_to_three(below_grid):
    for alpha2 in (0.4, 0.5):
        params = ic.diagonal_from_alpha2(alpha2)
        grid = ic.make_grid(params, 64)
        for N in (1, 2, 3):
            K = ic.build_kernel(params, grid, N)
            ff = ic.ff_coeffs(K, 3)
            for n in (1, 2, 3):
                composed = ic.f_from_F(params, grid, N, n).value
                assert abs(ff[n] - composed) < 1e-10


def test_eigen_and_trace_methods_agree(below, above):
    """Newton's identities on the power traces match the spectrum's e_n."""
    for params, hat in ((below, False), (above, True)):
        for M in (64, 256):
            K = ic.build_kernel(params, ic.make_grid(params, M), 1, hat=hat)
            # coefficient of lambda^(M-n) in prod(lambda - lambda_i) is (-1)^n e_n
            from_eigs = np.poly(np.linalg.eigvals(K.matrix))
            for n, value in enumerate(ic.ff_coeffs(K, 3)):
                assert abs(value - from_eigs[n].real) < 1e-14, (hat, M, n)


def test_newton_vs_characteristic_polynomial(below, below_grid):
    K = ic.build_kernel(below, below_grid, 2)
    ff = ic.ff_coeffs(K, 3)
    charpoly = np.poly(K.matrix)  # coefficient of lambda^(M-n) is (-1)^n e_n
    for n in range(4):
        assert abs(ff[n] - charpoly[n].real) < 1e-10


def test_exp_series_duality(below, below_grid):
    """Truncated exponential of the trace series vs truncated coefficient sum.

    The two truncations differ in their order-8 content, which the first
    omitted exponential-series term dominates (the order-8 form factor
    itself cancels almost completely against its cross terms).
    """
    K = ic.build_kernel(below, below_grid, 1)
    f_exp = math.exp(sum(-K.trace_power(n).real / n for n in (1, 2, 3)))
    f_sum = sum(ic.ff_coeffs(K, 3))
    omitted = abs(ic.F_2n(below, below_grid, 1, 4).value)
    assert abs(f_exp - f_sum) <= 10.0 * omitted + 1e-15


def test_ff_complex_residues_tiny(above, above_grid):
    K = ic.build_kernel(above, above_grid, 2, hat=True)
    for c in ff_coeffs_complex(K, 3):
        assert abs(c.imag) < 1e-12


def test_ff_validation(below, below_grid):
    K = ic.build_kernel(below, below_grid, 1)
    with pytest.raises(ValueError):
        ic.ff_coeffs(K, -1)
    with pytest.raises(ValueError):
        ic.ff_coeffs(K, 100)
