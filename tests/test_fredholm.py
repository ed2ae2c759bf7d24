import math

import numpy as np
import pytest

import isingcorr as ic
from isingcorr import expansions as expansions_module
from isingcorr import quadrature as quadrature_module
from isingcorr.fredholm import KernelMatrix, _section_size, ff_coeffs_complex
from kernel_oracle import grid_kernel, power_sums


def row_params(alpha1, alpha2):
    """Row-kind parameters with the given alphas, through the coupling map."""
    return ic.from_couplings(ic.Kind.ROW, math.atanh(math.sqrt(alpha1 / alpha2)),
                             -math.log(alpha1 * alpha2) / 4.0)


def test_build_kernel_regime_guards(below, below_grid, above, above_grid):
    with pytest.raises(ic.RegimeMismatch):
        ic.build_kernel(below, below_grid, 2, hat=True)
    with pytest.raises(ic.RegimeMismatch):
        ic.build_kernel(above, above_grid, 2, hat=False)


def test_trace_matches_chain(below, below_grid):
    """Section traces are the closed chains: the grid kernel's power sums."""
    K = ic.build_kernel(below, below_grid, 2)
    chain1, chain2 = power_sums(grid_kernel(below, below_grid, 2), 2)
    assert abs(K.trace_power(1) - chain1) < 1e-12
    assert abs(K.trace_power(2) - chain2) < 1e-11


def test_degenerate_traces_vanish(degenerate):
    g = ic.make_grid(degenerate, 64)
    assert np.max(np.abs(grid_kernel(degenerate, g, 1))) > 0.0
    K = ic.build_kernel(degenerate, g, 1)
    for n in (1, 2, 3):
        assert abs(K.trace_power(n)) / n < 1e-13


def test_spectral_radius_below_one(below, below_grid, above, above_grid):
    for params, grid, hat in ((below, below_grid, False), (above, above_grid, True)):
        for N in (1, 2, 3):
            K = ic.build_kernel(params, grid, N, hat=hat)
            assert np.max(np.abs(np.linalg.eigvals(K.matrix))) < 1.0


def test_log_det_route_hits_determinant(below, below_grid):
    K = ic.build_kernel(below, below_grid, 3)
    value = ic.s_infinity(below) * math.exp(ic.log_det_expansion(K))
    assert abs(value - ic.det_DN(below, 3, below_grid)) < 1e-8


def test_log_det_spectral_radius_guard():
    """Raised when det(I - K) is not positive, whatever the spectral radius."""
    K = KernelMatrix(matrix=np.diag([2.0, 0.0, 0.0, 0.0]).astype(complex), N=0, hat=False, M=4)
    with pytest.raises(ic.SpectralRadiusExceeded):
        ic.log_det_expansion(K)
    # rho(2 I) = 2, but det(I - 2 I) = 1 has a real log
    K = KernelMatrix(matrix=np.eye(4, dtype=complex) * 2.0, N=0, hat=False, M=4)
    assert ic.log_det_expansion(K) == 0.0


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


# ----------------------------------------------------------------------
# the L x L section against the M x M grid kernel
# ----------------------------------------------------------------------

def test_section_power_sums_match_grid_kernel():
    """p_1..p_3 of the section equal the grid kernel's at M=256.

    At M=256 the aliasing r^(2M) the section drops is below 1e-24 here.
    The gap is measured on an absolute scale: the grid kernel's own
    rounding grows like (r/r_min)^(2N) relative to its small traces.
    """
    points = (ic.diagonal_from_alpha2(0.5), row_params(0.2, 0.55),
              ic.diagonal_from_alpha2(2.5), row_params(0.25, 3.5))
    for params in points:
        hat = params.regime is ic.Regime.ABOVE
        grid = ic.make_grid(params, 256)
        for N in range(1, 9):
            K = ic.build_kernel(params, grid, N, hat=hat)
            assert len(K.matrix) < grid.M and K.M == grid.M
            gap = np.max(np.abs(K.power_sums(3) - power_sums(grid_kernel(params, grid, N, hat), 3)))
            assert gap < 1e-16, (params.alpha1, params.alpha2, N, gap)


def test_section_is_the_grid_kernel_when_L_equals_M():
    """Near the critical point the section is the whole identity, L = M."""
    for alpha2 in (0.9, 1.2):
        params = ic.diagonal_from_alpha2(alpha2)
        hat = params.regime is ic.Regime.ABOVE
        grid = ic.make_grid(params, 64)
        for N in (1, 4, 8):
            K = ic.build_kernel(params, grid, N, hat=hat)
            assert len(K.matrix) == 64
            oracle = grid_kernel(params, grid, N, hat)
            assert np.max(np.abs(K.power_sums(3) - power_sums(oracle, 3))) < 1e-14
            from_eigs = np.poly(np.linalg.eigvals(oracle))[:4].real
            assert np.max(np.abs(np.array(ic.ff_coeffs(K, 3)) - from_eigs)) < 1e-14


def test_section_size_follows_the_moment_decay():
    assert _section_size(ic.diagonal_from_alpha2(0.2), 256) == 14
    assert _section_size(ic.diagonal_from_alpha2(0.6), 256) == 38
    assert _section_size(ic.diagonal_from_alpha2(2.5), 256) == 23
    assert _section_size(ic.diagonal_from_alpha2(0.9), 64) == 64
    for alpha2 in (0.2, 0.6, 2.5, 4.0):
        params = ic.diagonal_from_alpha2(alpha2)
        L = _section_size(params, 1024)
        # r_min^(2L) sits below the float64 unit roundoff
        assert ic.r_min(params) ** (2 * (L - 2)) <= 2.0 ** -53


def test_expansion_routes_make_no_grid_matrix(monkeypatch, below, below_grid, above, above_grid):
    """Kernels, correlations and per-order terms never touch an M x M matrix."""
    def forbidden(*args, **kwargs):
        raise AssertionError("grid matrix built")

    monkeypatch.setattr(quadrature_module.ContourGrid, "cauchy_matrix", forbidden)
    monkeypatch.setattr(quadrature_module, "chain_integral", forbidden)
    monkeypatch.setattr(ic, "chain_integral", forbidden)
    for route in ("exp", "ff"):
        for n_max in (0, 3):
            ic.correlation(below, 3, route, n_max, below_grid)
            ic.correlation(above, 3, route, n_max, above_grid)
    ic.build_kernel(above, above_grid, 2, hat=True)
    for n in (1, 2, 3):
        ic.F_2n(below, below_grid, 2, n)
        ic.F_2n(above, above_grid, 2, n, hat=True)
        ic.Ftilde_2n(below, below_grid, 2, n)
        ic.phi_2n(below, below_grid, 2, n)
        ic.f_2n(below, below_grid, 2, n)
        ic.f_2n(above, above_grid, 2, n, hat=True)
    for n in (0, 1, 2, 3):
        ic.G_2n1(above, above_grid, 2, n)
        ic.f_2n1(above, above_grid, 2, n)
    # a name bound by import before the patch would escape it
    assert not hasattr(expansions_module, "chain_integral")
