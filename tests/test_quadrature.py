import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isingcorr as ic
from isingcorr import KernelSet
from isingcorr.quadrature import ContourGrid
from kernel_oracle import grid_kernel, power_sums


def test_make_grid_auto_radius(below):
    g = ic.make_grid(below, 8)
    assert g.M == 8
    assert g.r == pytest.approx(0.75)
    assert len(g.nodes) == 8
    assert np.all(np.abs(np.abs(g.nodes) - 0.75) < 1e-15)


def test_make_grid_validation(below):
    with pytest.raises(ValueError):
        ic.make_grid(below, 7)
    with pytest.raises(ValueError):
        ic.make_grid(below, 48)
    with pytest.raises(ic.RadiusOutOfRange):
        ic.make_grid(below, 16, 0.4)
    with pytest.raises(ic.RadiusOutOfRange):
        ic.make_grid(below, 16, 1.0)


def test_r_min_by_regime(below, above):
    assert ic.r_min(below) == 0.5
    assert ic.r_min(above) == pytest.approx(0.4)
    assert ic.r_min(ic.direct(0.45, 2.0)) == pytest.approx(0.5)


def test_residue_of_inverse(below):
    g = ic.make_grid(below, 16)
    assert ic.contour_integral(g, lambda z: 1.0 / z) == pytest.approx(1.0, abs=1e-15)


def test_analytic_monomial_integrates_to_zero(below):
    g = ic.make_grid(below, 16)
    assert abs(ic.contour_integral(g, lambda z: z ** 3)) < 1e-15


def test_laurent_picks_out_residue(below):
    rng = np.random.default_rng(11)
    c = rng.standard_normal(7) + 1j * rng.standard_normal(7)  # orders -3..3
    g = ic.make_grid(below, 8)

    def f(z):
        return sum(c[k + 3] * z ** k for k in range(-3, 4))

    assert ic.contour_integral(g, f) == pytest.approx(c[2], abs=1e-14)


def test_weight_sum_is_discrete_residue(below):
    for M in (8, 32, 128):
        g = ic.make_grid(below, M)
        assert abs(np.sum(g.weights / g.nodes) - 1.0) < 1e-15


@settings(max_examples=60, deadline=None)
@given(m=st.integers(min_value=-31, max_value=30))
def test_discrete_residue_property(m):
    # m = M-1 is excluded: there the power m+1 aliases to 0 mod M and the
    # sum equals r**M rather than 0
    params = ic.diagonal_from_alpha2(0.5)
    g = ic.make_grid(params, 32, 0.8)
    val = complex(np.sum(g.weights * g.nodes ** m))
    expected = 1.0 if m == -1 else 0.0
    assert abs(val - expected) < 1e-15 * max(1.0, 0.8 ** m * 32)


def test_nonfinite_integrand_raises(below):
    g = ic.make_grid(below, 8)
    with pytest.raises(ic.NonFinite):
        ic.contour_integral(g, lambda z: np.full_like(z, np.inf))


def test_pole_on_grid_guard():
    nodes = np.array([1.0 + 0.0j, -1.0 + 0.0j])
    bad = ContourGrid(M=2, r=1.0, nodes=nodes, weights=nodes / 2)
    with pytest.raises(ic.PoleOnGrid):
        bad.cauchy_matrix()


# ----------------------------------------------------------------------
# chain engine against brute-force grid sums
# ----------------------------------------------------------------------

def brute_closed_pair(grid, N, wo, we):
    z, u = grid.nodes, grid.weights
    a = u * wo * z ** N
    b = u * we * z ** N
    total = 0.0 + 0.0j
    for j in range(grid.M):
        for k in range(grid.M):
            total += a[j] * b[k] / ((1 - z[j] * z[k]) * (1 - z[k] * z[j]))
    return total


def test_chain_closed_matches_double_loop(below):
    """The grid kernel's trace is the closed two-site chain."""
    g = ic.make_grid(below, 32)
    ks = KernelSet(below)
    brute = brute_closed_pair(g, 1, ks.qq(g.nodes), ks.pp(g.nodes))
    engine = np.trace(grid_kernel(below, g, 1))
    assert abs(brute - engine) < 1e-13


def test_chain_open_matches_triple_loop(below):
    g = ic.make_grid(below, 32)
    ks = KernelSet(below)
    z, u = g.nodes, g.weights
    N = 2
    qq, pp = ks.qq(z), ks.pp(z)
    total = 0.0 + 0.0j
    for a in range(g.M):
        for b in range(g.M):
            inner = (u[a] * qq[a] * z[a] ** N / z[a]) * (u[b] * pp[b] * z[b] ** N) \
                / (1 - z[a] * z[b])
            total += inner * np.sum((u * qq * z ** N / z) / (1 - z[b] * z))
    engine = ic.chain_integral(g, N, ks.qq, ks.pp, sites=3, endpoint_factor=lambda w: 1.0 / w)
    assert abs(total - engine) < 1e-12


def test_chain_degenerate_weights_vanish(degenerate):
    """At alpha1 = alpha2 both chain weights are 1, and every closed chain vanishes."""
    g = ic.make_grid(degenerate, 64)
    for N in (1, 2):
        K = grid_kernel(degenerate, g, N)
        assert np.max(np.abs(K)) > 0.0
        for n, p in enumerate(power_sums(K, 3), 1):
            assert abs(p) < 1e-13, (N, n)


def test_chain_validation(below):
    g = ic.make_grid(below, 8)
    ks = KernelSet(below)
    with pytest.raises(ValueError):
        ic.chain_integral(g, 1, ks.qq, ks.pp, sites=0)
    with pytest.raises(ic.NonFinite):
        ic.chain_integral(g, 1, lambda z: z * np.nan, ks.pp, sites=2)


def test_error_decay_is_geometric(below):
    """Successive-doubling differences of a closed chain fall geometrically."""
    values = {}
    for M in (8, 16, 32, 64, 128):
        values[M] = np.trace(grid_kernel(below, ic.make_grid(below, M), 3))
    diffs = [abs(values[2 * M] - values[M]) for M in (8, 16, 32, 64)]
    for a, b in zip(diffs, diffs[1:]):
        if a < 1e-13:
            break
        assert b < a / 10.0


# ----------------------------------------------------------------------
# refinement driver
# ----------------------------------------------------------------------

def test_refine_until_trivial_residue(below):
    calls = []

    def compute(M):
        calls.append(M)
        g = ic.make_grid(below, M)
        return ic.contour_integral(g, lambda z: 1.0 / z)

    value, est, M = ic.refine_until(compute, 1e-12, M_start=8)
    assert value == pytest.approx(1.0, abs=1e-15)
    assert est == pytest.approx(0.0, abs=1e-15)
    assert M == 16 and calls == [8, 16]


def test_refine_until_fourier_coefficient(below):
    def a0(M):
        return ic.fourier_coeff(below, ic.make_grid(below, M), 0)

    value, est, M = ic.refine_until(a0, 1e-12, M_start=8)
    # detection lags the true error by one doubling, so certification
    # lands at 128 nodes even though 64 already meet the tolerance
    assert M <= 128
    assert est < 1e-12
    assert value.real == pytest.approx(ic.fourier_coeff_series(below, 0), abs=1e-13)


def test_refine_until_unreachable_tolerance(below):
    def a0(M):
        return ic.fourier_coeff(below, ic.make_grid(below, M), 0)

    with pytest.raises(ic.NoConvergence) as info:
        ic.refine_until(a0, 0.0, M_start=8, M_max=64)
    assert info.value.M_used == 64
    assert abs(info.value.value - ic.fourier_coeff_series(below, 0)) < 1e-10
    assert info.value.est_error >= 0.0
