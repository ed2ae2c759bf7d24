import math
from collections import Counter

import numpy as np
import pytest

import isingcorr as ic
from isingcorr import KernelSet
from isingcorr import expansions as expansions_module
from isingcorr import fredholm as fredholm_module
from isingcorr import quadrature as quadrature_module
from isingcorr import toeplitz as toeplitz_module
from isingcorr.fredholm import section_chains, section_sums
from isingcorr.toeplitz import contour_moments, moment_table, section_size
from kernel_oracle import grid_kernel, power_sums


def row_params(alpha1, alpha2):
    """Row-kind parameters with the given alphas, through the coupling map."""
    return ic.from_couplings(ic.Kind.ROW, math.atanh(math.sqrt(alpha1 / alpha2)),
                             -math.log(alpha1 * alpha2) / 4.0)


def test_trace_matches_chain(below, below_grid):
    """Section traces are the closed chains: the grid kernel's power sums."""
    K = ic.build_kernel(below, below_grid, 2)
    chain1, chain2 = power_sums(grid_kernel(below, below_grid, 2), 2)
    assert abs(ic.power_sums(K, 1)[0] - chain1) < 1e-12
    assert abs(ic.power_sums(K, 2)[1] - chain2) < 1e-11


def test_degenerate_traces_vanish(degenerate):
    g = ic.make_grid(degenerate, 64)
    assert np.max(np.abs(grid_kernel(degenerate, g, 1))) > 0.0
    K = ic.build_kernel(degenerate, g, 1)
    for n in (1, 2, 3):
        assert abs(ic.power_sums(K, n)[n - 1]) / n < 1e-13


def test_spectral_radius_below_one(below, below_grid, above, above_grid):
    for params, grid in ((below, below_grid), (above, above_grid)):
        for N in (1, 2, 3):
            K = ic.build_kernel(params, grid, N)
            assert np.max(np.abs(np.linalg.eigvals(K))) < 1.0


def test_log_det_route_hits_determinant(below, below_grid):
    K = ic.build_kernel(below, below_grid, 3)
    value = ic.s_infinity(below) * math.exp(ic.log_det_expansion(K))
    assert abs(value - ic.det_DN(below, 3, below_grid)) < 1e-8


def test_log_det_spectral_radius_guard():
    """Raised when det(I - K) is not positive, whatever the spectral radius."""
    K = np.diag([2.0, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(ic.SpectralRadiusExceeded):
        ic.log_det_expansion(K)
    # rho(2 I) = 2, but det(I - 2 I) = 1 has a real log
    K = np.eye(4, dtype=complex) * 2.0
    assert ic.log_det_expansion(K) == 0.0


def test_ff_coeff_zero_is_one(below, below_grid):
    K = ic.build_kernel(below, below_grid, 2)
    assert ic.ff_coeffs(K, 0)[0] == 1.0


def test_ff_first_coefficient_is_minus_trace(below, below_grid):
    K = ic.build_kernel(below, below_grid, 2)
    ff = ic.ff_coeffs(K, 1)
    assert ff[1] == pytest.approx(-ic.power_sums(K, 1)[0].real, abs=1e-15)
    direct = ic.f_2n_direct(below, below_grid, 2, 1).value
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
    for params in (below, above):
        for M in (64, 256):
            K = ic.build_kernel(params, ic.make_grid(params, M), 1)
            # coefficient of lambda^(M-n) in prod(lambda - lambda_i) is (-1)^n e_n
            from_eigs = np.poly(np.linalg.eigvals(K))
            for n, value in enumerate(ic.ff_coeffs(K, 3)):
                assert abs(value - from_eigs[n].real) < 1e-14, (params.regime, M, n)


def test_newton_vs_characteristic_polynomial(below, below_grid):
    K = ic.build_kernel(below, below_grid, 2)
    ff = ic.ff_coeffs(K, 3)
    charpoly = np.poly(K)  # coefficient of lambda^(M-n) is (-1)^n e_n
    for n in range(4):
        assert abs(ff[n] - charpoly[n].real) < 1e-10


def test_exp_series_duality(below, below_grid):
    """Truncated exponential of the trace series vs truncated coefficient sum.

    The two truncations differ in their order-8 content, which the first
    omitted exponential-series term dominates (the order-8 form factor
    itself cancels almost completely against its cross terms).
    """
    K = ic.build_kernel(below, below_grid, 1)
    f_exp = math.exp(sum(-ic.power_sums(K, n)[n - 1].real / n for n in (1, 2, 3)))
    f_sum = sum(ic.ff_coeffs(K, 3))
    omitted = abs(ic.F_2n(below, below_grid, 1, 4).value)
    assert abs(f_exp - f_sum) <= 10.0 * omitted + 1e-15


def test_section_is_real(below, below_grid, above, above_grid):
    """The section, its power sums and form factors are float64, and every
    section term carries est_error 0.0; a direct grid product keeps the
    imaginary residue it drops as its est_error."""
    for params, grid in ((below, below_grid), (above, above_grid)):
        K = ic.build_kernel(params, grid, 2)
        assert K.dtype == np.float64 and ic.power_sums(K, 3).dtype == np.float64
        floats = ic.ff_coeffs(K, 3) + list(section_sums(params, grid, 2, 3))
        assert all(type(v) is float for v in floats + list(section_chains(params, grid, 2, 3)))
        for route in ("exp", "ff"):
            for t in ic.correlation(params, 2, route, 3, grid).terms:
                assert t.est_error == 0.0
                assert type(t.value) is float and type(t.est_error) is float, t
    # the order-2 grid product, as f_2n_direct forms it
    ks, z = KernelSet(below), below_grid.nodes
    qo = below_grid.weights * ks.qq(z) * z ** 2
    pe = below_grid.weights * ks.pp(z) * z ** 2
    raw = -complex(qo @ below_grid.cauchy_matrix() ** 2 @ pe)
    term = ic.f_2n_direct(below, below_grid, 2, 1)
    assert term.est_error == abs(raw.imag) and type(term.est_error) is float


def test_ff_validation(below, below_grid):
    K = ic.build_kernel(below, below_grid, 1)
    with pytest.raises(ValueError):
        ic.ff_coeffs(K, -1)
    with pytest.raises(ValueError):
        ic.ff_coeffs(K, 100)


#: the seven points of the value recipe: three diagonal, three direct, one row
RECIPE_POINTS = [
    ic.diagonal_from_alpha2(0.5), ic.diagonal_from_alpha2(0.9), ic.diagonal_from_alpha2(2.5),
    ic.direct(0.2, 0.5), ic.direct(0.2, 3.0), ic.direct(0.05, 5.0),
    ic.from_couplings(ic.Kind.ROW, 0.6, 0.5),
]
RECIPE_IDS = [f"{p.kind.value}-{p.alpha1:.3g}-{p.alpha2:.3g}" for p in RECIPE_POINTS]


@pytest.mark.parametrize("params", RECIPE_POINTS, ids=RECIPE_IDS)
def test_power_sums_are_prefix_stable_bit_for_bit(params):
    """power_sums(K, n)[:k] is power_sums(K, k), bit for bit, for k <= n <= min(L, 12),
    and a section's sums are the same in any stack it is read in: the
    section record relies on both."""
    grid = ic.make_grid(params, 64)
    for N in (1, 7):
        K = ic.build_kernel(params, grid, N)
        top = min(len(K), 12)
        sums = {n: ic.power_sums(K, n) for n in range(top + 1)}
        for n in range(top + 1):
            assert sums[n].dtype == np.float64 and len(sums[n]) == n
            for k in range(n + 1):
                assert sums[n][:k].tobytes() == sums[k].tobytes(), (N, n, k)
    stack = ic.build_kernel(params, grid, slice(1, 9))
    assert stack.shape == (8, *K.shape)
    top = min(len(K), 12)
    sums = ic.power_sums(stack, top)
    assert sums.shape == (8, top)
    for n in range(top + 1):
        assert ic.power_sums(stack, n).tobytes() == sums[:, :n].tobytes(), n
    for first, count in ((0, 1), (3, 2), (5, 3), (0, 8)):
        part = ic.build_kernel(params, grid, slice(1 + first, 1 + first + count))
        assert part.tobytes() == stack[first:first + count].tobytes(), (first, count)
        assert ic.power_sums(part, top).tobytes() == sums[first:first + count].tobytes()


@pytest.mark.parametrize("M", [64, 256])
@pytest.mark.parametrize("params", RECIPE_POINTS, ids=RECIPE_IDS)
def test_power_sums_and_form_factors_match_the_spectrum(params, M):
    """p_n = sum lambda^n and the form factors (-1)^n e_n = np.poly(K) up to n = L.

    The scale is s^n with s the nuclear norm of K, which bounds
    sum |lambda|^n; most eigenvalues are rounding noise, so the spectrum
    has no better relative accuracy to test against."""
    grid = ic.make_grid(params, M)
    tiny = np.finfo(float).tiny
    for N in (1, 7):
        K = ic.build_kernel(params, grid, N)
        L = len(K)
        lam = np.linalg.eigvals(K)
        s = np.linalg.norm(K, "nuc")
        n = np.arange(L + 1)
        want = np.array([np.sum(lam ** k).real for k in n[1:]])
        gap = np.abs(ic.power_sums(K, L) - want) / np.maximum(s ** n[1:], tiny)
        assert np.max(gap) < 1e-12, (N, int(np.argmax(gap)) + 1, np.max(gap))
        gap = np.abs(np.array(ic.ff_coeffs(K, L)) - np.poly(K).real) / np.maximum(s ** n, tiny)
        assert np.max(gap) < 1e-12, (N, int(np.argmax(gap)), np.max(gap))


def test_ff_coeffs_rejects_orders_past_the_size_before_summing(monkeypatch, below, below_grid):
    K = ic.build_kernel(below, below_grid, 1)

    def forbidden(K, n_max):
        raise AssertionError("power sums computed for an order past the section size")

    monkeypatch.setattr(fredholm_module, "power_sums", forbidden)
    with pytest.raises(ValueError, match="exceeds the matrix size"):
        ic.ff_coeffs(K, len(K) + 1)


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
        grid = ic.make_grid(params, 256)
        for N in range(1, 9):
            K = ic.build_kernel(params, grid, N)
            assert K.shape == (section_size(params, grid.M),) * 2 and len(K) < grid.M
            gap = np.max(np.abs(ic.power_sums(K, 3) - power_sums(grid_kernel(params, grid, N), 3)))
            assert gap < 1e-16, (params.alpha1, params.alpha2, N, gap)


def test_section_is_the_grid_kernel_when_L_equals_M():
    """Near the critical point the section is the whole identity, L = M."""
    for alpha2 in (0.9, 1.2):
        params = ic.diagonal_from_alpha2(alpha2)
        grid = ic.make_grid(params, 64)
        for N in (1, 4, 8):
            K = ic.build_kernel(params, grid, N)
            assert len(K) == 64
            oracle = grid_kernel(params, grid, N)
            assert np.max(np.abs(ic.power_sums(K, 3) - power_sums(oracle, 3))) < 1e-14
            from_eigs = np.poly(np.linalg.eigvals(oracle))[:4].real
            assert np.max(np.abs(np.array(ic.ff_coeffs(K, 3)) - from_eigs)) < 1e-14


def test_section_size_follows_the_moment_decay():
    assert section_size(ic.diagonal_from_alpha2(0.2), 256) == 14
    assert section_size(ic.diagonal_from_alpha2(0.6), 256) == 38
    assert section_size(ic.diagonal_from_alpha2(2.5), 256) == 23
    assert section_size(ic.diagonal_from_alpha2(0.9), 64) == 64
    for alpha2 in (0.2, 0.6, 2.5, 4.0):
        params = ic.diagonal_from_alpha2(alpha2)
        L = section_size(params, 1024)
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
    ic.build_kernel(above, above_grid, 2)
    for n in (1, 2, 3):
        ic.F_2n(below, below_grid, 2, n)
        ic.F_2n(above, above_grid, 2, n)
        ic.Ftilde_2n(below, below_grid, 2, n)
        ic.phi_2n(below, below_grid, 2, n)
        ic.f_2n(below, below_grid, 2, n)
        ic.f_2n(above, above_grid, 2, n)
    for n in (0, 1, 2, 3):
        ic.G_2n1(above, above_grid, 2, n)
        ic.f_2n1(above, above_grid, 2, n)
    # a name bound by import before the patch would escape it
    assert not hasattr(expansions_module, "chain_integral")


# ----------------------------------------------------------------------
# the moment table every section reads
# ----------------------------------------------------------------------

def _gathered_section(params, grid, N):
    """The section from the real parts of a per-call gather of contour
    moments, the reference."""
    suffix = "_hat" if params.regime is ic.Regime.ABOVE else ""
    L = section_size(params, grid.M)
    c = 1.0 / (1.0 - grid.r ** (2 * grid.M))
    odd, even = (contour_moments(params, grid, weight + suffix, N - 1, 2 * L).real
                 for weight in ("qq", "pp"))
    idx = 1 + np.add.outer(np.arange(L), np.arange(L))
    return c * odd[idx], c * even[idx], odd[:L], even[:L], c


TABLE_CASES = [(ic.diagonal_from_alpha2(0.5), 64), (ic.diagonal_from_alpha2(0.5), 256),
               (row_params(0.2, 0.55), 64), (row_params(0.2, 0.55), 256),
               (ic.diagonal_from_alpha2(2.5), 64), (ic.diagonal_from_alpha2(2.5), 256),
               (ic.direct(0.2, 3.0), 64), (ic.direct(0.2, 3.0), 256),
               (ic.diagonal_from_alpha2(0.9), 64)]


@pytest.mark.parametrize("params, M", TABLE_CASES,
                         ids=[f"{p.kind.value}-{p.alpha1:g}-{p.alpha2:g}-M{M}"
                              for p, M in TABLE_CASES])
def test_section_is_a_window_into_the_moment_table(params, M):
    """P, Q, the end vectors, c and G_1 equal the real parts of the per-call gather exactly,
    at N = 1..64 and at N = 200 with M = 64, past the table's first end."""
    grid = ic.make_grid(params, M)
    separations = list(range(1, 65)) + ([200] if M == 64 else [])
    for N in separations:
        table = moment_table(params, grid, N)
        ends = slice(N, N + table.L)
        got = (table.odd_sections[N], table.even_sections[N], table.odd[ends], table.even[ends],
               table.c)
        want = _gathered_section(params, grid, N)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), N
        K = ic.build_kernel(params, grid, N)
        assert np.array_equal(K, got[0] @ got[1]), N
        if params.regime is ic.Regime.ABOVE:
            g1 = -contour_moments(params, grid, "pp_hat", N - 1, 1)[0]
            assert ic.G_2n1(params, grid, N, 0).value == g1.real, N
    if params.alpha2 == 0.9:
        assert len(got[0]) == M


@pytest.mark.parametrize("alpha2", [0.5, 2.5, 0.9], ids=["below", "above", "L=M"])
def test_section_factors_are_read_only_views_of_the_table(alpha2):
    """P, Q and the end vectors are views into the moment table, not copies,
    and none of them can be written through; at N = 200 the table has grown."""
    params = ic.diagonal_from_alpha2(alpha2)
    grid = ic.make_grid(params, 64)
    for N in (1, 40, 200):
        table = moment_table(params, grid, N)
        ends = slice(N, N + table.L)
        P, Q = table.odd_sections[N], table.even_sections[N]
        x_odd, x_even = table.odd[ends], table.even[ends]
        assert P.shape == Q.shape == (table.L, table.L)
        if alpha2 == 0.9:
            assert table.L == grid.M
        for view, base in ((P, table.odd_sections), (Q, table.even_sections),
                           (x_odd, table.odd), (x_even, table.even)):
            assert not view.flags.writeable
            assert np.shares_memory(view, base), N
        with pytest.raises(ValueError):
            P[0, 0] = 0.0


def test_moment_table_grows_past_its_end(below, below_grid):
    toeplitz_module.clear_cache()
    first = moment_table(below, below_grid, 64)
    longer = moment_table(below, below_grid, 200)
    assert len(first.odd) == 3 * below_grid.M and len(longer.odd) >= 200 + 2 * longer.L
    assert moment_table(below, below_grid, 5) is first
    assert np.array_equal(longer.odd[:len(first.odd)], first.odd)
    with pytest.raises(ValueError):
        moment_table(below, below_grid, -1)


def test_one_moment_table_per_grid(monkeypatch, below, above):
    """exp and ff over N = 1..32 on one grid gather each weight's moments
    once, and no program route calls the per-call gather."""
    gathers = Counter()
    moments = toeplitz_module._moments

    def counted(params, M, r, weight, j1):
        gathers[weight] += 1
        return moments(params, M, r, weight, j1)

    def forbidden(*args, **kwargs):
        raise AssertionError("per-call moment gather")

    monkeypatch.setattr(toeplitz_module, "_moments", counted)
    monkeypatch.setattr(toeplitz_module, "contour_moments", forbidden)
    toeplitz_module.clear_cache()
    for params in (below, above):
        grid = ic.make_grid(params, 64)
        for N in range(1, 33):
            for route in ("exp", "ff"):
                ic.correlation(params, N, route, 3, grid)
    assert gathers == {"qq": 1, "pp": 1, "qq_hat": 1, "pp_hat": 1}
    # a name bound by import before the patch would escape it
    assert not hasattr(fredholm_module, "contour_moments")
    assert not hasattr(expansions_module, "contour_moments")
