import math
from fractions import Fraction

import numpy as np
import pytest

import isingcorr as ic
from isingcorr import KernelSet, Method, Partition
from isingcorr import expansions as expansions_module
from isingcorr import fredholm as fredholm_module
from isingcorr import toeplitz as toeplitz_module


# ----------------------------------------------------------------------
# closed chains
# ----------------------------------------------------------------------

def test_F_degenerate_vanishes(degenerate):
    g = ic.make_grid(degenerate, 64)
    for n in (1, 2, 3):
        for N in (0, 1, 2):
            assert abs(ic.F_2n(degenerate, g, N, n).value) < 1e-13


def test_F_matches_bruteforce_pair_sum(below, below_grid):
    ks = KernelSet(below)
    z, u = below_grid.nodes, below_grid.weights
    qq, pp = ks.qq(z), ks.pp(z)
    N = 1
    brute = 0.0 + 0.0j
    for j in range(below_grid.M):
        brute += np.sum(u[j] * qq[j] * z[j] ** N * u * pp * z ** N
                        / ((1 - z[j] * z) * (1 - z * z[j])))
    term = ic.F_2n(below, below_grid, N, 1)
    assert abs(term.value - (-brute.real)) < 1e-13
    assert term.order == 2 and term.method is Method.SECTION


def test_F_hat_equals_plain_for_diagonal_inversion(above, above_grid):
    """Diagonal parameters: the hat chain at alpha2 equals the plain chain
    at 1/alpha2 (the two kernel sets swap roles around the critical point)."""
    inverted = ic.diagonal_from_alpha2(1.0 / above.alpha2)
    grid = ic.make_grid(inverted, 64)
    assert grid.r == above_grid.r
    for n in (1, 2):
        for N in (1, 3):
            hat = ic.F_2n(above, above_grid, N, n).value
            plain = ic.F_2n(inverted, grid, N, n).value
            assert abs(hat - plain) < 1e-13


def test_F_rejects_order_zero(below, below_grid):
    with pytest.raises(ValueError):
        ic.F_2n(below, below_grid, 1, 0)


def test_Ftilde_is_chain_difference(below, below_grid):
    for n in (1, 2):
        for N in (1, 2):
            tele = ic.Ftilde_2n(below, below_grid, N, n).value
            pair = ic.F_2n(below, below_grid, N, n).value \
                - ic.F_2n(below, below_grid, N + 1, n).value
            assert tele == pytest.approx(pair, abs=1e-16)


def test_Ftilde_partial_sums_telescope(below, below_grid):
    N = 2
    target = ic.F_2n(below, below_grid, N, 1).value
    partial = 0.0
    for K in range(N, N + 16):
        partial += ic.Ftilde_2n(below, below_grid, K, 1).value
    tail = below.alpha2 ** (4 * (N + 16))
    assert abs(partial - target) < max(10 * tail, 1e-13)


def test_Ftilde_degenerate(degenerate):
    g = ic.make_grid(degenerate, 64)
    assert abs(ic.Ftilde_2n(degenerate, g, 1, 1).value) < 1e-13


def test_telescoped_ratio_product_reaches_determinant(below, below_grid):
    """The limit value times the ratio product over growing windows
    converges onto the determinant at the window's base separation."""
    N = 2
    target = ic.det_DN(below, N, below_grid)
    prefactor = ic.s_infinity(below)
    product = 1.0
    gaps = []
    for k in range(N, N + 8):
        product *= ic.solve_x(below, k, "A", below_grid)[0]
        gaps.append(abs(prefactor * product - target))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-8


# ----------------------------------------------------------------------
# open chains and the linear-solve oracle
# ----------------------------------------------------------------------

def test_phi_degenerate_vanishes(degenerate):
    g = ic.make_grid(degenerate, 64)
    for n in (1, 2):
        assert abs(ic.phi_2n(degenerate, g, 1, n).value) < 1e-13


def test_phi_series_matches_solve(below, below_grid):
    N = 3
    x0 = ic.solve_x(below, N, "A", below_grid)[0]
    series = 1.0 + ic.phi_2n(below, below_grid, N, 1).value \
        + ic.phi_2n(below, below_grid, N, 2).value
    omitted = abs(ic.phi_2n(below, below_grid, N, 3).value)
    assert abs(x0 - series) <= 10 * omitted + 1e-14


def test_phi_recursion_residual(below, below_grid):
    n, N = 2, 2
    phis = {0: 1.0,
            1: ic.phi_2n(below, below_grid, N, 1).value,
            2: ic.phi_2n(below, below_grid, N, 2).value}
    lhs = n * phis[2]
    rhs = sum(l * ic.Ftilde_2n(below, below_grid, N, l).value * phis[n - l]
              for l in (1, 2))
    assert abs(lhs - rhs) < 1e-10


def test_G_single_site_matches_contour_integral(above, above_grid):
    ks = KernelSet(above)
    for N in (1, 2, 4):
        single = -ic.contour_integral(above_grid,
                                      lambda z, _N=N: ks.pp_hat(z) * z ** (_N - 1))
        chain = ic.G_2n1(above, above_grid, N, 0)
        assert chain.value == pytest.approx(single.real, abs=1e-15)
        assert chain.order == 1


def test_G_sum_matches_shifted_solve(above, above_grid):
    for N in (2, 3):
        x = ic.solve_x(above, N, "B", above_grid)
        total = sum(ic.G_2n1(above, above_grid, N, k).value for k in (0, 1))
        omitted = abs(ic.G_2n1(above, above_grid, N, 2).value)
        assert abs(x[N] - total) <= 2 * omitted + 1e-15


def test_G_far_above_critical_point_vanishes():
    p = ic.direct(0.0, 1e6)
    g = ic.make_grid(p, 64)
    for N in (1, 2):
        assert abs(ic.G_2n1(p, g, N, 0).value) < 1e-5


def test_open_chains_match_chain_integral():
    """phi_2n and G_2n1 from the section equal the M-node open chains.

    At M=64 the two differ by aliasing of the grid, a few 1e-11 of the
    smallest terms; at M=256 by rounding.
    """
    def close(got, want, what):
        assert abs(got - want) <= 1e-10 * abs(want), (what, got, want)

    for params in (ic.diagonal_from_alpha2(0.5), ic.direct(0.2, 0.5)):
        ks = KernelSet(params)
        for M in (64, 256):
            grid = ic.make_grid(params, M)
            for N in (1, 2, 3):
                for n in (1, 2, 3):
                    chain = ic.chain_integral(grid, N + 1, ks.qq, ks.pp, sites=2 * n,
                                              endpoint_factor=lambda z: 1.0 / z)
                    close(ic.phi_2n(params, grid, N, n).value, -chain.real,
                          ("phi", params.alpha1, params.alpha2, M, N, n))
    for params in (ic.diagonal_from_alpha2(2.5), ic.diagonal_from_alpha2(4.0), ic.direct(0.2, 3.0)):
        ks = KernelSet(params)
        for M in (64, 256):
            grid = ic.make_grid(params, M)
            for N in (1, 2, 3):
                for n in (0, 1, 2, 3):
                    chain = ic.chain_integral(grid, N + 1, ks.pp_hat, ks.qq_hat, sites=2 * n + 1,
                                              endpoint_factor=lambda z: 1.0 / z)
                    close(ic.G_2n1(params, grid, N, n).value, -chain.real,
                          ("G", params.alpha1, params.alpha2, M, N, n))


def test_G_regime_guard(below, below_grid):
    with pytest.raises(ic.RegimeMismatch):
        ic.G_2n1(below, below_grid, 1, 0)


def test_G_rejects_negative_separation(above, above_grid):
    """G_1 at N = -1 would be entry -1 of the moment table, its last entry."""
    for n in (0, 1):
        with pytest.raises(ValueError, match="must be non-negative"):
            ic.G_2n1(above, above_grid, -1, n)


@pytest.mark.parametrize("N", [-1, -2])
def test_per_order_readers_reject_negative_separation(below, below_grid, above, above_grid, N):
    """Every per-order reader checks its arguments through one gate before
    any work: N < 0 is refused with one message at its first order
    (where f_2n and f_from_F return 1 without a section) and at n = 1
    (phi_2n and f_2n1 read the section at N + 1, which is 0 at N = -1);
    an order below the first is a ValueError, and a regime-bound reader
    refuses the other regime."""
    B, A = (below, below_grid), (above, above_grid)
    # reader, its regime, its first order, and the other regime when the
    # term exists in one regime only
    readers = [(ic.F_2n, B, 1, None), (ic.Ftilde_2n, B, 1, A), (ic.phi_2n, B, 1, A),
               (ic.G_2n1, A, 0, B), (ic.f_2n, B, 0, None), (ic.f_2n_direct, B, 0, None),
               (ic.f_2n1, A, 0, B), (ic.f_2n1_direct, A, 0, B), (ic.f_from_F, B, 0, None)]
    for reader, (params, grid), first, other in readers:
        for n in (first, 1):
            with pytest.raises(ValueError, match=f"separation N={N} must be non-negative"):
                reader(params, grid, N, n)
        with pytest.raises(ValueError):
            reader(params, grid, 2, first - 1)
        if other:
            with pytest.raises(ic.RegimeMismatch):
                reader(*other, 2, 1)
    with pytest.raises(ic.MethodUnavailable):
        ic.f_2n_direct(below, below_grid, 2, 3)
    with pytest.raises(ic.MethodUnavailable):
        ic.f_2n1_direct(above, above_grid, 2, 2)


# ----------------------------------------------------------------------
# form factors
# ----------------------------------------------------------------------

def test_f_order_zero_is_one(below, below_grid):
    assert ic.f_2n(below, below_grid, 3, 0).value == 1.0


def test_f2_equals_F2(below, below_grid):
    for N in (1, 2, 3):
        f = ic.f_2n_direct(below, below_grid, N, 1).value
        F = ic.F_2n(below, below_grid, N, 1).value
        assert abs(f - F) < 1e-12


def test_f4_from_partition_relation(below, below_grid):
    for N in (1, 2):
        f = ic.f_2n_direct(below, below_grid, N, 2).value
        F2 = ic.F_2n(below, below_grid, N, 1).value
        F4 = ic.F_2n(below, below_grid, N, 2).value
        assert abs(f - (F4 + F2 ** 2 / 2.0)) < 1e-11


def test_f_direct_vs_section(below, below_grid, above, above_grid):
    for params, grid in ((below, below_grid), (above, above_grid)):
        for n in (1, 2):
            d = ic.f_2n_direct(params, grid, 2, n)
            e = ic.f_2n(params, grid, 2, n)
            assert abs(d.value - e.value) < 1e-10
            assert d.method is Method.DIRECT and e.method is Method.SECTION


def test_f_default_is_section(below, below_grid, above, above_grid):
    """f_2n reads the kernel section; the grid product is f_2n_direct."""
    for params, grid in ((below, below_grid), (above, above_grid)):
        for n in range(4):
            term = ic.f_2n(params, grid, 2, n)
            assert term == (2 * n, 2, fredholm_module.section_form_factors(params, grid, 2, n)[n],
                            0.0, Method.SECTION)


def test_f_order_zero_carries_the_requested_label(below, below_grid):
    for reader, method in ((ic.f_2n, Method.SECTION), (ic.f_2n_direct, Method.DIRECT)):
        term = reader(below, below_grid, 2, 0)
        assert (term.value, term.method) == (1.0, method)


@pytest.mark.parametrize("method", ["eigen", "bogus", None, "combination", Method.COMBINATION])
def test_f_2n_rejects_unknown_method(below, below_grid, method):
    """f_2n takes no method= selector; its grid product is f_2n_direct."""
    with pytest.raises(TypeError):
        ic.f_2n(below, below_grid, 2, 1, method=method)


@pytest.mark.parametrize("method", ["eigen", "bogus", "section", Method.SECTION])
def test_f_2n1_rejects_unknown_method(above, above_grid, method):
    """f_2n1 takes no method= selector; its grid product is f_2n1_direct."""
    with pytest.raises(TypeError):
        ic.f_2n1(above, above_grid, 2, 1, method=method)


def test_f_direct_limited(below, below_grid):
    with pytest.raises(ic.MethodUnavailable):
        ic.f_2n_direct(below, below_grid, 1, 3)


def test_f_odd_order_zero_equals_G1(above, above_grid):
    for N in (1, 3):
        f1 = ic.f_2n1(above, above_grid, N, 0)
        g1 = ic.G_2n1(above, above_grid, N, 0)
        assert f1.value == g1.value
        assert f1.method is Method.COMBINATION


def test_f_odd_combination_vs_direct(above, above_grid):
    for N in (1, 2):
        comb = ic.f_2n1(above, above_grid, N, 1).value
        direct = ic.f_2n1_direct(above, above_grid, N, 1).value
        assert abs(comb - direct) < 1e-10


def test_f_odd_far_above_critical_point():
    p = ic.direct(0.0, 1e6)
    g = ic.make_grid(p, 64)
    assert abs(ic.f_2n1(p, g, 2, 0).value) < 1e-5


def test_form_factors_past_the_section_size_build_nothing(monkeypatch, below, below_grid,
                                                         above, above_grid):
    """f_2n and f_2n1 refuse an order n past the section size L before any
    power sum is read: no section is built, and the records keep what they
    held."""
    def forbidden(*args, **kwargs):
        raise AssertionError("section read for an order past the section size")

    toeplitz_module.clear_cache()
    ic.f_2n(below, below_grid, 3, 2)
    ic.f_2n1(above, above_grid, 3, 2)
    monkeypatch.setattr(fredholm_module, "build_kernel", forbidden)
    monkeypatch.setattr(fredholm_module, "_open_chains", forbidden)
    for reader, params, grid in ((ic.f_2n, below, below_grid), (ic.f_2n1, above, above_grid)):
        table = toeplitz_module.moment_table(params, grid, 4)
        before = (dict(table.sums), dict(table.chains))
        with pytest.raises(ValueError, match=f"n_max={table.L + 1} exceeds the matrix size {table.L}"):
            reader(params, grid, 3, table.L + 1)
        assert (table.sums, table.chains) == before


def test_f_odd_direct_limited(above, above_grid):
    with pytest.raises(ic.MethodUnavailable):
        ic.f_2n1_direct(above, above_grid, 1, 2)


# ----------------------------------------------------------------------
# partition combinatorics
# ----------------------------------------------------------------------

def test_partitions_of_three():
    parts = {p.pairs for p in ic.partitions(3)}
    assert parts == {((1, 3),), ((3, 1),), ((1, 1), (2, 1))}


def test_partition_counts():
    assert [len(ic.partitions(n)) for n in range(1, 6)] == [1, 2, 3, 5, 7]


def test_partition_weight_conservation():
    for n in range(1, 7):
        for p in ic.partitions(n):
            assert p.n == n
            assert len({part for part, _ in p.pairs}) == p.nu


def test_multiplicities_sum_to_factorial():
    for n in range(1, 7):
        total = sum(ic.multiplicity(p) for p in ic.partitions(n))
        assert total == Fraction(math.factorial(n))


def test_multiplicity_of_three_cycle():
    assert ic.multiplicity(Partition(((3, 1),))) == 2


def test_partitions_are_enumerated_once():
    """partitions(n) hands back one shared immutable tuple of frozen
    partitions, so f_from_F enumerates each n once."""
    for n in range(1, 9):
        parts = ic.partitions(n)
        assert type(parts) is tuple and ic.partitions(n) is parts
        assert all(type(p) is Partition for p in parts)
    with pytest.raises(AttributeError):
        ic.partitions(3)[0].pairs = ()


def test_partitions_bounds():
    with pytest.raises(ValueError):
        ic.partitions(0)
    with pytest.raises(ValueError):
        ic.partitions(9)


# ----------------------------------------------------------------------
# identity residuals
# ----------------------------------------------------------------------

def test_cauchy_single_pair_exact():
    assert ic.cauchy_identity_residual([0.3 + 0.1j], [0.5 - 0.2j], "below") == 0.0


def test_cauchy_below_random_sets():
    rng = np.random.default_rng(17)
    for _ in range(100):
        odd = 0.45 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        even = 0.45 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        try:
            res = ic.cauchy_identity_residual(odd, even, "below")
        except ic.DegeneratePoints:
            continue
        assert res < 1e-12


def test_permutation_identity_above_random_sets():
    rng = np.random.default_rng(18)
    for _ in range(100):
        odd = 0.2 + 0.45 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        even = 0.45 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        try:
            res = ic.cauchy_identity_residual(odd, even, "above")
        except ic.DegeneratePoints:
            continue
        assert res < 1e-12


def test_identity_degenerate_points_rejected():
    with pytest.raises(ic.DegeneratePoints):
        ic.cauchy_identity_residual([0.3, 0.3], [0.1, 0.5], "below")
    with pytest.raises(ic.DegeneratePoints):
        ic.cauchy_identity_residual([0.5], [2.0], "below")  # product at 1
    with pytest.raises(ic.DegeneratePoints):
        ic.cauchy_identity_residual([1e-15, 0.4], [0.3], "above")
    with pytest.raises(ValueError):
        ic.cauchy_identity_residual([0.1, 0.2], [0.3], "below")
    with pytest.raises(ValueError):
        ic.cauchy_identity_residual([0.1], [0.3], "above")


# ----------------------------------------------------------------------
# three-route correlations
# ----------------------------------------------------------------------

def test_correlation_degenerate_all_routes(degenerate):
    g = ic.make_grid(degenerate, 64)
    for route in ("det", "exp", "ff"):
        assert ic.correlation(degenerate, 2, route, 2, g).value == \
            pytest.approx(1.0, abs=1e-10)


def test_correlation_below_routes_vs_determinant(below, below_grid):
    det = ic.correlation(below, 3, "det", 2, below_grid).value
    exp_val = ic.correlation(below, 3, "exp", 2, below_grid).value
    assert abs(exp_val - det) < 1e-8


def test_correlation_above_routes_vs_determinant(above, above_grid):
    det = ic.correlation(above, 3, "det", 2, above_grid).value
    ff_val = ic.correlation(above, 3, "ff", 2, above_grid).value
    assert abs(ff_val - det) < 1e-6


def test_correlation_sign_matches_determinant_above(above_grid):
    for a1, a2 in ((0.0, 2.5), (0.2, 3.0)):
        params = ic.direct(a1, a2)
        grid = ic.make_grid(params, 64)
        for N in range(1, 6):
            det = ic.correlation(params, N, "det", 2, grid).value
            ff = ic.correlation(params, N, "ff", 2, grid).value
            assert math.copysign(1.0, det) == math.copysign(1.0, ff)


def test_expansion_terms_are_real(below, below_grid, above, above_grid):
    entries = [
        ic.correlation(below, 2, "exp", 3, below_grid),
        ic.correlation(above, 2, "exp", 3, above_grid),
        ic.correlation(above, 2, "ff", 3, above_grid),
    ]
    for entry in entries:
        for term in entry.terms:
            assert term.est_error < 1e-10


def test_term_magnitudes_decrease_with_order(below_grid):
    for alpha2 in (0.5, 0.6):
        params = ic.diagonal_from_alpha2(alpha2)
        grid = ic.make_grid(params, 64)
        for N in (1, 2):
            mags = [abs(ic.F_2n(params, grid, N, n).value) for n in (1, 2, 3)]
            assert mags[0] > mags[1] > mags[2]
    params = ic.diagonal_from_alpha2(2.5)
    grid = ic.make_grid(params, 64)
    for N in (1, 2):
        mags = [abs(ic.f_2n1(params, grid, N, n).value) for n in (0, 1, 2)]
        assert mags[0] > mags[1] > mags[2]


def test_correlation_terms_match_per_order_functions(below, above):
    """correlation and the public per-order terms read one section helper,
    so their terms are equal, values, residues and labels alike."""
    for M in (64, 256):
        below_grid, above_grid = ic.make_grid(below, M), ic.make_grid(above, M)
        for N in (1, 5):
            for n_max in range(4):
                exp_terms = ic.correlation(below, N, "exp", n_max, below_grid).terms
                ff_terms = ic.correlation(below, N, "ff", n_max, below_grid).terms
                assert exp_terms == [ic.F_2n(below, below_grid, N, n)
                                     for n in range(1, n_max + 1)]
                assert ff_terms == [ic.f_2n(below, below_grid, N, n) for n in range(n_max + 1)]

                exp_terms = ic.correlation(above, N, "exp", n_max, above_grid).terms
                ff_terms = ic.correlation(above, N, "ff", n_max, above_grid).terms
                assert exp_terms == ([ic.G_2n1(above, above_grid, N, n) for n in range(n_max + 1)]
                                     + [ic.F_2n(above, above_grid, N + 1, n)
                                        for n in range(1, n_max + 1)])
                assert ff_terms == [ic.f_2n1(above, above_grid, N, n) for n in range(n_max + 1)]


def test_correlation_terms_carry_their_method(below, below_grid, above, above_grid):
    """exp terms and below-regime form factors are read from the section;
    the odd form factors above are combinations of other terms."""
    for n_max in (0, 3):
        for route in ("exp", "ff"):
            terms = ic.correlation(below, 4, route, n_max, below_grid).terms
            assert [t.method for t in terms] == [Method.SECTION] * len(terms)
        terms = ic.correlation(above, 4, "exp", n_max, above_grid).terms
        assert len(terms) == 2 * n_max + 1
        assert [t.method for t in terms] == [Method.SECTION] * len(terms)
        terms = ic.correlation(above, 4, "ff", n_max, above_grid).terms
        assert len(terms) == n_max + 1
        assert [t.method for t in terms] == [Method.COMBINATION] * len(terms)


def test_correlation_at_order_zero_builds_no_section(monkeypatch, below, below_grid,
                                                    above, above_grid):
    """n_max=0: the prefactor below, the prefactor times -G_1 above."""
    def forbidden(*args, **kwargs):
        raise AssertionError("kernel section built at n_max=0")

    monkeypatch.setattr(fredholm_module, "build_kernel", forbidden)
    monkeypatch.setattr(fredholm_module, "_open_chains", forbidden)
    for N in (1, 4):
        for route in ("exp", "ff"):
            entry = ic.correlation(below, N, route, 0, below_grid)
            assert entry.value == ic.s_infinity(below)
            assert entry.est_error == 0.0
        ks = KernelSet(above)
        g1 = ic.contour_integral(above_grid, lambda z: ks.pp_hat(z) * z ** (N - 1)).real
        want = ic.s_hat_infinity(above) * g1
        for route in ("exp", "ff"):
            entry = ic.correlation(above, N, route, 0, above_grid)
            assert entry.value == pytest.approx(want, rel=1e-14, abs=0.0)
            assert [t.order for t in entry.terms] == [1]
            assert entry.est_error == pytest.approx(abs(want), rel=1e-14)


def test_open_chains_alone_build_no_section(monkeypatch, below, below_grid, above, above_grid):
    """phi_2n and G_2n1 apply the section as P (Q v), so reading them builds none."""
    def forbidden(*args, **kwargs):
        raise AssertionError("kernel section built for an open chain")

    monkeypatch.setattr(fredholm_module, "build_kernel", forbidden)
    toeplitz_module.clear_cache()
    for N in (1, 4, 30):
        for n in (3, 2, 1):
            assert ic.phi_2n(below, below_grid, N, n).method is Method.SECTION
        for n in (3, 2, 1, 0):
            assert ic.G_2n1(above, above_grid, N, n).method is Method.SECTION


def test_expansions_reads_sections_through_fredholm_alone():
    """expansions binds neither the moment table, its section size nor
    fredholm's section builders and Newton's identities."""
    for name in ("moment_table", "section_size", "build_kernel", "form_factors"):
        assert not hasattr(expansions_module, name), name


def test_correlation_entry_metadata(below, below_grid):
    entry = ic.correlation(below, 4, "ff", 3, below_grid)
    assert entry.N == 4 and entry.route == "ff"
    assert entry.M == 64 and entry.n_max == 3
    assert entry.est_error >= 0.0
    assert [t.order for t in entry.terms] == [0, 2, 4, 6]


def test_correlation_validation(below, below_grid):
    with pytest.raises(ValueError):
        ic.correlation(below, 2, "nope", 2, below_grid)
    with pytest.raises(ValueError):
        ic.correlation(below, 2, "exp", 7, below_grid)


@pytest.mark.parametrize("N", [0, -1])
@pytest.mark.parametrize("route", ["det", "exp", "ff"])
def test_correlation_rejects_separation_below_one(monkeypatch, below, below_grid,
                                                  above, above_grid, route, N):
    """N < 1 is refused before any work, with one message for every route
    and regime; a section read at N = 0 gives a "correlation" above 1."""
    def forbidden(*args, **kwargs):
        raise AssertionError("work done for N < 1")

    monkeypatch.setattr(expansions_module, "section_sums", forbidden)
    monkeypatch.setattr(expansions_module, "section_chains", forbidden)
    monkeypatch.setattr(expansions_module, "section_form_factors", forbidden)
    monkeypatch.setattr(expansions_module, "det_DN", forbidden)
    monkeypatch.setattr(fredholm_module, "moment_table", forbidden)
    for params, grid in ((below, below_grid), (above, above_grid)):
        with pytest.raises(ValueError, match=f"separation N={N} must be at least 1"):
            ic.correlation(params, N, route, 3, grid)


@pytest.mark.parametrize("alpha2, M, N", [(2.5, 256, 23), (0.5, 64, 30)])
def test_est_error_is_never_below_the_rounding_of_its_sum(alpha2, M, N):
    """Far out in N the last terms fall below the value's own rounding
    (at diagonal 2.5, M=256, N=23: 6e-96 for ff and 1e-80 for exp on a
    value of 8.6e-11); est_error then states the float64 rounding bound
    of the entry's sum, a few eps times its summands, and no less."""
    params = ic.diagonal_from_alpha2(alpha2)
    grid = ic.make_grid(params, M)
    eps = np.finfo(float).eps
    below = params.regime is ic.Regime.BELOW
    prefactor = ic.s_infinity(params) if below else ic.s_hat_infinity(params)
    for route in ("exp", "ff"):
        entry = ic.correlation(params, N, route, 3, grid)
        last = abs(entry.terms[-1].value) * (abs(entry.value) if route == "exp" else prefactor)
        assert last < eps * abs(entry.value) * 1e-3, (route, last)
        assert eps * abs(entry.value) <= entry.est_error < 100 * eps * abs(entry.value), route
        if route == "ff":
            summands = sum(abs(prefactor * t.value) for t in entry.terms)
            assert entry.est_error == pytest.approx(6 * eps * summands, rel=1e-12)
