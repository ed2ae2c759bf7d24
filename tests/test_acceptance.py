"""Acceptance gate: the end-to-end criteria at their stated tolerances.

Each test prints one [PASS]/[FAIL] line (run pytest -s to see them all).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import isingcorr as ic
from isingcorr.toeplitz import toeplitz_matrix


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


def test_criterion_1_oracle_equivalence_below():
    start = time.time()
    worst = 0.0
    for a1, a2 in ((0.0, 0.4), (0.0, 0.5), (0.2, 0.5)):
        params = ic.direct(a1, a2)
        grid = ic.make_grid(params, 64)
        for N in range(1, 7):
            det = ic.det_DN(params, N, grid)
            exp_val = ic.correlation(params, N, "exp", 3, grid).value
            ff_val = ic.correlation(params, N, "ff", 3, grid).value
            worst = max(worst, abs(exp_val - det), abs(ff_val - det))
    elapsed = time.time() - start
    report(1, "below-regime routes vs determinant at 1e-7",
           worst < 1e-7 and elapsed < 60.0,
           f"worst |diff|={worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence_above():
    start = time.time()
    worst = 0.0
    sign_ok = True
    for a1, a2 in ((0.0, 2.5), (0.2, 3.0)):
        params = ic.direct(a1, a2)
        grid = ic.make_grid(params, 64)
        for N in range(1, 6):
            det = ic.det_DN(params, N, grid)
            exp_val = ic.correlation(params, N, "exp", 2, grid).value
            ff_val = ic.correlation(params, N, "ff", 2, grid).value
            worst = max(worst, abs(exp_val - det), abs(ff_val - det))
            sign_ok &= math.copysign(1, exp_val) == math.copysign(1, det)
            sign_ok &= math.copysign(1, ff_val) == math.copysign(1, det)
    elapsed = time.time() - start
    report(2, "above-regime routes vs determinant at 1e-6 incl. sign",
           worst < 1e-6 and sign_ok and elapsed < 60.0,
           f"worst |diff|={worst:.3e}, signs={'ok' if sign_ok else 'BAD'}, {elapsed:.1f}s")


def test_criterion_3_lemma_suites():
    ok = True
    details = []
    for alpha2 in (0.4, 0.6):
        params = ic.diagonal_from_alpha2(alpha2)
        grid = ic.make_grid(params, 128)
        for N in range(1, 6):
            x0 = ic.solve_x(params, N, "A", grid)[0]
            series = 1.0 + sum(ic.phi_2n(params, grid, N, n).value for n in (1, 2))
            omitted = abs(ic.phi_2n(params, grid, N, 3).value)
            if abs(x0 - series) > 10.0 * omitted + 1e-14:
                ok = False
                details.append(f"ratio-series alpha2={alpha2} N={N}")
    params = ic.diagonal_from_alpha2(0.5)
    grid = ic.make_grid(params, 64)
    worst = 0.0
    for n in (2, 3):
        for N in range(1, 5):
            phis = {0: 1.0}
            for k in range(1, n + 1):
                phis[k] = ic.phi_2n(params, grid, N, k).value
            rhs = sum(l * ic.Ftilde_2n(params, grid, N, l).value * phis[n - l]
                      for l in range(1, n + 1))
            worst = max(worst, abs(n * phis[n] - rhs))
    ok &= worst < 1e-9
    report(3, "ratio-series vs solve and chain recursion residual < 1e-9",
           ok, f"recursion worst={worst:.3e}" + ("; " + "; ".join(details) if details else ""))


def test_criterion_4_algebraic_identities():
    from isingcorr.verify import run_suite

    below = run_suite("cauchy", trials=100, seed=2024)
    above = run_suite("perm", trials=100, seed=2024)
    worst_below = max(rec["residual"] for rec in below)
    worst_above = max(rec["residual"] for rec in above)
    ok = len(below) == 100 and len(above) == 100 \
        and worst_below < 1e-12 and worst_above < 1e-12
    report(4, "Cauchy and endpoint permutation identities < 1e-12 over 100 sets",
           ok, f"below={worst_below:.3e} above={worst_above:.3e}")


def test_criterion_5_order_matching():
    params = ic.diagonal_from_alpha2(0.5)
    grid = ic.make_grid(params, 64)
    worst = 0.0
    for N in (1, 2, 3):
        F = {n: ic.F_2n(params, grid, N, n).value for n in (1, 2, 3)}
        K = ic.build_kernel(params, grid, N)
        f = ic.ff_coeffs(K, 3)
        worst = max(worst,
                    abs(f[1] - F[1]),
                    abs(f[2] - (F[2] + F[1] ** 2 / 2)),
                    abs(f[3] - (F[3] + F[1] * F[2] + F[1] ** 3 / 6)))
    report(5, "form factors match regrouped chain coefficients at 1e-10",
           worst < 1e-10, f"worst={worst:.3e}")


def test_criterion_6_spectral_route():
    worst_ff = 0.0
    worst_det = 0.0
    for alpha2 in (0.4, 0.5):
        params = ic.diagonal_from_alpha2(alpha2)
        grid = ic.make_grid(params, 64)
        for N in (1, 2, 3):
            K = ic.build_kernel(params, grid, N)
            f = ic.ff_coeffs(K, 2)
            for n in (1, 2):
                direct = ic.f_2n(params, grid, N, n, method="direct").value
                worst_ff = max(worst_ff, abs(f[n] - direct))
            spectral = ic.s_infinity(params) * math.exp(ic.log_det_expansion(K))
            worst_det = max(worst_det, abs(spectral - ic.det_DN(params, N, grid)))
    ok = worst_ff < 1e-10 and worst_det < 1e-7
    report(6, "spectral coefficients at 1e-10 and log-det route at 1e-7",
           ok, f"ff={worst_ff:.3e} det={worst_det:.3e}")


def test_criterion_7_szego_limits():
    params = ic.diagonal_from_alpha2(0.5)
    grid = ic.make_grid(params, 64)
    target = ic.s_infinity(params)
    gaps = [abs(ic.det_DN(params, N, grid) - target) for N in range(2, 11)]
    below_ok = all(b < a for a, b in zip(gaps, gaps[1:]))
    pa = ic.diagonal_from_alpha2(2.5)
    ga = ic.make_grid(pa, 64)
    target = ic.s_hat_infinity(pa)
    gaps_hat = [abs((-1) ** N * ic.det_DhatN(pa, N, ga) - target) for N in range(2, 11)]
    above_ok = all(b < a for a, b in zip(gaps_hat, gaps_hat[1:]))
    report(7, "determinant gaps to the limits strictly decrease, N=2..10",
           below_ok and above_ok,
           f"below last={gaps[-1]:.3e} above last={gaps_hat[-1]:.3e}")


def test_criterion_8_quadrature_convergence():
    params = ic.diagonal_from_alpha2(0.5)
    values = {M: ic.correlation(params, 3, "exp", 3, ic.make_grid(params, M)).value
              for M in (16, 32, 64)}
    d1 = abs(values[32] - values[16])
    d2 = abs(values[64] - values[32])
    ok = d2 < d1 / 10.0 or d2 < 1e-13
    report(8, "M-doubling 16->32->64 shrinks the route value change >= 10x",
           ok, f"d(32)={d1:.3e} d(64)={d2:.3e}")


def test_criterion_9_structural():
    params = ic.diagonal_from_alpha2(2.5)
    grid = ic.make_grid(params, 64)
    # the shifted matrix is the plain one less its last row and first column
    shifted = toeplitz_matrix(params, 7, grid)[:-1, 1:]
    shift_ok = all(
        shifted[i, j] == ic.fourier_coeff(params, grid, i - j - 1)
        for i in range(6) for j in range(6)
    )
    N = 4
    B = toeplitz_matrix(params, N + 2, grid)[:-1, 1:]
    A = toeplitz_matrix(params, N, grid)
    minor_ok = np.array_equal(B[1:, :-1], A)
    mult_ok = all(
        sum(ic.multiplicity(p) for p in ic.partitions(n)) == Fraction(math.factorial(n))
        for n in range(1, 7)
    )
    report(9, "coefficient shift bit-exact, minor structure, partition counts",
           shift_ok and minor_ok and mult_ok,
           f"shift={shift_ok} minor={minor_ok} multiplicities={mult_ok}")
