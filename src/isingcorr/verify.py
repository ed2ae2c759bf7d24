"""Identity suites: each check returns a (residual, tolerance) record.

These are the machine-checkable facts the expansions rest on: the
determinant-ratio series against the linear solve, the telescoping
recursion between open and closed chains, the Cauchy-determinant and
endpoint permutation identities, the regrouping of the exponential
series into form factors, the spectral route, and the Szego limits.
"""

from __future__ import annotations

import math

import numpy as np

from . import expansions as ex
from .errors import IsingCorrError
from .fredholm import build_kernel, ff_coeffs, log_det_expansion
from .kernels import s_hat_infinity, s_infinity
from .params import diagonal_from_alpha2
from .quadrature import make_grid
from .toeplitz import det_DN, det_DhatN, solve_x

def _record(name: str, params: str, residual: float, tolerance: float) -> dict:
    return {
        "name": name,
        "params": params,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "pass": bool(residual < tolerance),
    }


def _sample_points(rng: np.random.Generator, count: int, radius: float = 0.9,
                   min_sep: float = 0.05) -> np.ndarray:
    """Distinct points in the disk |z| < radius, away from the origin."""
    while True:
        pts = rng.uniform(-radius, radius, count) + 1j * rng.uniform(-radius, radius, count)
        pts = pts[np.abs(pts) < radius]
        pts = pts[np.abs(pts) > 0.1]
        if len(pts) < count:
            continue
        pts = pts[:count]
        seps = [abs(pts[i] - pts[j]) for i in range(count) for j in range(i + 1, count)]
        if not seps or min(seps) > min_sep:
            return pts


def suite_lemma1(M: int = 64, **_) -> list[dict]:
    """Determinant-ratio series vs the direct linear solve, below regime.

    The bound is a truncation statement (10x the first omitted term), so
    the grid must be fine enough that quadrature aliasing sits below it;
    128 nodes achieve that across the tested parameter box.  The omitted
    term is read first, so each sequence of open chains is computed once,
    at its highest order; open chains build no section.
    """
    out = []
    for alpha2 in (0.4, 0.6):
        p = diagonal_from_alpha2(alpha2)
        g = make_grid(p, max(M, 128))
        for N in range(1, 6):
            omitted = abs(ex.phi_2n(p, g, N, 3).value)
            x0 = solve_x(p, N, "A", g)[0]
            series = 1.0 + sum(ex.phi_2n(p, g, N, n).value for n in (1, 2))
            tol = 10.0 * omitted + 1e-14
            out.append(_record("lemma1", f"alpha2={alpha2} N={N}",
                               abs(x0 - series), tol))
    return out


def suite_lemma2(M: int = 64, **_) -> list[dict]:
    """Recursion n*phi(2n) = sum_l l*Ftilde(2l)*phi(2n-2l).

    Every term is read up front, highest order first, so each section is
    built once, for its power sums; the open chains build none.
    """
    p = diagonal_from_alpha2(0.5)
    g = make_grid(p, M)
    phi, Ftilde = {}, {}
    for N in range(1, 5):
        for k in (3, 2, 1):
            phi[N, k] = ex.phi_2n(p, g, N, k).value
            Ftilde[N, k] = ex.Ftilde_2n(p, g, N, k).value
        phi[N, 0] = 1.0
    out = []
    for n in (2, 3):
        for N in range(1, 5):
            lhs = n * phi[N, n]
            rhs = sum(l * Ftilde[N, l] * phi[N, n - l] for l in range(1, n + 1))
            out.append(_record("lemma2", f"alpha2=0.5 n={n} N={N}",
                               abs(lhs - rhs), 1e-9))
    return out


def suite_cauchy(trials: int = 100, seed: int = 0, **_) -> list[dict]:
    """Cauchy determinant identity on random point sets, n up to 3."""
    rng = np.random.default_rng(seed)
    out = []
    for trial in range(trials):
        n = 1 + trial % 3
        odd = _sample_points(rng, n)
        even = _sample_points(rng, n)
        res = ex.cauchy_identity_residual(odd, even, "below")
        out.append(_record("cauchy", f"trial={trial} n={n}", res, 1e-12))
    return out


def suite_perm(trials: int = 100, seed: int = 0, **_) -> list[dict]:
    """Endpoint-weighted permutation identity, n up to 2."""
    rng = np.random.default_rng(seed)
    out = []
    for trial in range(trials):
        n = 1 + trial % 2
        odd = _sample_points(rng, n + 1)
        even = _sample_points(rng, n)
        res = ex.cauchy_identity_residual(odd, even, "above")
        out.append(_record("perm", f"trial={trial} n={n}", res, 1e-12))
    return out


def suite_resum(M: int = 64, **_) -> list[dict]:
    """Form factors from the spectrum vs regrouped chain coefficients (f_from_F).

    Both are read from one section per N, built for the order-6 chain,
    which is read first.
    """
    p = diagonal_from_alpha2(0.5)
    g = make_grid(p, M)
    out = []
    for N in range(1, 4):
        expected = {n: ex.f_from_F(p, g, N, n).value for n in (3, 2, 1)}
        for n in (1, 2, 3):
            out.append(_record("resum", f"alpha2=0.5 N={N} order={2*n}",
                               abs(ex.f_2n(p, g, N, n).value - expected[n]), 1e-10))
    return out


def suite_fredholm(M: int = 64, **_) -> list[dict]:
    """Spectral coefficients vs direct grid products, and the log det route."""
    out = []
    for alpha2 in (0.4, 0.5):
        p = diagonal_from_alpha2(alpha2)
        g = make_grid(p, M)
        for N in (1, 2, 3):
            K = build_kernel(p, g, N)
            f = ff_coeffs(K, 2)
            for n in (1, 2):
                direct = ex.f_2n_direct(p, g, N, n).value
                out.append(_record("fredholm", f"alpha2={alpha2} N={N} order={2*n}",
                                   abs(f[n] - direct), 1e-10))
            value = s_infinity(p) * math.exp(log_det_expansion(K))
            out.append(_record("fredholm", f"alpha2={alpha2} N={N} logdet",
                               abs(value - det_DN(p, N, g)), 1e-7))
    return out


def suite_szego(M: int = 64, **_) -> list[dict]:
    """Strict monotone approach of the determinants to their limits."""
    out = []
    p = diagonal_from_alpha2(0.5)
    g = make_grid(p, M)
    target = s_infinity(p)
    gaps = [abs(det_DN(p, N, g) - target) for N in range(2, 11)]
    worst = max(gaps[i + 1] - gaps[i] for i in range(len(gaps) - 1))
    out.append(_record("szego", "below alpha2=0.5 N=2..10", worst, 0.0))

    pa = diagonal_from_alpha2(2.5)
    ga = make_grid(pa, M)
    target = s_hat_infinity(pa)
    gaps = [abs((-1) ** N * det_DhatN(pa, N, ga) - target) for N in range(2, 11)]
    worst = max(gaps[i + 1] - gaps[i] for i in range(len(gaps) - 1))
    out.append(_record("szego", "above alpha2=2.5 N=2..10", worst, 0.0))
    return out


SUITES = {
    "lemma1": suite_lemma1,
    "lemma2": suite_lemma2,
    "cauchy": suite_cauchy,
    "perm": suite_perm,
    "resum": suite_resum,
    "fredholm": suite_fredholm,
    "szego": suite_szego,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, trials: int = 100, seed: int = 0, M: int = 64) -> list[dict]:
    """Run one named suite (or 'all') and return its records."""
    if name == "all":
        records = []
        for key in SUITE_NAMES:
            records.extend(SUITES[key](trials=trials, seed=seed, M=M))
        return records
    if name not in SUITES:
        raise IsingCorrError(f"unknown suite {name!r}; pick from {SUITE_NAMES + ('all',)}")
    return SUITES[name](trials=trials, seed=seed, M=M)
