"""Expansion terms, combinatorial identities and the three-route correlations.

Conventions.  Every multiple contour integral is evaluated on one shared
grid with the (1/2 pi i)-per-contour normalization built into the node
weights, so the printed prefactors here differ from naive readings of
the defining integrals only by the power of i that conversion absorbs.
The bookkeeping is centralized (see docs/measure_conversion.md):

* order-2n closed chain coefficient      = -(1/n) * chain(sites=2n, closed)
* order-2n open "ratio" term             = -chain(sites=2n, power N+1, 1/z ends)
* order-(2n+1) open term (above regime)  = -chain(sites=2n+1, power N+1, 1/z ends)
* order-2n form factor                   = (-1)^n/(n!)^2 * grid-product sum
* order-(2n+1) form factor               = (-1)^(n+1)/(n!(n+1)!) * grid-product sum

Every term is read from the Hankel section P, Q of the chain kernel
through fredholm's seam, whose weights params.regime picks: plain below
the critical point, hat above.  section_sums gives the power sums
p_1..p_n, which are the closed chains; section_form_factors gives the
form factors, by Newton's identities on the same sums; section_chains
gives the open chains, bilinear forms in the same moments with the
section taken at separation N+1.  All return Python floats, which
fredholm keeps per (grid, N) on the grid's moment table, so the exp and
ff routes, every order n_max and every per-order term share one section;
a miss inside a run (N - 1 already recorded) fills a block of
consecutive separations at once, which the entries and terms at the next
separations then read.  Above T_c a miss of the power sums also fills
the open chains, which every entry there reads next to them.  Each float
becomes an ExpansionTerm(order, N, value, 0.0, SECTION) here.  The M-node
grid products (quadrature.chain_integral, _f_2n_direct, _f_2n1_direct)
remain as independent cross-checks; they are complex by rounding, and
_term keeps their imaginary residue as est_error.

The odd-order signs are anchored end to end against the determinant
route (both routes must produce the same signed number), which also
fixes the branch of the symbol above the critical point.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DegeneratePoints, MethodUnavailable, RegimeMismatch
from .fredholm import section_chains, section_form_factors, section_sums
from .kernels import KernelSet, s_hat_infinity, s_infinity
from .params import ModelParams, Regime
from .quadrature import ContourGrid, make_grid
from .toeplitz import det_DN


class Method(Enum):
    """How a term was computed; the values are the method= strings."""

    SECTION = "section"            # read from the kernel section
    DIRECT = "direct"              # the M-node grid product, a cross-check
    COMBINATION = "combination"    # assembled from other terms


class ExpansionTerm(NamedTuple):
    """One expansion coefficient at fixed separation.

    Terms read from the kernel section are real (its moments are real
    for real alpha) and carry est_error 0.0, and so do the combinations
    built from them.  A direct grid product is complex by rounding; its
    est_error records the imaginary residue discarded when taking the
    real part, which on the conjugate-symmetric grid sits at rounding
    level.
    """

    order: int
    N: int
    value: float
    est_error: float
    method: Method


def _term(order: int, N: int, raw: complex) -> ExpansionTerm:
    """The term of a direct grid product, as Python floats: its real part,
    with the imaginary residue as est_error."""
    raw = complex(raw)
    return ExpansionTerm(order, N, raw.real, abs(raw.imag), Method.DIRECT)


def _require_regime(params: ModelParams, regime: Regime, what: str) -> None:
    if params.regime is not regime:
        raise RegimeMismatch(f"{what} needs the {regime.value} regime")


def _closed(sums: tuple[float, ...], N: int) -> list[ExpansionTerm]:
    """The closed-chain terms -p_n/n of the power sums p_1, p_2, ... at N."""
    return [ExpansionTerm(2 * n, N, -p / n, 0.0, Method.SECTION) for n, p in enumerate(sums, 1)]


# ----------------------------------------------------------------------
# chain terms
# ----------------------------------------------------------------------

def F_2n(params: ModelParams, grid: ContourGrid, N: int, n: int) -> ExpansionTerm:
    """Order-2n coefficient of the exponential expansion: -tr(K^n)/n.

    K is the chain kernel section at separation N, whose n-th power
    trace (fredholm.section_sums) is the closed 2n-site chain.
    """
    if n < 1:
        raise ValueError("closed chains start at n=1")
    return _closed(section_sums(params, grid, N, n), N)[n - 1]


def Ftilde_2n(params: ModelParams, grid: ContourGrid, N: int, n: int) -> ExpansionTerm:
    """Telescoping increment: the closed chain carrying an extra (1 - prod z_k).

    Realized as the difference of the kernel power traces at separations
    N and N+1, which telescopes back to the order-2n coefficient when
    summed over separations.
    """
    if n < 1:
        raise ValueError("closed chains start at n=1")
    _require_regime(params, Regime.BELOW, "Ftilde_2n")
    here, next_sep = (section_sums(params, grid, S, n)[n - 1] for S in (N, N + 1))
    return ExpansionTerm(2 * n, N, -(here - next_sep) / n, 0.0, Method.SECTION)


def phi_2n(params: ModelParams, grid: ContourGrid, N: int, n: int) -> ExpansionTerm:
    """Order-2n term of the determinant-ratio series: the 2n-site open chain
    with 1/z ends, a bilinear form in the section at N+1."""
    if n < 1:
        raise ValueError("open ratio chains start at n=1")
    if N < 0:
        raise ValueError(f"separation N={N} must be non-negative")
    _require_regime(params, Regime.BELOW, "phi_2n")
    return ExpansionTerm(2 * n, N, section_chains(params, grid, N + 1, n)[n - 1], 0.0,
                         Method.SECTION)


def G_2n1(params: ModelParams, grid: ContourGrid, N: int, n: int) -> ExpansionTerm:
    """Order-(2n+1) open-chain term of the above-regime ratio series.

    The overall sign follows the physical branch of the shifted symbol
    (see KernelSet.phi): these terms sum to the last component of the
    shifted-system solve, and with that anchoring the open chain enters
    with a minus sign.  The choice is locked against the determinant
    oracle by the test suite.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if N < 0:
        raise ValueError(f"separation N={N} must be non-negative")
    _require_regime(params, Regime.ABOVE, "G_2n1")
    return ExpansionTerm(2 * n + 1, N, section_chains(params, grid, N + 1, n)[n], 0.0,
                         Method.SECTION)


# ----------------------------------------------------------------------
# form factors
# ----------------------------------------------------------------------

def _f_2n_direct(params: ModelParams, grid: ContourGrid, N: int, n: int) -> complex:
    """Plain grid-product evaluation of the squared-determinant integrand."""
    ks, suffix = KernelSet(params), "_hat" if params.regime is Regime.ABOVE else ""
    z = grid.nodes
    zn = z ** N
    qo = grid.weights * getattr(ks, "qq" + suffix)(z) * zn
    pe = grid.weights * getattr(ks, "pp" + suffix)(z) * zn
    C2 = grid.cauchy_matrix() ** 2
    if n == 1:
        return -complex(qo @ C2 @ pe)
    # n == 2: sum over odd pair (a, c) and even pair (b, d) of
    # qo_a qo_c pe_b pe_d C2_ab C2_ad C2_cb C2_cd (z_a - z_c)^2 (z_b - z_d)^2
    vde = (z[:, None] - z[None, :]) ** 2
    total = 0.0 + 0.0j
    for a in range(grid.M):
        X = C2 * (pe * C2[a])[None, :]       # X[c, b] = C2[c,b] pe[b] C2[a,b]
        inner = np.einsum("cd,cd->c", X @ vde, X)
        total += qo[a] * np.sum(qo * (z[a] - z) ** 2 * inner)
    return total / 4.0


def f_2n(params: ModelParams, grid: ContourGrid, N: int, n: int,
         method: Method | str = "section") -> ExpansionTerm:
    """Order-2n form factor.

    method "section" (the default) applies Newton's identities to the
    power traces of the kernel section, i.e. reads the term off its
    spectrum without computing it; "direct" evaluates the 2n-fold grid
    product (n <= 2 only) as an independent cross-check.  f at order 0
    is 1 by definition, labelled with the method asked for.
    """
    method = Method(method)
    if method is Method.COMBINATION:
        raise ValueError("f_2n takes method 'section' or 'direct'")
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return ExpansionTerm(order=0, N=N, value=1.0, est_error=0.0, method=method)
    if method is Method.DIRECT:
        if n > 2:
            raise MethodUnavailable("direct grid products are limited to n <= 2")
        return _term(2 * n, N, _f_2n_direct(params, grid, N, n))
    return ExpansionTerm(2 * n, N, section_form_factors(params, grid, N, n)[n], 0.0,
                         Method.SECTION)


def _f_2n1_direct(params: ModelParams, grid: ContourGrid, N: int, n: int) -> complex:
    """Grid-product evaluation for the first odd orders (n <= 1).

    Signs follow the same determinant-anchored convention as G_2n1.
    """
    ks = KernelSet(params)
    z = grid.nodes
    po = grid.weights * ks.pp_hat(z) * z ** (N - 1)
    if n == 0:
        return -complex(np.sum(po))
    qe = grid.weights * ks.qq_hat(z) * z ** (N + 1)
    C2 = grid.cauchy_matrix() ** 2
    vdo = (z[:, None] - z[None, :]) ** 2
    total = np.einsum("a,b,c,ab,cb,ac->", po, qe, po, C2, C2, vdo, optimize=True)
    return complex(total) / 2.0


def _odd_form_factors(chains: tuple[float, ...], hat_ff: list[float],
                      N: int) -> list[ExpansionTerm]:
    """Order-(2n+1) form factors for n = 0..len(chains)-1.

    Each is the convolution sum_k G_(2k+1) f_hat(2(n-k)) of the open
    chains G_1, G_3, ... with the hat form factors at separation N+1.
    """
    return [ExpansionTerm(2 * n + 1, N,
                          float(sum(g * hat_ff[n - k] for k, g in enumerate(chains[:n + 1]))),
                          0.0, Method.COMBINATION)
            for n in range(len(chains))]


def f_2n1(params: ModelParams, grid: ContourGrid, N: int, n: int,
          method: Method | str = "combination") -> ExpansionTerm:
    """Order-(2n+1) form factor, above the critical point.

    The default "combination" assembles it from the open-chain terms and
    the hat form factors at separation N+1; "direct" evaluates the
    (2n+1)-fold grid product and exists for n <= 1 as an independent
    cross-check.
    """
    method = Method(method)
    if method is Method.SECTION:
        raise ValueError("f_2n1 takes method 'combination' or 'direct'")
    if n < 0:
        raise ValueError("n must be non-negative")
    if N < 0:
        raise ValueError(f"separation N={N} must be non-negative")
    _require_regime(params, Regime.ABOVE, "f_2n1")
    if method is Method.DIRECT:
        if n > 1:
            raise MethodUnavailable("direct grid products are limited to n <= 1")
        return _term(2 * n + 1, N, _f_2n1_direct(params, grid, N, n))
    form = section_form_factors(params, grid, N + 1, n)
    return _odd_form_factors(section_chains(params, grid, N + 1, n), form, N)[n]


# ----------------------------------------------------------------------
# partition combinatorics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """Multiset of (part, multiplicity) pairs with distinct parts."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def nu(self) -> int:
        return len(self.pairs)

    @property
    def n(self) -> int:
        return sum(part * mult for part, mult in self.pairs)


@functools.lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, as (part, multiplicity) pair sets.

    Each n is enumerated once; the tuple of frozen partitions is shared
    by every later call.
    """
    if not 1 <= n <= 8:
        raise ValueError("partitions are enumerated for 1 <= n <= 8")
    found: list[list[int]] = []

    def descend(remaining: int, cap: int, acc: list[int]) -> None:
        if remaining == 0:
            found.append(acc)
            return
        for part in range(min(remaining, cap), 0, -1):
            descend(remaining - part, part, acc + [part])

    descend(n, n, [])
    return tuple(Partition(tuple(sorted(Counter(parts).items()))) for parts in found)


def multiplicity(p: Partition) -> Fraction:
    """Number of permutations with this cycle type: n! / prod(n_i^m_i m_i!)."""
    denom = 1
    for part, mult in p.pairs:
        denom *= part ** mult * math.factorial(mult)
    return Fraction(math.factorial(p.n), denom)


def f_from_F(params: ModelParams, grid: ContourGrid, N: int, n: int) -> ExpansionTerm:
    """Form factor assembled from closed-chain coefficients over partitions.

    Exponentiating the chain series and collecting equal total orders
    gives f(2n) = sum over partitions of n of prod (1/m_i!) F(2n_i)^m_i.
    """
    if n == 0:
        return ExpansionTerm(order=0, N=N, value=1.0, est_error=0.0, method=Method.COMBINATION)
    F = [t.value for t in _closed(section_sums(params, grid, N, n), N)]
    total = 0.0
    for p in partitions(n):
        piece = 1.0
        for part, mult in p.pairs:
            piece *= F[part - 1] ** mult / math.factorial(mult)
        total += piece
    return ExpansionTerm(2 * n, N, float(total), 0.0, Method.COMBINATION)


# ----------------------------------------------------------------------
# algebraic identity checks
# ----------------------------------------------------------------------

def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _check_points(odd: np.ndarray, even: np.ndarray) -> None:
    for name, pts in (("odd", odd), ("even", even)):
        for i, j in itertools.combinations(range(len(pts)), 2):
            if abs(pts[i] - pts[j]) < 1e-13:
                raise DegeneratePoints(f"coincident {name} points at indices {i}, {j}")
    for o in odd:
        for e in even:
            if abs(1.0 - o * e) < 1e-13:
                raise DegeneratePoints("product z_odd * z_even too close to 1")


def cauchy_identity_residual(odd_points, even_points, variant: str = "below") -> float:
    """Relative gap between the signed permutation sum and its product form.

    variant "below" compares the n x n alternating sum of
    1/(1 - e_k o_sigma(k)) with the Cauchy-determinant product; variant
    "above" takes n+1 odd points, weights each permutation with the
    reciprocal of the odd point placed last, and compares against the
    corresponding product form.  Exact identities, so the residual is
    rounding noise for well-separated points.
    """
    odd = np.asarray(odd_points, dtype=complex)
    even = np.asarray(even_points, dtype=complex)
    _check_points(odd, even)
    if variant == "below":
        if len(odd) != len(even):
            raise ValueError("below variant needs equally many odd and even points")
        n = len(odd)
        perm_sum = 0.0 + 0.0j
        for perm in itertools.permutations(range(n)):
            prod = 1.0 + 0.0j
            for k in range(n):
                prod /= 1.0 - even[k] * odd[perm[k]]
            perm_sum += _perm_sign(perm) * prod
        closed = 1.0 + 0.0j
        for o in odd:
            for e in even:
                closed /= 1.0 - o * e
        for p, q in itertools.combinations(range(n), 2):
            closed *= (odd[p] - odd[q]) * (even[p] - even[q])
    elif variant == "above":
        if len(odd) != len(even) + 1:
            raise ValueError("above variant needs one more odd point than even points")
        n = len(even)
        if np.any(np.abs(odd) < 1e-13):
            raise DegeneratePoints("odd points must stay away from the origin")
        perm_sum = 0.0 + 0.0j
        for perm in itertools.permutations(range(n + 1)):
            prod = 1.0 / odd[perm[n]]
            for k in range(n):
                prod /= 1.0 - odd[perm[k]] * even[k]
            perm_sum += _perm_sign(perm) * prod
        closed = 1.0 + 0.0j
        for o in odd:
            closed /= o
            for e in even:
                closed /= 1.0 - o * e
        for p, q in itertools.combinations(range(n + 1), 2):
            closed *= odd[p] - odd[q]
        for p, q in itertools.combinations(range(n), 2):
            closed *= even[p] - even[q]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return float(abs(perm_sum - closed) / abs(closed))


# ----------------------------------------------------------------------
# three-route correlations
# ----------------------------------------------------------------------

_EPS = math.ulp(1.0)


class Route(Enum):
    DETERMINANT = "det"
    EXPONENTIAL = "exp"
    FORM_FACTOR = "ff"


@dataclass
class ComparisonEntry:
    N: int
    route: str
    value: float
    est_error: float
    terms: list[ExpansionTerm]
    M: int
    n_max: int


def correlation(params: ModelParams, N: int, route: Route | str, n_max: int = 3,
                grid: ContourGrid | None = None) -> ComparisonEntry:
    """Correlation at separation N >= 1 by the requested route.

    Expansion routes truncate at n_max (closed-chain orders 2..2*n_max
    below, odd orders 1..2*n_max+1 above) and read every closed chain
    and form factor from the power sums of one kernel section; above the
    critical point the open-chain terms G_2n1 are bilinear forms in the
    same section.
    est_error is the magnitude of the last included term scaled by its
    prefactor: a last-term truncation heuristic, justified by the
    observed geometric decay of the terms.  It is never below the
    float64 rounding bound of the entry's own sum, 2 n_max eps times the
    sum of its summands' magnitudes as they enter the value (prefactor
    times each term for ff; for exp the value times each closed chain,
    next to the value below T_c and the prefactor times exp(sum F) times
    each open chain above), which is 0 at n_max = 0, where no order is
    added.  It does not cover grid aliasing.  Above T_c at diagonal
    alpha2 2.5, M=256, N=23, the last terms would state 6e-96 (ff) and
    1e-80 (exp) on a value of 8.6e-11, and both state the floor, 1.1e-25;
    at diagonal alpha2 0.5, N=30, M=64, exp states 1.2e-15 on 0.93; at
    diagonal alpha2 0.95, M=64, N=8, where the section is cut at L = M,
    exp states 7e-5 on 0.0499, 0.52 from the true value.
    """
    if N < 1:
        raise ValueError(f"separation N={N} must be at least 1")
    route = Route(route)
    if not 0 <= n_max <= 3:
        raise ValueError("n_max is limited to 0..3")
    if grid is None:
        grid = make_grid(params)
    below = params.regime is Regime.BELOW

    if route is Route.DETERMINANT:
        value = det_DN(params, N, grid)
        return ComparisonEntry(N=N, route=route.value, value=value, est_error=0.0,
                               terms=[], M=grid.M, n_max=n_max)

    # the entry's kernel section: plain at N below, hat at N+1 above, where
    # the open chains G_1, G_3, ... join it: its power sums are read first,
    # so above T_c one pass fills both; none is built at n_max=0
    S = N if below else N + 1
    prefactor = s_infinity(params) if below else s_hat_infinity(params)
    if route is Route.EXPONENTIAL:
        series = _closed(section_sums(params, grid, S, n_max), S)
        chains = () if below else section_chains(params, grid, S, n_max)
        closed = [t.value for t in series]
        exp_part = math.exp(sum(closed))
        last = abs(closed[-1]) if closed else 0.0
        if below:
            terms, value = series, prefactor * exp_part
            est = abs(value) * last
            scale = abs(value)
        else:
            terms = [ExpansionTerm(2 * n + 1, N, g, 0.0, Method.SECTION)
                     for n, g in enumerate(chains)] + series
            value = -prefactor * sum(chains) * exp_part
            est = prefactor * exp_part * abs(chains[-1]) + abs(value) * last
            scale = prefactor * exp_part * sum(map(abs, chains))
        scale += abs(value) * sum(map(abs, closed))
    else:
        values = section_form_factors(params, grid, S, n_max)
        if below:
            terms = [ExpansionTerm(2 * n, N, f, 0.0, Method.SECTION) for n, f in enumerate(values)]
        else:
            terms = _odd_form_factors(section_chains(params, grid, S, n_max), values, N)
            values = [t.value for t in terms]
        value = (prefactor if below else -prefactor) * sum(values)
        est = prefactor * abs(values[-1]) if n_max or not below else 0.0
        scale = prefactor * sum(map(abs, values))
    # never below the rounding of the entry's own sum
    est = max(est, 2 * n_max * _EPS * scale)
    return ComparisonEntry(N=N, route=route.value, value=float(value),
                           est_error=float(est), terms=terms, M=grid.M, n_max=n_max)
