"""Trapezoidal contour quadrature and the chain-contraction engine.

All integrals in this package are normalized per contour as
(1/2 pi i) * closed integral of f(z) dz over |z| = r.  On M equispaced
nodes z_k = r exp(2 pi i k / M) that normalized integral is the plain
weighted sum  sum_k u_k f(z_k)  with u_k = z_k / M, which is spectrally
accurate for integrands analytic in an annulus around the contour.

Multiple integrals whose integrands couple neighbouring variables only
through 1/(1 - z_i z_{i+1}) ("chains") contract to matrix-vector
products over the node set: an open m-variable chain costs O(m M^2)
work, never O(M^m).  The program reads every chain from the much smaller
Hankel section of contour moments instead (see fredholm): closed chains
are the section's power sums, open chains bilinear forms in its moments.
chain_integral (open chains only) and ContourGrid.cauchy_matrix stay as
the independent M-node references the tests compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergence, NonFinite, PoleOnGrid, RadiusOutOfRange
from .params import ModelParams, Regime

#: default node count for desk-scale work
DEFAULT_M = 64
#: refinement cap
DEFAULT_M_MAX = 1024

_POLE_TOL = 1e-14


def r_min(params: ModelParams) -> float:
    """Innermost admissible contour radius for these parameters.

    Below the critical point the inner branch point sits at alpha2; above
    it the evaluations at z and 1/z are both safe only for
    |z| > max(alpha1, 1/alpha2).
    """
    if params.regime is Regime.BELOW:
        return params.alpha2
    return max(params.alpha1, 1.0 / params.alpha2)


@dataclass
class ContourGrid:
    """Nodes and weights for one circle |z| = r, immutable after build.

    weights are u_k = z_k / M so that sum_k u_k f(z_k) approximates the
    (1/2 pi i)-normalized contour integral.  The nearest-neighbour matrix
    1/(1 - z_i z_j), which only the reference chain contractions use, is
    computed lazily and cached; it is read-only afterwards, so sharing a
    grid across threads is safe.
    """

    M: int
    r: float
    nodes: np.ndarray
    weights: np.ndarray
    _cauchy: np.ndarray | None = field(default=None, repr=False, compare=False)

    def cauchy_matrix(self) -> np.ndarray:
        if self._cauchy is None:
            denom = 1.0 - np.outer(self.nodes, self.nodes)
            if np.min(np.abs(denom)) < _POLE_TOL:
                raise PoleOnGrid("1 - z_i z_j vanishes on the grid")
            self._cauchy = 1.0 / denom
        return self._cauchy


def check_M(M: int) -> None:
    """Raise ValueError unless M is a power of two, at least 8."""
    if M < 8 or (M & (M - 1)) != 0:
        raise ValueError(f"M={M} must be a power of two, at least 8")


def make_grid(params: ModelParams, M: int = DEFAULT_M, r: float | None = None) -> ContourGrid:
    """Build an M-node grid on |z| = r inside the admissible annulus.

    M must be a power of two, at least 8.  With r omitted the radius is
    the midpoint (1 + r_min)/2 of the admissible interval.
    """
    check_M(M)
    lo = r_min(params)
    if r is None:
        r = 0.5 * (1.0 + lo)
    if not (lo < r < 1.0):
        raise RadiusOutOfRange(f"radius {r} outside the open interval ({lo}, 1)")
    nodes = r * np.exp(2j * np.pi * np.arange(M) / M)
    return ContourGrid(M=M, r=float(r), nodes=nodes, weights=nodes / M)


def _finite_or_raise(values: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise NonFinite(f"{what} evaluated to a non-finite value on the grid")
    return values


def contour_integral(grid: ContourGrid, f) -> complex:
    """(1/2 pi i)-normalized integral of f over the grid circle.

    f must accept the full node array (vectorized evaluation).
    """
    vals = _finite_or_raise(np.asarray(f(grid.nodes), dtype=complex), "integrand")
    return complex(np.sum(grid.weights * vals))


def chain_integral(
    grid: ContourGrid,
    N: int,
    weight_odd,
    weight_even,
    sites: int,
    endpoint_factor=None,
) -> complex:
    """Contract an open nearest-neighbour chain of contour integrals.

    The integrand is the product over sites i = 1..m of
    z_i**N * w(z_i), with w = weight_odd on odd sites and weight_even on
    even sites, times 1/(1 - z_i z_{i+1}) for each adjacent pair, times
    endpoint_factor(z) on the first and last site (twice on a single-site
    chain, whose two ends coincide).  The value carries one 1/(2 pi i)
    per contour, i.e. it is the plain u-weighted sum.

    The program reads open chains as bilinear forms in the kernel
    section's moments (expansions.phi_2n, G_2n1); this is the independent
    reference the tests compare them against.
    """
    if sites < 1:
        raise ValueError("chain needs at least one site")
    z = grid.nodes
    wo = _finite_or_raise(np.asarray(weight_odd(z), dtype=complex), "odd-site weight")
    we = _finite_or_raise(np.asarray(weight_even(z), dtype=complex), "even-site weight")
    zn = z ** N
    s_odd = grid.weights * wo * zn
    s_even = grid.weights * we * zn
    C = grid.cauchy_matrix()
    if endpoint_factor is None:
        ends = np.ones_like(z)
    else:
        ends = _finite_or_raise(np.asarray(endpoint_factor(z), dtype=complex), "endpoint factor")
    site_vectors = [s_odd if i % 2 == 1 else s_even for i in range(1, sites + 1)]
    v = site_vectors[0] * ends
    for s in site_vectors[1:]:
        v = (C @ v) * s
    v = v * ends
    return complex(np.sum(v))


def refine_until(compute, tol: float, M_start: int = 8, M_max: int = DEFAULT_M_MAX):
    """Double the node count until successive values agree.

    compute(M) must re-run the full calculation on an M-node grid.
    Returns (value, est_error, M_used) where est_error is the last
    successive difference; raises NoConvergence (carrying the best value)
    if the difference never drops below tol * max(1, |value|) by M_max.
    """
    M = int(M_start)
    value = compute(M)
    est = np.inf
    while M < M_max:
        M *= 2
        nxt = compute(M)
        est = abs(nxt - value)
        value = nxt
        if est < tol * max(1.0, abs(value)):
            return value, float(est), M
    raise NoConvergence(
        f"no convergence to tol={tol} by M={M_max}", value=value,
        est_error=float(est), M_used=M,
    )
