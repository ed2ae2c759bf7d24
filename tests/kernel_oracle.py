"""The M x M grid kernel, the reference the L x L section is tested against.

K = A B with A[j, k] = u_j W_odd(z_j) z_j^N / (1 - z_j z_k) and
B[k, j] = u_k W_even(z_k) z_k^N / (1 - z_k z_j), assembled from the
grid's Cauchy matrix: the kernel build_kernel returned before it read the
Hankel section of the contour moments.  tr(K^n) is the closed 2n-site
chain on the grid, so its power sums are the closed-chain reference.
"""

import numpy as np

from isingcorr import KernelSet, Regime


def grid_kernel(params, grid, N):
    """The grid kernel with the regime's weights: plain below, hat above."""
    ks = KernelSet(params)
    z = grid.nodes
    above = params.regime is Regime.ABOVE
    w_odd = (ks.qq_hat if above else ks.qq)(z)
    w_even = (ks.pp_hat if above else ks.pp)(z)
    zn = z ** N
    C = grid.cauchy_matrix()
    A = (grid.weights * w_odd * zn)[:, None] * C
    B = (grid.weights * w_even * zn)[:, None] * C
    return A @ B


def power_sums(matrix, n_max):
    """tr(K^n) for n = 1..n_max by repeated products."""
    out, power = [], np.eye(len(matrix), dtype=complex)
    for _ in range(n_max):
        power = power @ matrix
        out.append(np.trace(power))
    return np.array(out)
