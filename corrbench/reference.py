"""Reference correlations computed apart from isingcorr.

The row and diagonal correlations are the leading principal minors
D_N = det[a_{i-j}] of the Toeplitz matrices of the symbol

    phi(z) = [(1 - a1 z)(1 - a2/z) / ((1 - a1/z)(1 - a2 z))]^(1/2),

taken factor by factor with the principal branch.  Above the critical
point (a2 > 1) the physical determination is minus that product, written
as -(1/z) [(1 - a1 z)(1 - z/a2) / ((1 - a1/z)(1 - 1/(a2 z)))]^(1/2).

The Fourier coefficients a_n come from the trapezoidal rule on the unit
circle with many more nodes than the program uses (an FFT in float64,
a plain DFT in mpmath), and all minors D_1..D_N come from one Gaussian
elimination without pivoting, whose k-th pivot is D_k / D_{k-1}.  Nothing
here imports isingcorr.
"""

from __future__ import annotations

import math

import numpy as np

#: float64 node count on the unit circle; aliasing decays like rho**(L - N)
FLOAT_NODES = 1024


def _decay_rate(alpha1: float, alpha2: float) -> float:
    """Largest |singularity| inside the unit circle, which sets the aliasing."""
    if alpha2 < 1.0:
        return max(alpha1, alpha2)
    return max(alpha1, 1.0 / alpha2)


def _symbol(alpha1, alpha2, z, sqrt):
    if alpha2 < 1.0:
        return sqrt(1 - alpha1 * z) * sqrt(1 - alpha2 / z) / (
            sqrt(1 - alpha1 / z) * sqrt(1 - alpha2 * z))
    return -sqrt(1 - alpha1 * z) * sqrt(1 - z / alpha2) / (
        z * sqrt(1 - alpha1 / z) * sqrt(1 - 1 / (alpha2 * z)))


def _coefficients_float(alpha1: float, alpha2: float, nmax: int) -> np.ndarray:
    """a_n for n = -(nmax-1)..nmax-1, in that order, by FFT."""
    L = FLOAT_NODES
    if nmax >= L // 2:
        raise ValueError(f"nmax={nmax} needs more than {L} nodes")
    z = np.exp(2j * np.pi * np.arange(L) / L)
    a = np.fft.fft(_symbol(alpha1, alpha2, z, np.sqrt)).real / L
    return a[np.arange(-(nmax - 1), nmax) % L]


def _coefficients_mp(alpha1, alpha2, nmax: int, dps: int) -> np.ndarray:
    """The same coefficients by a DFT carried out at dps digits."""
    import mpmath as mp

    with mp.workdps(dps + 10):
        rho = _decay_rate(float(alpha1), float(alpha2))
        L = 2 * nmax + int(math.ceil((dps + 10) / -math.log10(rho)))
        a1, a2 = mp.mpf(alpha1), mp.mpf(alpha2)
        z = [mp.expjpi(mp.mpf(2 * k) / L) for k in range(L)]
        vals = [_symbol(a1, a2, zk, mp.sqrt) for zk in z]
        out = []
        for n in range(-(nmax - 1), nmax):
            # z_k**(-n) = conj(z_k)**n on the unit circle, read off the table
            acc = mp.fsum(v * z[(-n * k) % L] for k, v in enumerate(vals))
            out.append(mp.re(acc) / L)
        return np.array(out, dtype=object)


def leading_minors(coeffs: np.ndarray) -> list:
    """D_1..D_N of the Toeplitz matrix [a_{i-j}] from a_{-(N-1)}..a_{N-1}.

    Works on float64 arrays and on object arrays of mpmath numbers alike.
    """
    N = (len(coeffs) + 1) // 2
    idx = np.arange(N)[:, None] - np.arange(N)[None, :] + (N - 1)
    U = coeffs[idx].copy()
    minors = []
    det = 1
    for k in range(N):
        pivot = U[k, k]
        det = det * pivot
        minors.append(det)
        if k + 1 < N:
            U[k + 1:, k + 1:] -= np.outer(U[k + 1:, k] / pivot, U[k, k + 1:])
    return minors


def correlations(alpha1: float, alpha2: float, nmax: int, dps: int | None = None) -> list:
    """Reference D_1..D_nmax; float64 by default, mpmath numbers at dps digits."""
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    if dps is None:
        return [float(d) for d in leading_minors(_coefficients_float(alpha1, alpha2, nmax))]
    import mpmath as mp

    with mp.workdps(dps + 10):
        return leading_minors(_coefficients_mp(alpha1, alpha2, nmax, dps))
