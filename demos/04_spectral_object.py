"""One small matrix carries both expansions.

Discretizing the two-step chain kernel on an M-node circle gives an
M x M matrix, but because z_k^M = r^M on that circle its Cauchy factor
is exactly c V V^T (V_ks = z_k^s), so the kernel has the nonzero
spectrum of P Q: two Hankel matrices of contour moments of the chain
weights.  The moments decay geometrically, and build_kernel keeps only
the L x L section that float64 can resolve.  Its power traces reproduce
the closed-chain integrals order by order; log det(I - K) sums the whole
exponential series at once; and the signed elementary symmetric
functions of its eigenvalues are exactly the form factors.  The script
checks all three faces of the section against the M-node grid
contractions and the Toeplitz determinant.
"""

import math

import numpy as np

import isingcorr as ic

params = ic.diagonal_from_alpha2(0.5)
grid = ic.make_grid(params, 64)
N = 2
K = ic.build_kernel(params, grid, N)
L = len(K.matrix)

print(f"kernel at separation N = {N}: the {L} x {L} section of the "
      f"{K.M}-node kernel, spectral radius {K.spectral_radius():.3e}\n")

print("power traces of the section vs closed-chain grid contractions")
print(f"(they differ by the grid's aliasing, of order r^(2M) = {grid.r ** (2 * grid.M):.1e} "
      "times the weights' scale, which the section drops):")
ks = ic.KernelSet(params)
for n in (1, 2, 3):
    chain = ic.chain_integral(grid, N, ks.qq, ks.pp, sites=2 * n, closed=True)
    trace = K.trace_power(n)
    print(f"  n={n}: tr(K^n) = {trace.real: .12e}   chain = {chain.real: .12e}"
          f"   diff = {abs(trace - chain):.1e}")

print("\nform factors from the spectrum vs direct grid products:")
ff = ic.ff_coeffs(K, 2)
for n in (1, 2):
    direct = ic.f_2n(params, grid, N, n, method="direct").value
    print(f"  order {2*n}: spectral = {ff[n]: .12e}   direct = {direct: .12e}"
          f"   diff = {abs(ff[n] - direct):.1e}")

print("\nsummed series vs the Toeplitz determinant:")
det = ic.det_DN(params, N, grid)
spectral = ic.s_infinity(params) * math.exp(ic.log_det_expansion(K))
print(f"  S_inf * det(I - K) = {spectral:.16f}")
print(f"  Toeplitz det       = {det:.16f}")
print(f"  difference         = {abs(spectral - det):.2e}")

print("\nlargest eigenvalues (they fall off geometrically):")
lams = sorted(K.eigenvalues(), key=abs, reverse=True)[:5]
for lam in lams:
    print(f"  |lambda| = {abs(lam):.3e}")
print("\nso truncating the form factor series after a few orders is enough:")
print(f"  partial sums: {np.cumsum(ic.ff_coeffs(K, 3))}")
