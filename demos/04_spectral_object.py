"""One small matrix carries both expansions.

Discretizing the two-step chain kernel on an M-node circle gives an
M x M matrix, but because z_k^M = r^M on that circle its Cauchy factor
is exactly c V V^T (V_ks = z_k^s), so the kernel has the nonzero
spectrum of P Q: two Hankel matrices of contour moments of the chain
weights.  The moments decay geometrically, and build_kernel keeps only
the L x L section that float64 can resolve.  Its power traces are the
closed-chain integrals order by order, Newton's identities turn them
into the form factors, and det(I - K), one LU of the section, sums both
expansions to all orders.  The script checks the form factors against
the M-node grid products and the determinant against the Toeplitz one.
"""

import math

import numpy as np

import isingcorr as ic

params = ic.diagonal_from_alpha2(0.5)
grid = ic.make_grid(params, 64)
N = 2
K = ic.build_kernel(params, grid, N)
L = len(K)

print(f"kernel at separation N = {N}: the {L} x {L} section of the {grid.M}-node kernel\n")

print("section traces turned into form factors (Newton's identities)")
print("vs the direct M-node grid products:")
traces = ic.power_sums(K, 2)
ff = ic.ff_coeffs(K, 2)
for n in (1, 2):
    direct = ic.f_2n(params, grid, N, n, method="direct").value
    print(f"  tr(K^{n}) = {traces[n - 1].real: .12e}   f({2*n}) = {ff[n]: .12e}"
          f"   direct = {direct: .12e}   diff = {abs(ff[n] - direct):.1e}")

print("\nboth series summed to all orders vs the Toeplitz determinant:")
det = ic.det_DN(params, N, grid)
spectral = ic.s_infinity(params) * math.exp(ic.log_det_expansion(K))
print(f"  S_inf * det(I - K) = {spectral:.16f}")
print(f"  Toeplitz det       = {det:.16f}")
print(f"  difference         = {abs(spectral - det):.2e}")

print("\nthe form factors fall off geometrically in the order:")
ff = ic.ff_coeffs(K, 3)
for n in (1, 2, 3):
    print(f"  |f({2*n})| = {abs(ff[n]):.3e}")
print("\nso truncating the form factor series after a few orders is enough:")
print(f"  partial sums: {np.cumsum(ff)}")
