"""Ising row/diagonal pair correlations by three mutually checking routes.

The same number is computed as a Toeplitz determinant, as a Szego limit
times the exponential of closed-chain contour integrals, and as a form
factor series; the package exists to evaluate all three and verify the
identities tying them together to floating-point accuracy.
"""

from .errors import (
    BranchViolation,
    CriticalPoint,
    DegeneratePoints,
    InvalidAlphas,
    InvalidCoupling,
    IsingCorrError,
    MethodUnavailable,
    NoConvergence,
    NonFinite,
    PoleOnGrid,
    RadiusOutOfRange,
    RegimeMismatch,
    SingularMatrix,
    SpectralRadiusExceeded,
)
from .expansions import (
    ComparisonEntry,
    ExpansionTerm,
    F_2n,
    Ftilde_2n,
    G_2n1,
    Method,
    Partition,
    Route,
    cauchy_identity_residual,
    correlation,
    f_2n,
    f_2n1,
    f_2n1_direct,
    f_2n_direct,
    f_from_F,
    multiplicity,
    partitions,
    phi_2n,
)
from .fredholm import build_kernel, ff_coeffs, log_det_expansion, power_sums
from .kernels import KernelSet, s_hat_infinity, s_infinity
from .params import Kind, ModelParams, Regime, diagonal_from_alpha2, direct, from_couplings
from .quadrature import ContourGrid, chain_integral, contour_integral, make_grid, refine_until, r_min
from .toeplitz import det_DN, det_DhatN, fourier_coeff, fourier_coeff_series, solve_x

__version__ = "0.1.0"

__all__ = [
    "BranchViolation", "ComparisonEntry", "ContourGrid", "CriticalPoint",
    "DegeneratePoints", "ExpansionTerm", "F_2n", "Ftilde_2n", "G_2n1",
    "InvalidAlphas", "InvalidCoupling", "IsingCorrError", "KernelSet",
    "Kind", "Method", "MethodUnavailable", "ModelParams",
    "NoConvergence", "NonFinite", "Partition", "PoleOnGrid",
    "RadiusOutOfRange", "Regime", "RegimeMismatch", "Route",
    "SingularMatrix", "SpectralRadiusExceeded",
    "build_kernel", "cauchy_identity_residual", "chain_integral",
    "contour_integral", "correlation", "det_DN", "det_DhatN",
    "diagonal_from_alpha2", "direct", "f_2n", "f_2n1", "f_2n1_direct",
    "f_2n_direct", "f_from_F",
    "ff_coeffs", "fourier_coeff", "fourier_coeff_series", "from_couplings",
    "log_det_expansion", "make_grid", "multiplicity", "partitions",
    "phi_2n", "power_sums", "r_min", "refine_until", "s_hat_infinity",
    "s_infinity", "solve_x", "__version__",
]
