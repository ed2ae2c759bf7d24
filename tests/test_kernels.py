import math

import numpy as np
import pytest

import isingcorr as ic
from isingcorr import KernelSet


def annulus_points(params, count, seed=0):
    ks = KernelSet(params)
    lo, hi = ks.phi_annulus()
    hi = min(hi, 4.0)
    rng = np.random.default_rng(seed)
    radii = rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), count)
    angles = rng.uniform(0.0, 2.0 * np.pi, count)
    return radii * np.exp(1j * angles)


def test_p_q_at_origin(below):
    ks = KernelSet(below)
    assert ks.p(0.0) == 1.0
    assert ks.q(0.0) == 1.0


def test_p_value_from_defining_formula(below):
    # ((1 - 0.5)/(1 - 0))**0.5 at z = 1
    value = complex(KernelSet(below).p(1.0))
    assert value.real == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert abs(value.imag) < 1e-15


def test_hat_pair_at_origin_and_reciprocal(above):
    ks = KernelSet(above)
    assert ks.p_hat(0.0) == 1.0
    assert ks.q_hat(0.0) == 1.0
    assert complex(ks.p_hat(1.0) * ks.q_hat(1.0)) == pytest.approx(1.0, abs=1e-15)


def test_reciprocal_pairing_bulk(below, above):
    z = annulus_points(below, 10_000, seed=1)
    ks = KernelSet(below)
    assert np.max(np.abs(ks.p(z) * ks.q(z) - 1.0)) < 1e-13
    zh = annulus_points(above, 10_000, seed=2)
    ksh = KernelSet(above)
    assert np.max(np.abs(ksh.p_hat(zh) * ksh.q_hat(zh) - 1.0)) < 1e-13


def test_phi_degenerate_is_one(degenerate):
    ks = KernelSet(degenerate)
    z = 0.9 * np.exp(1j * np.linspace(0.1, 6.2, 7))
    assert np.max(np.abs(ks.phi(z) - 1.0)) < 1e-15


def test_phi_at_unity_symmetry(below):
    assert complex(KernelSet(below).phi(1.0)) == pytest.approx(1.0, abs=1e-15)


def test_phi_matches_factor_pair(below):
    ks = KernelSet(below)
    z = annulus_points(below, 200, seed=3)
    mask = np.abs(z) < 1.0
    z = z[mask][:50]
    via_factors = 1.0 / (ks.p(z) * ks.q(1.0 / z))
    assert np.max(np.abs(ks.phi(z) - via_factors)) < 1e-12 * np.max(np.abs(via_factors))


def test_phi_squared_equals_branchfree_ratio(below, above):
    # the square of the symbol is single-valued, so it checks the branch
    # assembly without committing to either square root
    for params in (below, above):
        ks = KernelSet(params)
        a1, a2 = params.alpha1, params.alpha2
        z = annulus_points(params, 100, seed=4)
        ratio = ((1 - a1 * z) * (1 - a2 / z)) / ((1 - a1 / z) * (1 - a2 * z))
        assert np.max(np.abs(ks.phi(z) ** 2 - ratio)) < 1e-12 * np.max(np.abs(ratio))


def test_phi_conjugate_symmetry(below, above):
    for params in (below, above):
        ks = KernelSet(params)
        z = annulus_points(params, 64, seed=6)
        assert np.max(np.abs(ks.phi(np.conj(z)) - np.conj(ks.phi(z)))) < 1e-13


def test_branch_violations(below, above):
    ks = KernelSet(below)
    with pytest.raises(ic.BranchViolation):
        ks.p(2.5)          # at 1/alpha2 and beyond
    with pytest.raises(ic.BranchViolation):
        ks.phi(0.3)        # inside the annulus hole
    with pytest.raises(ic.BranchViolation):
        ks.phi(2.1)        # outside
    ksh = KernelSet(above)
    with pytest.raises(ic.BranchViolation):
        ksh.p_hat(2.6)     # beyond alpha2
    with pytest.raises(ic.BranchViolation):
        ksh.phi(0.3)       # below max(alpha1, 1/alpha2)


def test_s_infinity_value(below):
    assert ic.s_infinity(below) == pytest.approx(0.75 ** 0.25, abs=1e-15)
    assert ic.s_infinity(below) == pytest.approx(0.9306048591020996, abs=1e-12)


def test_s_hat_infinity_value():
    p = ic.direct(0.0, 2.0)
    assert ic.s_hat_infinity(p) == pytest.approx(0.75 ** 0.25, abs=1e-15)


def test_s_infinity_degenerate_is_one(degenerate):
    assert ic.s_infinity(degenerate) == pytest.approx(1.0, abs=1e-15)


def test_s_limits_regime_mismatch(below, above):
    with pytest.raises(ic.RegimeMismatch):
        ic.s_infinity(above)
    with pytest.raises(ic.RegimeMismatch):
        ic.s_hat_infinity(below)


def test_s_limits_in_unit_interval():
    for a1, a2 in ((0.0, 0.3), (0.1, 0.7), (0.3, 0.9)):
        assert 0.0 < ic.s_infinity(ic.direct(a1, a2)) <= 1.0
    for a1, a2 in ((0.0, 1.5), (0.2, 4.0)):
        assert 0.0 < ic.s_hat_infinity(ic.direct(a1, a2)) <= 1.0
