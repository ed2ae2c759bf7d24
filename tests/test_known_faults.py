"""Silent wrong values the program still gives, pinned as strict xfails.

Each case is checked against the binomial-series determinant, which
reads no grid.  An entry passes when it raises a typed error, or when
its value lies within its stated error of the reference (plus rounding)
and that error is smaller than the reference itself: an error bar as
wide as the value says nothing about it.  strict=True turns a fix into a
failure here, so the change that fixes a case also drops its marker.
"""

import pytest

import isingcorr as ic

#: (label, params, N, M, the reference to the digits it is quoted with)
CASES = {
    "near-critical": (ic.diagonal_from_alpha2(0.95), 8, 64, 0.5701578, 1e-7),
    "above-large-N": (ic.direct(0.2, 3.0), 24, 256, 6.6387e-13, 1e-4),
    "N-near-M": (ic.diagonal_from_alpha2(0.5), 64, 64, 0.9306049, 1e-7),
}

FAULTS = [
    # det 0.5687, exp 0.0499 (est_error 7e-5), ff -0.396 (est_error 1.17): the
    # section is cut at L = M = 64 and the coefficients alias
    ("near-critical", "det"), ("near-critical", "exp"), ("near-critical", "ff"),
    # det -3.17e-13: the float64 LU above T_c loses every digit from N = 20 or so
    ("above-large-N", "det"),
    # det 0.99999999998: coefficient aliasing as N nears M
    ("N-near-M", "det"),
]


@pytest.mark.parametrize("case", CASES)
def test_series_reference_has_the_quoted_value(case):
    params, N, _, quoted, rel = CASES[case]
    assert ic.det_DN(params, N, route="series") == pytest.approx(quoted, rel=rel, abs=0.0)


@pytest.mark.xfail(strict=True, reason="silent wrong value: the grid route is off and says nothing")
@pytest.mark.parametrize("case, route", FAULTS, ids=[f"{c}-{r}" for c, r in FAULTS])
def test_value_is_within_its_stated_error_or_raises(case, route):
    params, N, M, _, _ = CASES[case]
    reference = ic.det_DN(params, N, route="series")
    try:
        entry = ic.correlation(params, N, route, 3, ic.make_grid(params, M))
    except ic.IsingCorrError:
        return
    assert entry.est_error < abs(reference)
    assert abs(entry.value - reference) <= entry.est_error + 1e-9 * abs(reference)
