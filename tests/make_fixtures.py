"""Regenerate tests/fixtures/determinants.txt by the dual-route procedure.

Run from the repository root:  python3 tests/make_fixtures.py

Each parameter point is evaluated twice: Fourier coefficients from
contour quadrature (M = 128, midpoint radius) and from the independent
binomial-series convolution.  Both determinant values are recorded with
their mutual difference as est_error; the test suite refuses the frozen
values if the routes ever drift apart.
"""

from pathlib import Path

import isingcorr as ic

CASES = [
    (0.0, 0.5, range(1, 7)),
    (0.2, 0.5, range(1, 7)),
    (0.0, 2.5, range(1, 6)),
    (0.2, 3.0, range(1, 6)),
]
M = 128


def main() -> None:
    lines = [
        "# frozen Toeplitz determinant regressions",
        "# generated by tests/make_fixtures.py: quadrature route at "
        f"M={M} (midpoint radius) vs binomial-series route (length derived from r_min)",
        "# columns: alpha1 alpha2 N value est_error route",
    ]
    for a1, a2, Ns in CASES:
        params = ic.direct(a1, a2)
        grid = ic.make_grid(params, M)
        for N in Ns:
            quad = ic.det_DN(params, N, grid)
            series = ic.det_DN(params, N, route="series")
            gap = abs(quad - series)
            assert gap < 1e-11, (a1, a2, N, gap)
            lines.append(f"{a1} {a2} {N} {quad:.17g} {gap:.3g} quadrature")
            lines.append(f"{a1} {a2} {N} {series:.17g} {gap:.3g} series")
    out = Path(__file__).parent / "fixtures" / "determinants.txt"
    out.parent.mkdir(exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out} ({len(lines)} lines)")


if __name__ == "__main__":
    main()
