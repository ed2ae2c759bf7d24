"""Output checks: correlation values against the reference, verify records.

These run after the timed pass and never inside it.
"""

from __future__ import annotations

import math
from collections import Counter

#: route-agreement tolerances of the acceptance gate, per regime
TOLERANCE = {"below": 1e-7, "above": 1e-6}

#: fixed tolerances the identity suites document, by record name
DOCUMENTED_TOLERANCE = {
    "lemma2": 1e-9,
    "cauchy": 1e-12,
    "perm": 1e-12,
    "resum": 1e-10,
    "szego": 0.0,
}

#: records each suite delivers at the default 100 trials
EXPECTED_RECORDS = {
    "lemma1": 10, "lemma2": 8, "cauchy": 100, "perm": 100,
    "resum": 9, "fredholm": 18, "szego": 2,
}


def value_problem(value: float, reference: float, regime: str) -> str | None:
    """Why a correlation value is wrong, or None when it passes.

    A ferromagnet's spin-spin correlation lies in (0, 1], so a value outside
    that range is wrong even when it sits within the tolerance of the
    reference (a tiny negative determinant above the critical point).
    """
    if not math.isfinite(value):
        return f"value {value!r} is not finite"
    if not 0.0 < value <= 1.0:
        return f"value {value!r} lies outside (0, 1]"
    err = abs(value - reference)
    if not err <= TOLERANCE[regime]:
        return f"|value - reference| = {err:.3g} exceeds {TOLERANCE[regime]:g}"
    return None


def documented_tolerance(record: dict) -> float | None:
    """The tolerance a record must carry; None for lemma1, whose bound is computed."""
    name = record["name"]
    if name == "fredholm":
        return 1e-7 if record["params"].endswith("logdet") else 1e-10
    return DOCUMENTED_TOLERANCE.get(name)


def check_verify_report(report: dict, exit_code: int) -> tuple[int, list[dict], list[str]]:
    """Recheck one `corr verify --suite all` report.

    Returns the record count, the records whose residual reaches their
    tolerance (failed operations), and the problems that make the output
    wrong: a missing suite or record, an altered tolerance, a pass flag or
    exit code that disagrees with the residuals.
    """
    problems = []
    records = report.get("records", [])
    counts = Counter(rec.get("name") for rec in records)
    for name, expected in EXPECTED_RECORDS.items():
        if counts.get(name, 0) != expected:
            problems.append(f"suite {name} delivered {counts.get(name, 0)} records, expected {expected}")
    for name in counts.keys() - EXPECTED_RECORDS.keys():
        problems.append(f"unexpected record name {name!r}")
    failed = []
    for rec in records:
        residual, tol = rec["residual"], rec["tolerance"]
        expected = documented_tolerance(rec)
        if rec["name"] == "lemma1":
            if not (math.isfinite(tol) and tol >= 1e-14):
                problems.append(f"lemma1 {rec['params']}: tolerance {tol!r} is not a truncation bound")
        elif expected is None or tol != expected:
            problems.append(f"{rec['name']} {rec['params']}: tolerance {tol!r}, documented {expected!r}")
        ok = residual < tol
        if rec["pass"] is not ok:
            problems.append(f"{rec['name']} {rec['params']}: pass={rec['pass']} but residual "
                            f"{residual!r} vs tolerance {tol!r}")
        if not ok:
            failed.append(rec)
    if report.get("all_pass") is not (not failed):
        problems.append(f"all_pass={report.get('all_pass')} disagrees with {len(failed)} failed records")
    if exit_code != (1 if failed else 0):
        problems.append(f"exit code {exit_code} with {len(failed)} failed records")
    return len(records), failed, problems
