"""Tests of the benchmark itself: its reference, its checks and its output.

Run from the repository root:  python3 -m pytest -q corrbench/tests
"""

import copy
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import mpmath as mp
import pytest

import isingcorr as ic
import isingcorr.cli
from checks import check_verify_report, value_problem
from reference import correlations
from tracer import PER_LAYER, Tracer
from workloads import VERIFY_ARGV

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def mp_minors(alpha1, alpha2, nmax, dps=40):
    """D_1..D_nmax from mpmath quadrature of the symbol and mpmath determinants."""
    with mp.workdps(dps + 10):
        a1, a2 = mp.mpf(alpha1), mp.mpf(alpha2)

        def phi(z):
            if alpha2 < 1:
                return mp.sqrt((1 - a1 * z) / (1 - a2 * z)) * mp.sqrt((1 - a2 / z) / (1 - a1 / z))
            return -mp.sqrt((1 - a1 * z) * (1 - z / a2)) / (z * mp.sqrt((1 - a1 / z) * (1 - 1 / (a2 * z))))

        def coeff(n):
            f = lambda t: mp.re(phi(mp.expj(t)) * mp.expj(-n * t))
            return mp.quad(f, mp.linspace(0, 2 * mp.pi, 5)) / (2 * mp.pi)

        a = {n: coeff(n) for n in range(-(nmax - 1), nmax)}
        return [mp.det(mp.matrix([[a[i - j] for j in range(N)] for i in range(N)]))
                for N in range(1, nmax + 1)]


@pytest.mark.parametrize("alpha1, alpha2, nmax", [
    (0.0, 0.5, 6),      # diagonal, below
    (0.2, 0.6, 5),      # direct, below
    (0.0, 2.5, 5),      # diagonal, above
    (0.25, 3.5, 4),     # direct, above
])
def test_reference_agrees_with_mpmath_to_30_digits(alpha1, alpha2, nmax):
    ours = correlations(alpha1, alpha2, nmax, dps=40)
    theirs = mp_minors(alpha1, alpha2, nmax)
    floats = correlations(alpha1, alpha2, nmax)
    for N, (x, y, f) in enumerate(zip(ours, theirs, floats), start=1):
        assert abs(x - y) <= mp.mpf("1e-30") * abs(y), (N, x, y)
        # the float64 form the benchmark checks with stays near rounding level
        assert abs(f - float(y)) < 1e-14, (N, f, y)


def test_reference_reproduces_the_quoted_above_regime_value():
    # 40-digit determinant quoted for --direct 0.2 3.0 --N 24
    assert correlations(0.2, 3.0, 24)[-1] == pytest.approx(6.64e-13, rel=2e-3)
    assert float(correlations(0.2, 3.0, 24, dps=40)[-1]) == pytest.approx(6.64e-13, rel=2e-3)


def program_det(params, N, M):
    return ic.correlation(params, N, "det", 3, ic.make_grid(params, M)).value


def test_value_check_flags_the_above_regime_det_fault():
    params = ic.direct(0.2, 3.0)
    ref = correlations(0.2, 3.0, 48)
    wrong_sign = program_det(params, 24, 256)
    garbage = program_det(params, 48, 64)
    assert value_problem(wrong_sign, ref[23], "above") is not None
    assert value_problem(garbage, ref[47], "above") is not None
    # the exp route at the same point passes the same check
    good = ic.correlation(params, 24, "exp", 3, ic.make_grid(params, 256)).value
    assert value_problem(good, ref[23], "above") is None


def test_value_check_flags_coefficient_aliasing_near_half_the_grid():
    diag = ic.diagonal_from_alpha2(0.5)
    assert value_problem(program_det(diag, 64, 64), correlations(0.0, 0.5, 64)[-1], "below") is not None
    row = ic.from_couplings(ic.Kind.ROW, 0.6, 0.5)
    ref = correlations(row.alpha1, row.alpha2, 25)[-1]
    assert value_problem(program_det(row, 25, 64), ref, "below") is not None
    # the same row point is fine on a grid four times finer
    assert value_problem(program_det(row, 25, 256), ref, "below") is None


def verify_report():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = isingcorr.cli.main(list(VERIFY_ARGV))
    return json.loads(buf.getvalue()), code


def test_verify_check_counts_the_cauchy_fault_and_nothing_else():
    report, code = verify_report()
    records, failed, problems = check_verify_report(report, code)
    assert problems == []
    assert records == 247
    assert [rec["name"] for rec in failed] == ["cauchy"]


def test_verify_check_flags_an_altered_tolerance():
    report, code = verify_report()
    loosened = copy.deepcopy(report)
    rec = next(r for r in loosened["records"] if r["name"] == "cauchy" and not r["pass"])
    rec["tolerance"] = 1e-11
    rec["pass"] = True
    loosened["all_pass"] = True
    _, failed, problems = check_verify_report(loosened, 0)
    assert failed == []
    assert any("tolerance" in p and "documented" in p for p in problems)

    truncated = copy.deepcopy(report)
    truncated["records"] = [r for r in truncated["records"] if r["name"] != "szego"]
    assert any("szego" in p for p in check_verify_report(truncated, code)[2])


def test_tracer_restores_every_binding():
    originals = (ic.correlation, ic.toeplitz.fourier_coeff, ic.verify.SUITES["cauchy"],
                 ic.kernels.KernelSet.phi)
    det = ic.toeplitz.det_DN
    tracer = Tracer()
    tracer.install()
    try:
        # every binding of a function gets the same wrapper
        assert ic.correlation is not originals[0]
        assert ic.expansions.det_DN is ic.toeplitz.det_DN is ic.verify.det_DN is not det
    finally:
        tracer.uninstall()
    assert (ic.correlation, ic.toeplitz.fourier_coeff, ic.verify.SUITES["cauchy"],
            ic.kernels.KernelSet.phi) == originals


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "corrbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_traced_run_emits_every_per_layer_metric():
    proc = run_bench("--workload", "verify-all", "--seed", "3", "--seconds", "0.5", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    names = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names) == sorted(PER_LAYER)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert result["metrics"]["verify.cauchy_ms"]["value"] > 0
    assert result["correct"] and result["failed"] * 247 == result["attempted"]


def test_untraced_run_emits_every_end_to_end_metric():
    proc = run_bench("--workload", "det-scan", "--seed", "3", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "corrbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "table-m64", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
