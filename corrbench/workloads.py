"""Seeded inputs and the calls each workload makes on them.

A run repeats whole rounds of one workload.  The points of each regime
follow a Weyl sequence, u_j = frac(u_0 + j g), whose start u_0 is drawn
from random.Random(f"{workload}/{seed}"): the same seed gives the same
inputs, every point is new to the program's caches, and any number of
whole rounds covers the parameter box evenly, which keeps the per-route
medians steady from seed to seed.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
from array import array
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

from checks import check_verify_report, value_problem
from reference import correlations

KINDS = ("diagonal", "row", "direct")
ROUTES = ("det", "exp", "ff")
N_MAX_ORDER = 3

#: the box the tests cover; the lower alpha2 edge and the alpha1 gap keep
#: every correlation clearly below 1
BELOW_ALPHA2 = (0.2, 0.6)
ABOVE_ALPHA2 = (2.5, 4.0)
ALPHA1_MAX = 0.3

#: verify-all reruns one fixed seed: cauchy and perm fail on some seeds
#: (48 and 1 of seeds 0..999), and seed 10 holds exactly one such record
VERIFY_ARGV = ["verify", "--suite", "all", "--M", "128", "--seed", "10", "--out", "-"]


@dataclass(frozen=True)
class Point:
    """One parameter point: the program's input and the benchmark's own alphas."""

    kind: str
    regime: str
    alpha1: float
    alpha2: float
    inputs: tuple

    def params(self, ic):
        if self.kind == "diagonal":
            return ic.diagonal_from_alpha2(*self.inputs)
        if self.kind == "row":
            return ic.from_couplings(ic.Kind.ROW, *self.inputs)
        return ic.direct(*self.inputs)


#: Weyl increments for alpha2 and alpha1 (golden ratio and silver ratio parts)
WEYL = ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0)


def sample_point(u2: float, u1: float, kind: str, regime: str) -> Point:
    """The point at fractions (u2, u1) of the alpha2 and alpha1 ranges."""
    lo, hi = BELOW_ALPHA2 if regime == "below" else ABOVE_ALPHA2
    a2 = lo + u2 * (hi - lo)
    if regime == "below":
        a1_max = min(ALPHA1_MAX, a2 - 0.1)
    else:
        # the row map needs alpha1 * alpha2 = exp(-4 K2) < 1
        a1_max = min(ALPHA1_MAX, 0.9 / a2)
    if kind == "diagonal":
        return Point(kind, regime, 0.0, a2, (a2,))
    a1 = 0.01 + u1 * (a1_max - 0.01)
    if kind == "direct":
        return Point(kind, regime, a1, a2, (a1, a2))
    K1 = math.atanh(math.sqrt(a1 / a2))
    K2 = -math.log(a1 * a2) / 4.0
    damp = math.exp(-2.0 * K2)
    return Point(kind, regime, damp * math.tanh(K1), damp / math.tanh(K1), (K1, K2))


@dataclass(frozen=True)
class TableSpec:
    """Calls `corr table` makes: one grid per point, every route at every N."""

    name: str
    M: int
    below_points: int
    above_points: int
    below_N: int
    above_N: int
    routes: tuple = ROUTES
    kinds: tuple = KINDS

    def round_points(self, seed: int, rnd: int) -> list[Point]:
        rng = random.Random(f"{self.name}/{seed}")
        points = []
        for regime, count in (("below", self.below_points), ("above", self.above_points)):
            start2, start1 = rng.random(), rng.random()
            for j in range(rnd * count, (rnd + 1) * count):
                points.append(sample_point((start2 + j * WEYL[0]) % 1.0, (start1 + j * WEYL[1]) % 1.0,
                                           self.kinds[j % len(self.kinds)], regime))
        return points

    def n_range(self, regime: str) -> int:
        return self.below_N if regime == "below" else self.above_N

    def calls(self, regime: str) -> list[tuple[str, int]]:
        """(route, N) in call order: each route runs over all N in turn.

        Calling det right after ff at every N, as `corr table` does, makes
        det's time depend on how much of the cache ff left it, which varies
        from process to process by up to 3x; route by route, each route's
        median is its own cost.
        """
        return [(route, N) for route in self.routes for N in range(1, self.n_range(regime) + 1)]


@dataclass
class Round:
    """Wall time, op count and per-route call times of one round."""

    seconds: float = 0.0
    ops: int = 0
    route_ms: dict = field(default_factory=lambda: {r: array("d") for r in ROUTES})


@dataclass
class Results:
    """Rounds and values of one pass, kept compact so they barely touch RSS."""

    rounds: list = field(default_factory=list)
    points: list = field(default_factory=list)   # (Point, spec, values in spec.calls order)
    verify: list = field(default_factory=list)   # (report text, exit code, Round)
    failed: int = 0
    errors: list = field(default_factory=list)

    @property
    def ops(self) -> int:
        return sum(r.ops for r in self.rounds)

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.rounds)


def run_table_round(ic, spec: TableSpec, points: list[Point], out: Results, tracer=None) -> None:
    rnd = Round()
    start = perf_counter()
    for pt in points:
        params = pt.params(ic)
        grid = ic.make_grid(params, spec.M)
        values = array("d")
        for route, N in spec.calls(pt.regime):
            if tracer is not None:
                tracer.begin_op(route)
            t0 = perf_counter()
            try:
                value = ic.correlation(params, N, route, N_MAX_ORDER, grid).value
            except ic.IsingCorrError as exc:
                out.failed += 1
                out.errors.append(f"{pt} N={N} {route}: {type(exc).__name__}: {exc}")
                value = math.nan
            rnd.route_ms[route].append((perf_counter() - t0) * 1e3)
            rnd.ops += 1
            values.append(value)
        out.points.append((pt, spec, values))
    rnd.seconds = perf_counter() - start
    out.rounds.append(rnd)


def run_verify_round(cli, out: Results, tracer=None) -> None:
    """One in-process `corr verify --suite all` run, its report kept in memory.

    The round's ops, one per record, are counted when the report is checked.
    """
    if tracer is not None:
        tracer.begin_op("verify")
    rnd = Round()
    buf = io.StringIO()
    start = perf_counter()
    with redirect_stdout(buf):
        code = cli.main(list(VERIFY_ARGV))
    rnd.seconds = perf_counter() - start
    out.rounds.append(rnd)
    out.verify.append((buf.getvalue(), code, rnd))


def check_results(out: Results) -> dict:
    """Check every value and report; returns a summary for printing."""
    worst = {}
    problems = []
    for pt, spec, values in out.points:
        nmax = spec.n_range(pt.regime)
        ref = correlations(pt.alpha1, pt.alpha2, nmax)
        for (route, N), value in zip(spec.calls(pt.regime), values):
            if math.isnan(value):
                continue  # a failed operation, already counted
            err = abs(value - ref[N - 1])
            key = f"{route}/{pt.regime}"
            worst[key] = max(worst.get(key, 0.0), err)
            why = value_problem(value, ref[N - 1], pt.regime)
            if why is not None:
                problems.append(f"{pt} N={N} {route}: {why}")
    failed_names = []
    for text, code, rnd in out.verify:
        records, failed, issues = check_verify_report(json.loads(text), code)
        rnd.ops = records
        out.failed += len(failed)
        failed_names.extend(f"{rec['name']} {rec['params']} residual={rec['residual']:.3g}"
                            for rec in failed)
        problems.extend(issues)
    return {"worst": worst, "problems": problems, "failed_records": failed_names}


def clear_program_caches() -> None:
    """Empty the program's coefficient caches, if it has any, so a round starts cold."""
    toeplitz = sys.modules.get("isingcorr.toeplitz")
    clear = getattr(toeplitz, "clear_cache", None)
    if clear is not None:
        clear()


def warm_up(ic) -> None:
    """One call of each route in each regime on points outside every workload."""
    for params in (ic.direct(0.05, 0.15), ic.direct(0.05, 5.0)):
        grid = ic.make_grid(params, 64)
        for route in ROUTES:
            ic.correlation(params, 2, route, N_MAX_ORDER, grid)


@dataclass(frozen=True)
class Workload:
    name: str
    table: TableSpec | None
    #: routes whose latency comes from the route probe instead of the pass
    probed_routes: tuple
    #: upper limit on traced rounds, which keeps the span buffer small
    trace_rounds: int


TABLE_M64 = TableSpec("table-m64", M=64, below_points=1, above_points=1, below_N=32, above_N=16)
TABLE_M256 = TableSpec("table-m256", M=256, below_points=2, above_points=1, below_N=8, above_N=8)
DET_SCAN = TableSpec("det-scan", M=1024, below_points=100, above_points=0, below_N=64, above_N=0,
                     routes=("det",), kinds=("diagonal", "row"))
#: the route probe: table-m64 rounds on their own points, run by route_probe.py
#: in a fresh process for workloads that skip a route
PROBE = TableSpec("probe", M=64, below_points=1, above_points=1, below_N=32, above_N=16)
#: share of a run's measured time the probe takes
PROBE_SHARE = 0.15

WORKLOADS = {
    "table-m64": Workload("table-m64", TABLE_M64, (), trace_rounds=8),
    "table-m256": Workload("table-m256", TABLE_M256, (), trace_rounds=2),
    "det-scan": Workload("det-scan", DET_SCAN, ("exp", "ff"), trace_rounds=1),
    "verify-all": Workload("verify-all", None, ROUTES, trace_rounds=4),
}
