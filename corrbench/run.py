"""Benchmark of isingcorr's three correlation routes and its identity suites.

    python3 corrbench/run.py --workload table-m64 --seed 1 --seconds 10 --trace 0
    python3 corrbench/run.py --workload det-scan --seed 1 --seconds 10 --trace 1
    python3 corrbench/run.py --workload det-scan --repeat 10 --seconds 10

A run repeats whole rounds of one workload for --seconds, checks every
value the program returned against reference.py, and prints as its last
line one JSON object: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced pass with --trace 1.  --repeat K instead runs K fresh
processes on seeds seed..seed+K-1 and prints each metric's median and
quartiles.  Workloads and metrics are described in corrbench/README.md.
"""

import os

# BLAS reads these when numpy loads; one thread keeps runs comparable on 2 cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import (PROBE_SHARE, ROUTES, WORKLOADS, Results, check_results,  # noqa: E402
                       clear_program_caches, run_table_round, run_verify_round, warm_up)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: fresh interpreters timed per run for setup_s
SETUP_PROBES = 5
#: seconds one child of --repeat may take before it is stopped
CHILD_TIMEOUT = 300


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run this many fresh processes and print median and quartiles")
    return ap.parse_args(argv)


def measure_setup() -> float:
    """Median set-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def import_program():
    sys.path.insert(0, str(SRC))
    import isingcorr
    import isingcorr.cli
    if not Path(isingcorr.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"isingcorr imported from {isingcorr.__file__}, not from {SRC}")
    warm_up(isingcorr)
    return isingcorr


def run_pass(ic, workload, seed, seconds=None, rounds=None, tracer=None):
    """Whole rounds until `seconds` of measured time or `rounds` rounds have run."""
    out = Results()
    while True:
        if rounds is not None and len(out.rounds) >= rounds:
            break
        if seconds is not None and out.rounds and out.seconds >= seconds:
            break
        clear_program_caches()
        if workload.table is not None:
            points = workload.table.round_points(seed, len(out.rounds))
            run_table_round(ic, workload.table, points, out, tracer)
        else:
            run_verify_round(ic.cli, out, tracer)
    return out


def route_medians(results) -> dict:
    return {route: statistics.median(t for r in results.rounds for t in r.route_ms[route])
            for route in ROUTES if any(len(r.route_ms[route]) for r in results.rounds)}


def measure_probe(seed: int, seconds: float) -> dict:
    """Route medians and check summary from route_probe.py in a fresh process."""
    proc = subprocess.run([sys.executable, str(HERE / "route_probe.py"), str(seed), f"{seconds!r}"],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"route probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report(summary: dict) -> None:
    worst = ", ".join(f"{k}={v:.2e}" for k, v in sorted(summary["worst"].items()))
    if worst:
        print(f"worst |value - reference|: {worst}")
    for name, count in Counter(summary["failed_records"]).most_common(5):
        print(f"failed record, {count}x: {name}")
    for problem in summary["problems"][:10]:
        print(f"CHECK FAILED: {problem}")
    if len(summary["problems"]) > 10:
        print(f"... {len(summary['problems']) - 10} more check failures")


def merge(a: dict, b: dict) -> dict:
    worst = dict(a["worst"])
    for k, v in b["worst"].items():
        worst[k] = max(worst.get(k, 0.0), v)
    return {"worst": worst, "problems": a["problems"] + b["problems"],
            "failed_records": a["failed_records"] + b["failed_records"]}


def end_to_end(args) -> dict:
    workload = WORKLOADS[args.workload]
    setup_s = measure_setup()
    ic = import_program()
    seconds = args.seconds * (1.0 - PROBE_SHARE) if workload.probed_routes else args.seconds
    out = run_pass(ic, workload, args.seed, seconds=seconds)
    rss = peak_rss_mb()
    probe = measure_probe(args.seed, args.seconds * PROBE_SHARE) if workload.probed_routes else None

    summary = check_results(out)
    medians = route_medians(out)
    if probe is not None:
        summary = merge(summary, probe["summary"])
        medians.update({route: probe["route_ms_p50"][route] for route in workload.probed_routes})
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (out.ops / out.seconds, "1/s"),
        "peak_rss_mb": (rss, "MB"),
        **{f"{route}_ms_p50": (medians[route], "ms") for route in ROUTES},
    }
    print(f"workload={workload.name} seed={args.seed} rounds={len(out.rounds)} "
          f"ops={out.ops} failed={out.failed} seconds={out.seconds:.3f}"
          + (f" probed_routes={','.join(workload.probed_routes)} probe_rounds={probe['rounds']}"
             if probe else ""))
    report(summary)
    for err in out.errors[:5]:
        print(f"failed op: {err}")
    return {
        "correct": not summary["problems"],
        "attempted": out.ops,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(args) -> dict:
    workload = WORKLOADS[args.workload]
    ic = import_program()
    plain = run_pass(ic, workload, args.seed, seconds=args.seconds / 2)
    rounds = min(len(plain.rounds), workload.trace_rounds)
    tracer = Tracer()
    tracer.install()
    try:
        traced_out = run_pass(ic, workload, args.seed, rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    overhead_pct = 100.0 * (traced_out.seconds / sum(r.seconds for r in plain.rounds[:rounds]) - 1.0)

    summary = merge(check_results(plain), check_results(traced_out))
    metrics = tracer.metrics(traced_out.ops, overhead_pct)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
    tracer.write(spans_path)
    shares = ", ".join(f"{mod}={pct:.1f}%" for mod, pct in tracer.module_shares().items())
    print(f"workload={workload.name} seed={args.seed} traced_rounds={rounds} "
          f"traced_ops={traced_out.ops} overhead={overhead_pct:.1f}% spans={len(tracer.span_start)}")
    inside = ", ".join(f"{mod}={pct:.1f}%"
                       for mod, pct in tracer.inclusive_shares(traced_out.seconds).items())
    print(f"self time by module: {shares}")
    print(f"traced pass inside each module's outermost spans: {inside}")
    print(f"spans written to {spans_path.relative_to(HERE.parent)}")
    report(summary)
    return {
        "correct": not summary["problems"],
        "attempted": plain.ops + traced_out.ops,
        "failed": plain.failed + traced_out.failed,
        "metrics": metrics,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def repeat(args) -> int:
    """Fresh processes on consecutive seeds; median, quartiles and spread per metric."""
    runs = []
    for i in range(args.repeat):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed + i), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        share = result["failed"] / result["attempted"]
        print(f"seed={args.seed + i} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} share={share:.6g}", flush=True)
    table = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        table[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / med if med else float("nan"), "values": values}
        print(f"{name:28s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"spread={table[name]['spread']:.4f} {table[name]['unit']}")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed shares: {shares}; all correct: {all(r['correct'] for r in runs)}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"repeat-{args.workload}-trace{args.trace}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                   "seeds": [args.seed, args.seed + args.repeat - 1], "metrics": table,
                   "failed_shares": shares}, fh, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "isingcorr" / "__init__.py").is_file():
        print(f"run.py: the program's sources are missing: no {SRC / 'isingcorr'}", file=sys.stderr)
        return 2
    if args.repeat:
        return repeat(args)
    result = traced(args) if args.trace else end_to_end(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
