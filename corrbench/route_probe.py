"""Route latencies for a workload that skips a route, measured in a fresh process.

    python3 corrbench/route_probe.py SEED SECONDS

Runs table-m64-shaped rounds on the probe's own seeded points for SECONDS,
checks their values, and prints one JSON line with each route's median
call time, the round count and the check summary.  Running apart from the
workload keeps its cache and heap state out of the probe's timings.
"""

import json
import sys

from run import import_program, route_medians, run_pass
from workloads import PROBE, Workload, check_results


def main(argv) -> int:
    seed, seconds = int(argv[0]), float(argv[1])
    ic = import_program()
    out = run_pass(ic, Workload("probe", PROBE, (), trace_rounds=0), seed, seconds=seconds)
    print(json.dumps({"route_ms_p50": route_medians(out), "rounds": len(out.rounds),
                      "summary": check_results(out)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
