"""Time one set-up in a fresh interpreter: import isingcorr and warm every route.

Prints the seconds from the first statement to ready.  run.py starts it
several times per run and reports the median as setup_s.
"""

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import isingcorr  # noqa: E402
import isingcorr.cli  # noqa: E402,F401
from workloads import warm_up  # noqa: E402

warm_up(isingcorr)
print(repr(perf_counter() - START))
