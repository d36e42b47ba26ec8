"""Time one benchmark set-up in a fresh interpreter.

Usage: python3 bench/setup_probe.py <workload> <seed> <out_dir>

Imports graded_darboux, prepares the workload and builds its first input,
then prints the seconds this took and the calibration kernel's time in this
process.  ``run.py`` starts it several times and reports the median, scaled
to the reference speed, as ``setup_s``.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import graded_darboux  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]), BENCH.parent, Path(sys.argv[3]))
workload.prepare()
workload.next_input()
setup_s = time.perf_counter() - t0

import calibrate  # noqa: E402

print(setup_s, calibrate.measure())
