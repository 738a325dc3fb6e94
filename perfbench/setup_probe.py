"""One fresh-process set-up: import, compile, build, prologue and route
install for one workload, timed from inside the process.

Prints one JSON object: ``setup_s``, the host seconds from before the
first ``repro`` import to a scenario ready to run, and ``calib_s``, the
mean of a calibration (``calibrate.py``) run just before and just
after it in the same process::

    python3 perfbench/setup_probe.py dos-flood 1
"""

import json
import sys
import time
from pathlib import Path

from calibrate import calibration_s

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    before = calibration_s()
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    workload.build(workload.inputs(seed))
    setup_s = time.perf_counter() - start
    after = calibration_s()
    print(json.dumps({"setup_s": setup_s, "calib_s": (before + after) / 2}))
