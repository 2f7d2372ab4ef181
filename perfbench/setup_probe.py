"""Set-up probe: a fresh interpreter up to its first simulation call.

Usage (from the repository root): ``python3 perfbench/setup_probe.py
WORKLOAD SEED``.  The probe imports what the workload needs, builds its
parameters, controllers and system through the workload's own run
function, and at the first ``Simulator.run`` call prints one JSON line
(``import_s``, ``fingerprint_s``) and exits at once.  The parent times
the whole probe from process spawn to that line.
"""

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS  # noqa: E402


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    seed = int(sys.argv[2])
    start = time.perf_counter()
    run = workload.load()
    import_s = time.perf_counter() - start

    import repro.experiments.parallel as parallel
    from repro.sim.engine import Simulator

    fingerprint_s = 0.0
    code_fingerprint = parallel.code_fingerprint

    def timed_fingerprint():
        nonlocal fingerprint_s
        began = time.perf_counter()
        try:
            return code_fingerprint()
        finally:
            fingerprint_s += time.perf_counter() - began

    def first_run(self, *args, **kwargs):
        sys.stdout.write(json.dumps({"import_s": import_s,
                                     "fingerprint_s": fingerprint_s}) + "\n")
        sys.stdout.flush()
        os._exit(0)

    parallel.code_fingerprint = timed_fingerprint
    Simulator.run = first_run
    run(seed, workload.window)
    sys.exit(f"{workload.name} never called Simulator.run")


if __name__ == "__main__":
    main()
