"""Set-up as a user pays it: a fresh interpreter imports torsionlab, then
the workload's fixtures are generated from the seed and written.

    python3 benchmark/setup_probe.py WORKLOAD SEED SIZE OUT_DIR

run.py times this script several times and reports the median.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import torsionlab  # noqa: E402  (the import is part of what is timed)

import gen  # noqa: E402

if __name__ == "__main__":
    workload, seed, size, out_dir = sys.argv[1:5]
    gen.build(workload, int(seed), out_dir, size)
