"""Set-up of one workload in a fresh interpreter: import semcal, build the inputs.

Usage: python3 setup_probe.py <workload> <seed> <workdir>

Prints ``ready`` once the inputs exist; the parent times launch to that line
as one sample of ``setup_s``.  PYTHONPATH must name the checkout's ``src``.
"""

import sys
from pathlib import Path

import semcal  # noqa: F401  (timed: the first thing a user of the program pays)

import inputs

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    inputs.build(workload, seed, workdir)
    print("ready", flush=True)
