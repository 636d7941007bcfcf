"""Set-up probe: import the library, build one workload's inputs from a
seed, print ``ready`` and exit.  ``run.py`` times several of these from
process start to that line and reports the median as ``setup_s``.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
    print("ready", flush=True)
