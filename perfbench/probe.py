"""Set-up probe: a fresh process that gets one workload ready to run.

Prints ``ready`` once arrayloc is imported, the first round's
inputs are generated and the caches are warm; the parent times process
start to that line.  With ``--det-out`` it then runs a small sweep and
prints ``digest <sha256>`` of its records.csv and convergence.csv.

    python3 perfbench/probe.py --workload ref6 --seed 1 [--det-out DIR]
"""

import argparse
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path[:0] = [
    str(Path(__file__).resolve().parent.parent / "src"),
    str(Path(__file__).resolve().parent),
]

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--det-out", type=Path)
    args = parser.parse_args()
    workloads.prepare(args.workload, args.seed)
    print("ready", flush=True)
    if args.det_out is not None:
        digest = workloads.determinism_digest(args.workload, args.seed, args.det_out)
        print(f"digest {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
