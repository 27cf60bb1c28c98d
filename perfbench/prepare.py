"""Child process of the benchmark: write one workload's inputs and reference
outputs, then report the set-up facts as JSON on stdout.

    python3 perfbench/prepare.py --workload NAME --seed N --out DIR [--smoke]

Run it with ``src`` on PYTHONPATH; ``run.py`` does.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import workloads


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.FULL))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    table = workloads.SMOKE if args.smoke else workloads.FULL
    info = workloads.prepare(table[args.workload], args.seed, Path(args.out))
    print(json.dumps(info))
    return 0


if __name__ == "__main__":
    sys.exit(main())
