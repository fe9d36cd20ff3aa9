"""Command-line entry of the benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload registry_suite.warm --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a human-readable
report goes to standard error.  The benchmark imports the program from the
checkout's ``src`` directory and exits with an error, printing no result,
when that is missing.  See :mod:`perfbench` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="only set the workload up (the set-up timing runs this in fresh processes)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    source = ROOT / "src" / "repro"
    if Path(repro.__file__).resolve().parent != source:
        print(f"repro was imported from {repro.__file__}, not from {source}", file=sys.stderr)
        return 2
    from perfbench import harness

    if args.setup_only:
        harness.setup_only(args.workload, args.seed)
        return 0
    result = harness.measure(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
