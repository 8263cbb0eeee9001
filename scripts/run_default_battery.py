#!/usr/bin/env python3
"""Run the standing experiment battery and write its CSV/JSON artifacts.

The battery crosses n in {8, 12, 16} with k in {1, 2, 3} and eps in
{0.2, 0.3} under 10% iid label corruption, three repetitions per cell by
default.  Every trial is derived from the master seed, so re-running with the
same arguments reproduces the artifacts bit-for-bit.
"""

import argparse
import json
import logging
import sys

from junta_walk.harness import default_battery, run_suite


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="results/battery", help="artifact directory")
    parser.add_argument("--master-seed", type=int, default=20240817)
    parser.add_argument("--repetitions", type=int, default=3, help="trials per cell")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )

    config = default_battery(master_seed=args.master_seed, repetitions=args.repetitions)
    result = run_suite(config, args.out_dir)

    print(json.dumps(
        {
            "trials": result.summary["trials"],
            "passes": result.summary["passes"],
            "csv": str(result.csv_path),
            "json": str(result.json_path),
            "summary": str(result.summary_path),
        },
        indent=2,
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
