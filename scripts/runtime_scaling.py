#!/usr/bin/env python3
"""Measure how learner wall time and walk steps grow with n at fixed k and eps.

Runs seeded trials at each requested n, takes the median learner-only wall
time and the median walk steps (the paper's cost measure) per n, and fits a
log-log slope to the wall times.  At the stock budgets the dominant costs are
walk generation and screening, so the slope should land well under 3;
anything above that flags a vectorization regression.
"""

import argparse
import json
import logging
import statistics
import sys

import numpy as np

from junta_walk.harness import Corruption, InstanceSpec, default_learn_params, run_trial


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ns", type=int, nargs="+", default=[8, 12, 16])
    parser.add_argument("-k", type=int, default=2)
    parser.add_argument("--eps", type=float, default=0.25)
    parser.add_argument("--delta", type=float, default=0.2)
    parser.add_argument("--gamma", type=float, default=0.1, help="iid corruption rate")
    parser.add_argument("--trials", type=int, default=7, help="trials per n")
    parser.add_argument("--seed", type=int, default=7000)
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.WARNING)
    if len(args.ns) < 2:
        parser.error("need at least two values of n to fit a slope")

    corruption = (
        Corruption(kind="iid", rate=args.gamma) if args.gamma > 0 else Corruption()
    )
    rows = []
    for n in args.ns:
        spec = InstanceSpec(n=n, k=args.k, corruption=corruption)
        params = default_learn_params(n, args.k, args.eps, args.delta)
        reports = [
            run_trial(spec, params, trial_seed=args.seed + 31 * n + i)
            for i in range(args.trials)
        ]
        walls = [r.wall_ms for r in reports]
        rows.append(
            {
                "n": n,
                "trials": args.trials,
                "median_wall_ms": statistics.median(walls),
                "min_wall_ms": min(walls),
                "max_wall_ms": max(walls),
                "median_walk_steps": statistics.median(r.walk_steps for r in reports),
            }
        )

    slope = float(
        np.polyfit(
            np.log([r["n"] for r in rows]),
            np.log([r["median_wall_ms"] for r in rows]),
            1,
        )[0]
    )
    report = {
        "k": args.k,
        "eps": args.eps,
        "delta": args.delta,
        "gamma": args.gamma,
        "rows": rows,
        "loglog_slope": slope,
    }
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
