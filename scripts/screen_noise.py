#!/usr/bin/env python3
"""Measure the screen's noise over a range of oracle seeds and print JSON.

Two measurements, each over oracle seeds FIRST..STOP-1:

* ``pool_test``: the body of
  ``tests/test_sieve.py::test_pool_stays_inside_relevant_coordinates_across_seeds``
  (a 10-variable 3-junta, level 3, theta 1/16, delta 0.1, 60 000 screen
  pairs and 5 000 lag samples), run once per seed; a seed is a stray when
  the screened pool holds a coordinate outside the junta.
* ``cells``: per (n, k) cell, one instance (a random k-junta under 10% iid
  label noise, junta and instance seed ``--instance-seed``) screened at the
  gap a level-k sieve uses, ``--pairs`` refresh pairs per seed.  Over the
  seeds, each irrelevant coordinate's contrast has a sample sd, which is
  divided by its mean sigma-hat (the iid standard error
  ``estimate_bounded_influence`` reports).  ``pooled`` is the root mean
  variance over the root mean sigma-hat^2, over the irrelevant coordinates;
  ``max_abs_z`` is the largest distance of a mean contrast from its exact
  value (``expected_bounded_influence``; the label noise gives the
  irrelevant coordinates a small one) in standard errors of the mean.

Usage, from the repository root:

    PYTHONPATH=src python3 scripts/screen_noise.py --seeds 0 200 \\
        --cells 8:1 12:2 16:2 16:3
"""

import argparse
import json
import math
import sys

import numpy as np

from junta_walk.fourier import Spectrum, estimate_bounded_influence, expected_bounded_influence
from junta_walk.functions import random_junta
from junta_walk.harness import Corruption, InstanceSpec, make_instance
from junta_walk.sieve import SieveParams, bounded_sieve, practical_budgets
from junta_walk.walk import RandomWalkOracle, effective_refresh_density, gap_for_density


def pool_strays(seeds: range) -> list[int]:
    """The seeds at which the pool test's sieve pools an irrelevant coordinate."""
    n = 10
    h = random_junta(n, 3, np.random.default_rng(16))
    f = h.to_truth_table()
    params = SieveParams(level=3, theta=1 / 16, delta=0.1)
    budgets = practical_budgets(params, n, screen_pairs=60_000, estimate_blocks=5_000)
    relevant = set(h.J.coords())
    return [
        seed
        for seed in seeds
        if not set(bounded_sieve(RandomWalkOracle(f, n, seed), params, budgets).pool.coords())
        <= relevant
    ]


def cell_noise(n: int, k: int, seeds: range, pairs: int, instance_seed: int) -> dict:
    """sd / sigma-hat of the irrelevant coordinates' contrasts at one cell."""
    spec = InstanceSpec(n, k, Corruption(kind="iid", rate=0.1), instance_seed, instance_seed)
    f, planted, _ = make_instance(spec)
    irrelevant = [i - 1 for i in range(1, n + 1) if i not in set(planted.J.coords())]
    gap = gap_for_density(n, SieveParams(level=k, theta=0.1, delta=0.1).density)
    contrasts, sigmas = [], []
    for seed in seeds:
        harvest = RandomWalkOracle(f, n, seed).refresh_pairs(pairs, gap)
        c, s = estimate_bounded_influence(harvest.screen)
        contrasts.append(c[irrelevant])
        sigmas.append(s[irrelevant])
    contrasts, sigmas = np.array(contrasts), np.array(sigmas)
    sd = contrasts.std(axis=0, ddof=1)
    ratios = sd / sigmas.mean(axis=0)
    pooled = math.sqrt(float(np.mean(sd**2)) / float(np.mean(sigmas**2)))
    spectrum, p = Spectrum.from_table(f), effective_refresh_density(n, gap)
    exact = np.array([expected_bounded_influence(spectrum, i + 1, p) for i in irrelevant])
    z = np.abs(contrasts.mean(axis=0) - exact) / (sd / math.sqrt(len(seeds)))
    return {
        "n": n,
        "k": k,
        "gap": gap,
        "pairs": pairs,
        "irrelevant": len(irrelevant),
        "sd_median": float(np.median(sd)),
        "sigma_median": float(np.median(sigmas)),
        "sd_over_sigma_median": float(np.median(ratios)),
        "sd_over_sigma_min": float(ratios.min()),
        "sd_over_sigma_max": float(ratios.max()),
        "pooled": pooled,
        "max_abs_z": float(z.max()),
    }


def _cell(text: str) -> tuple[int, int]:
    try:
        n, k = (int(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cell {text!r} is not N:K") from None
    if not 1 <= k < n:
        raise argparse.ArgumentTypeError(f"cell {text!r} needs 1 <= K < N")
    return n, k


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seeds", nargs=2, type=int, default=[0, 200], metavar=("FIRST", "STOP"),
        help="oracle seeds FIRST..STOP-1",
    )
    parser.add_argument(
        "--cells", nargs="*", type=_cell, default=[(8, 1), (12, 2), (16, 2), (16, 3)],
        metavar="N:K", help="(n, k) cells whose irrelevant contrasts are measured",
    )
    parser.add_argument(
        "--pairs", type=int, default=300_000, help="screen pairs per cell and seed"
    )
    parser.add_argument("--instance-seed", type=int, default=4000)
    args = parser.parse_args(argv)
    first, stop = args.seeds
    if not 0 <= first < stop - 1:
        parser.error(f"--seeds {first} {stop} must name at least two seeds >= 0")
    if args.pairs < 1:
        parser.error(f"--pairs {args.pairs} must be >= 1")
    seeds = range(first, stop)
    strays = pool_strays(seeds)
    out = {
        "seeds": [first, stop],
        "pool_test": {"strays": len(strays), "stray_seeds": strays, "runs": len(seeds)},
        "cells": [cell_noise(n, k, seeds, args.pairs, args.instance_seed) for n, k in args.cells],
    }
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
