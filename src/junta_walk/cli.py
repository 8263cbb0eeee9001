"""Command-line front end.

Every subcommand emits strict JSON (CSV for ``wht``) so runs can be scripted and
diffed.  Instance files carry a full truth table plus the recipe that produced
it; they are the common currency between ``gen`` and the analysis commands.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import TextIO

from .fourier import Spectrum
from .harness import (
    ExperimentConfig,
    InstanceSpec,
    default_learn_params,
    json_field,
    make_instance,
    resolve_instance,
    run_suite,
    warn_practical,
)
from .hypercube import IndexSet, TruthTable, _check_integer, distance_exact
from .learner import LearnParams, learn_outcome
from .oracle_bruteforce import counterexample_fixtures, exact_opt, verify_spectrum_lemma
from .sieve import SieveError, SieveParams, bounded_sieve, practical_budgets
from .walk import RandomWalkOracle


def _load_instance(path: str) -> tuple[TruthTable, dict]:
    with open(path) as fh:
        obj = json.load(fh)
    what = f"instance file {path}"
    table = TruthTable(json_field(obj, "n", what, int), json_field(obj, "values", what, list))
    return table, obj


def _write_json(obj, out: str | None) -> None:
    text = json.dumps(obj, indent=2, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _write_spectrum_csv(spec: Spectrum, fh: TextIO) -> None:
    """Write ``mask,coords,coefficient`` rows, ordered by mask."""
    fh.write("mask,coords,coefficient\n")
    for mask in range(1 << spec.n):
        coords = "|".join(str(c) for c in IndexSet(spec.n, mask))
        fh.write(f"{mask},{coords},{float(spec.coeffs[mask])!r}\n")


def _cmd_gen(args: argparse.Namespace) -> int:
    _check_integer("seed", args.seed, 0)
    with open(args.spec) as fh:
        spec = InstanceSpec.from_dict(json.load(fh))
    resolved = resolve_instance(spec, args.seed)
    f, planted, opt_result = make_instance(resolved)
    payload = {
        "n": f.n,
        "values": [int(v) for v in f.values],
        "planted": planted.to_dict(),
        "opt": str(opt_result.opt),
        "spec": resolved.to_dict(),
    }
    _write_json(payload, args.out)
    return 0


def _cmd_learn(args: argparse.Namespace) -> int:
    _check_integer("seed", args.seed, 0)
    f, meta = _load_instance(args.instance)
    spec = InstanceSpec.from_dict(meta["spec"]).to_dict() if "spec" in meta else None
    # exact opt first, so a table past its cap is refused before any walk
    opt_result = exact_opt(f, args.k)
    if args.certified:
        params = LearnParams(args.k, args.eps, args.delta)
    else:
        params = default_learn_params(f.n, args.k, args.eps, args.delta)
        warn_practical(
            f"learn runs screen_pairs={params.screen_pairs} and erm_sample={params.erm_sample}"
        )
    oracle = RandomWalkOracle(f, f.n, seed=args.seed)
    outcome = learn_outcome(oracle, params)
    delta_hf = distance_exact(f, outcome.hypothesis)
    excess = delta_hf - opt_result.opt
    _write_json(
        {
            "n": f.n,
            "k": args.k,
            "eps": args.eps,
            "delta": args.delta,
            "seed": args.seed,
            "mode": params.mode,
            "hypothesis": outcome.hypothesis.to_dict(),
            "pool": sorted(outcome.pool.coords()),
            "opt": str(opt_result.opt),
            "delta_hf": str(delta_hf),
            "excess": str(excess),
            "passed": bool(excess <= Fraction(args.eps)),
            "erm_sample": outcome.sample_size,
            "walk_steps": outcome.walk_steps,
            "instance_spec": spec,
        },
        args.out,
    )
    return 0


def _cmd_sieve(args: argparse.Namespace) -> int:
    _check_integer("seed", args.seed, 0)
    f, _ = _load_instance(args.instance)
    params = SieveParams(level=args.level, theta=args.theta, delta=args.delta)
    budgets = None
    if args.screen_pairs is not None or args.estimate_blocks is not None:
        if args.screen_pairs is None or args.estimate_blocks is None:
            raise ValueError("--screen-pairs and --estimate-blocks go together")
        budgets = practical_budgets(params, f.n, args.screen_pairs, args.estimate_blocks)
        warn_practical(f"sieve runs {budgets}")
    oracle = RandomWalkOracle(f, f.n, seed=args.seed)
    record = bounded_sieve(oracle, params, budgets).to_dict()
    # the budgets were chosen here, so the mode is reported here
    record["mode"] = "certified" if budgets is None else "practical"
    _write_json(record, args.out)
    return 0


def _cmd_wht(args: argparse.Namespace) -> int:
    f, _ = _load_instance(args.instance)
    spec = Spectrum.from_table(f)
    if args.out:
        with open(args.out, "w") as fh:
            _write_spectrum_csv(spec, fh)
    else:
        _write_spectrum_csv(spec, sys.stdout)
    return 0


def _cmd_opt(args: argparse.Namespace) -> int:
    f, _ = _load_instance(args.instance)
    result = exact_opt(f, args.k, include_per_set=args.per_set)
    payload = {
        "n": f.n,
        "k": args.k,
        "opt": str(result.opt),
        "witness": result.witness.to_dict(),
    }
    if result.per_set is not None:
        payload["per_set"] = {str(m): str(d) for m, d in sorted(result.per_set.items())}
    _write_json(payload, args.out)
    return 0


def _cmd_verify_lemma(args: argparse.Namespace) -> int:
    f, _ = _load_instance(args.instance)
    if args.g:
        g, _ = _load_instance(args.g)
    else:
        g = exact_opt(f, args.k).witness.to_truth_table()
    witness = verify_spectrum_lemma(f, g, args.eps, k=args.k)
    if witness is None:
        _write_json({"found": False, "k": args.k, "eps": args.eps}, args.out)
        return 1
    payload = witness.to_dict()
    payload.update(found=True, k=args.k, eps=args.eps)
    _write_json(payload, args.out)
    return 0


def _cmd_fixtures(args: argparse.Namespace) -> int:
    report = counterexample_fixtures(args.k)
    _write_json(report.to_dict(), args.out)
    return 0 if report.all_pass else 1


def _cmd_suite(args: argparse.Namespace) -> int:
    with open(args.config) as fh:
        config = ExperimentConfig.from_json(fh.read())
    result = run_suite(config, args.out_dir)
    _write_json(
        {
            "trials": result.summary["trials"],
            "passes": result.summary["passes"],
            "csv": str(result.csv_path),
            "summary": str(result.summary_path),
        },
        None,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="junta-walk",
        description="Learn juntas from labeled random walks; exact oracles for auditing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="materialize a corrupted junta instance")
    p.add_argument("--spec", required=True, help="instance spec JSON file")
    p.add_argument("--out", help="output instance file (stdout if omitted)")
    p.add_argument("--seed", type=int, default=0, help="resolves any null seeds")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("learn", help="run the full learning pipeline on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--certified", action="store_true", help="certified sample sizes")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("sieve", help="find heavy Fourier sets from walk access")
    p.add_argument("--instance", required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--screen-pairs", type=int, dest="screen_pairs")
    p.add_argument("--estimate-blocks", type=int, dest="estimate_blocks")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("wht", help="exact spectrum of an instance as CSV")
    p.add_argument("--instance", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_wht)

    p = sub.add_parser("opt", help="exact best k-junta distance")
    p.add_argument("--instance", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--per-set", action="store_true", dest="per_set")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_opt)

    p = sub.add_parser(
        "verify-lemma", help="certify a near-optimal junta via heavy coefficients"
    )
    p.add_argument("--instance", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--g", help="junta instance file (default: exact-opt witness)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_lemma)

    p = sub.add_parser("fixtures", help="integer-exact AND-construction checks")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fixtures)

    p = sub.add_parser("suite", help="run an experiment suite from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(func=_cmd_suite)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, SieveError, OSError, json.JSONDecodeError) as exc:
        print(f"junta-walk: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
