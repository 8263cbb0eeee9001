"""Seeded experiment engine: corrupted junta instances, single trials, suites.

An instance starts from a uniformly random k-junta and corrupts its truth
table globally (iid label flips, or flips planted on the -1 region of a second
adversarial junta); every subsequent walk is labeled by the corrupted table,
and the optimum junta distance is always recomputed exactly rather than
assumed equal to the corruption rate.

Seeds derive from (master_seed, cell index, repetition index) only, so any
subset of trials can be replayed bit-for-bit.
"""

from __future__ import annotations

import csv
import json
import logging
import statistics
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .functions import flip_labels_iid, flip_labels_region, random_junta
from .hypercube import JuntaHypothesis, TruthTable, _check_integer, _check_real, distance_exact
from .learner import LearnOutcome, LearnParams, learn_outcome
from .oracle_bruteforce import MAX_OPT_N, OptResult, exact_opt
from .walk import RandomWalkOracle

logger = logging.getLogger(__name__)

CSV_COLUMNS = [
    "trial_id",
    "n",
    "k",
    "eps",
    "delta",
    "gamma",
    "opt",
    "delta_hf",
    "excess",
    "passed",
    "seed",
    "wall_ms",
    "walk_steps",
]


_REQUIRED = object()
_JSON_KINDS = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    dict: (dict, "an object"),
    list: (list, "an array"),
}


def json_field(obj, key: str, what: str, kind: type | None = None, default=_REQUIRED):
    """``obj[key]`` from parsed JSON, or ``default`` when the key is absent.

    ``kind`` (int, float, dict or list) is the JSON type the value must have;
    a float field also takes an integer and returns it as a float, and a null
    passes as None only where the default is None.  Raises ValueError naming
    the key when ``obj`` is not an object, lacks a required key, or holds a
    value of another type.
    """
    if not isinstance(obj, dict) or (default is _REQUIRED and key not in obj):
        raise ValueError(f"{what} must be a JSON object with key {key!r}")
    if key not in obj:
        return default
    value = obj[key]
    if kind is None or (value is None and default is None):
        return value
    types, name = _JSON_KINDS[kind]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ValueError(f"{what} key {key!r} must be {name}, got {value!r}")
    return float(value) if kind is float else value


def _check_keys(obj: dict, what: str, keys) -> None:
    """Refuse a key of the JSON object ``obj`` outside ``keys``, naming it."""
    for key in obj:
        if key not in keys:
            raise ValueError(f"{what} has unknown key {key!r}")


def _check_seeds(**seeds: int | None) -> None:
    """Refuse a seed that is not an integer or is negative, naming its field
    (None means derived later)."""
    for name, seed in seeds.items():
        if seed is not None:
            _check_integer(name, seed, 0)


def warn_practical(what: str) -> None:
    """Log, for an entry point, that ``what`` uses practical sample sizes."""
    logger.warning("%s at practical sizes; the guarantee is not certified there", what)


@dataclass(frozen=True)
class Corruption:
    """Label corruption model: none, iid(rate), or planted(fraction, seed).

    Planted corruption flips exactly round(fraction * |region|) labels chosen
    uniformly inside the region where an adversarial junta outputs -1.
    """

    kind: str = "none"
    rate: float = 0.0
    fraction: float = 0.0
    adversary_seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "iid", "planted"):
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        # both are type-checked whatever the kind, so a bool cannot pass as the unset 0.0
        read, unread = "[0, 0.5]", "(-inf, inf)"
        _check_real("iid rate", self.rate, read if self.kind == "iid" else unread)
        _check_real("planted fraction", self.fraction, read if self.kind == "planted" else unread)
        # read as given, another model's field would be ignored: a rate or a
        # fraction would build an uncorrupted instance
        for key, kind, unset in (
            ("rate", "iid", 0.0),
            ("fraction", "planted", 0.0),
            ("adversary_seed", "planted", None),
        ):
            if getattr(self, key) != unset and self.kind != kind:
                raise ValueError(f"corruption {key!r} applies to kind {kind!r}, not {self.kind!r}")
        _check_seeds(adversary_seed=self.adversary_seed)

    @property
    def gamma(self) -> float:
        """Nominal corruption intensity, whatever the model."""
        if self.kind == "iid":
            return self.rate
        if self.kind == "planted":
            return self.fraction
        return 0.0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "rate": self.rate,
            "fraction": self.fraction,
            "adversary_seed": self.adversary_seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Corruption":
        fields = dict(
            kind=json_field(d, "kind", "corruption", default="none"),
            rate=json_field(d, "rate", "corruption", float, 0.0),
            fraction=json_field(d, "fraction", "corruption", float, 0.0),
            adversary_seed=json_field(d, "adversary_seed", "corruption", int, None),
        )
        _check_keys(d, "corruption", fields)
        return cls(**fields)


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for one target function; None seeds are derived per trial."""

    n: int
    k: int
    corruption: Corruption = Corruption()
    junta_seed: int | None = None
    instance_seed: int | None = None

    def __post_init__(self) -> None:
        # type-checked before they are compared, which a None or str would break
        _check_integer("n", self.n, 0)
        _check_integer("k", self.k, 0)
        if self.n < self.k or self.k < 1:
            raise ValueError(f"need n >= k >= 1, got n={self.n}, k={self.k}")
        # exact opt is part of every trial
        if self.n > MAX_OPT_N:
            raise ValueError(f"n={self.n} exceeds the instance cap {MAX_OPT_N}")
        _check_seeds(junta_seed=self.junta_seed, instance_seed=self.instance_seed)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "corruption": self.corruption.to_dict(),
            "junta_seed": self.junta_seed,
            "instance_seed": self.instance_seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "InstanceSpec":
        what = "instance spec"
        fields = dict(
            n=json_field(d, "n", what, int),
            k=json_field(d, "k", what, int),
            corruption=Corruption.from_dict(json_field(d, "corruption", what, dict, {})),
            junta_seed=json_field(d, "junta_seed", what, int, None),
            instance_seed=json_field(d, "instance_seed", what, int, None),
        )
        _check_keys(d, what, fields)
        return cls(**fields)


def _derived_seed(entropy: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


def resolve_instance(spec: InstanceSpec, trial_seed: int) -> InstanceSpec:
    """Fill in any None seeds deterministically from the trial seed."""
    _check_integer("trial_seed", trial_seed, 0)
    junta = spec.junta_seed
    instance = spec.instance_seed
    corruption = spec.corruption
    if junta is None:
        junta = _derived_seed(trial_seed, 1)
    if instance is None:
        instance = _derived_seed(trial_seed, 2)
    if corruption.kind == "planted" and corruption.adversary_seed is None:
        corruption = replace(corruption, adversary_seed=_derived_seed(trial_seed, 3))
    return replace(spec, junta_seed=junta, instance_seed=instance, corruption=corruption)


def make_instance(
    spec: InstanceSpec,
) -> tuple[TruthTable, JuntaHypothesis, OptResult]:
    """Materialize the corrupted target with its planted junta and exact optimum."""
    if spec.junta_seed is None or spec.instance_seed is None:
        raise ValueError("instance seeds not resolved; call resolve_instance first")
    planted = random_junta(spec.n, spec.k, np.random.default_rng(spec.junta_seed))
    f = planted.to_truth_table()
    c = spec.corruption
    if c.kind == "iid" and c.rate > 0.0:
        f = flip_labels_iid(f, c.rate, np.random.default_rng(spec.instance_seed))
    elif c.kind == "planted":
        if c.adversary_seed is None:
            raise ValueError("planted corruption needs an adversary seed")
        adversary = random_junta(spec.n, spec.k, np.random.default_rng(c.adversary_seed))
        region = adversary.to_truth_table().values == -1
        f = flip_labels_region(f, region, c.fraction, np.random.default_rng(spec.instance_seed))
    return f, planted, exact_opt(f, spec.k)


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialReport:
    """Everything a single learning trial produced, exact quantities included."""

    trial_id: int
    spec: InstanceSpec
    k: int
    eps: float
    delta: float
    seed: int
    opt: Fraction | None
    delta_hf: Fraction | None
    excess: Fraction | None
    passed: bool
    wall_ms: float
    walk_steps: int
    hypothesis: JuntaHypothesis | None = None
    pool: tuple[int, ...] = ()
    erm_sample: int = 0
    disagreements: int = 0
    error: str | None = None

    def to_csv(self) -> list[str]:
        """The CSV_COLUMNS fields of :meth:`to_dict` (``n`` from the spec) as
        text: None as "nan", a bool as 1 or 0, a float by repr, anything else
        (integers and the exact fractions' strings) by str."""

        def cell(value) -> str:
            if value is None:
                return "nan"
            if isinstance(value, bool):
                return "1" if value else "0"
            return repr(value) if isinstance(value, float) else str(value)

        row = {**self.to_dict(), "n": self.spec.n}
        return [cell(row[name]) for name in CSV_COLUMNS]

    def to_dict(self) -> dict:
        return {
            "trial_id": self.trial_id,
            "spec": self.spec.to_dict(),
            "k": self.k,
            "eps": self.eps,
            "delta": self.delta,
            "gamma": self.spec.corruption.gamma,
            "seed": self.seed,
            "opt": None if self.opt is None else str(self.opt),
            "delta_hf": None if self.delta_hf is None else str(self.delta_hf),
            "excess": None if self.excess is None else str(self.excess),
            "passed": self.passed,
            "wall_ms": self.wall_ms,
            "walk_steps": self.walk_steps,
            "hypothesis": None if self.hypothesis is None else self.hypothesis.to_dict(),
            "pool": list(self.pool),
            "erm_sample": self.erm_sample,
            "disagreements": self.disagreements,
            "error": self.error,
        }


def run_trial(
    spec: InstanceSpec, params: LearnParams, trial_seed: int, trial_id: int = 0
) -> TrialReport:
    """One fully seeded trial: build instance, learn, score exactly.

    ``passed`` compares the exact excess against the exact binary value of the
    float epsilon, so the verdict is reproducible arithmetic, not a tolerance.
    Wall time covers the learner only (instance construction and the exact
    optimum are oracle overhead, not part of the algorithm under test).
    """
    resolved = resolve_instance(spec, trial_seed)
    f, _, opt_result = make_instance(resolved)
    oracle = RandomWalkOracle(f, resolved.n, seed=_derived_seed(trial_seed, 0))
    start = time.perf_counter()
    outcome: LearnOutcome = learn_outcome(oracle, params)
    wall_ms = (time.perf_counter() - start) * 1e3
    delta_hf = distance_exact(f, outcome.hypothesis)
    excess = delta_hf - opt_result.opt
    return TrialReport(
        trial_id=trial_id,
        spec=resolved,
        k=params.k,
        eps=params.epsilon,
        delta=params.delta,
        seed=trial_seed,
        opt=opt_result.opt,
        delta_hf=delta_hf,
        excess=excess,
        passed=excess <= Fraction(params.epsilon),
        wall_ms=wall_ms,
        walk_steps=outcome.walk_steps,
        hypothesis=outcome.hypothesis,
        pool=tuple(sorted(outcome.pool.coords())),
        erm_sample=outcome.sample_size,
        disagreements=outcome.disagreements,
    )


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One experiment configuration: an instance recipe plus learner settings."""

    instance: InstanceSpec
    learn: LearnParams


@dataclass(frozen=True)
class ExperimentConfig:
    cells: tuple[Cell, ...]
    repetitions: int = 1
    master_seed: int = 0

    def __post_init__(self) -> None:
        _check_integer("repetitions", self.repetitions, 1)
        _check_integer("master_seed", self.master_seed, 0)

    def trial_seed(self, cell_index: int, rep: int) -> int:
        return _derived_seed(self.master_seed, cell_index, rep)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """Parse a suite config: ``master_seed``, ``repetitions`` and
        ``cells``, each an ``instance`` spec and a ``learn`` object.  A
        ``"certified"`` cell takes no budget key; any other cell is practical,
        at the default budgets with ``screen_pairs`` and ``erm_sample``
        overriding them.  Unknown keys, budget keys in a certified cell, and a
        learn ``k`` above the instance's ``n`` raise ValueError naming the key."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"config must be a JSON object, got {type(obj).__name__}")
        _check_keys(obj, "config", ("cells", "repetitions", "master_seed"))
        cells = []
        for cd in json_field(obj, "cells", "config", list, []):
            instance = InstanceSpec.from_dict(json_field(cd, "instance", "config cell"))
            ld = json_field(cd, "learn", "config cell", dict, {})
            _check_keys(cd, "config cell", ("instance", "learn"))
            _check_keys(ld, "learn", ("k", "epsilon", "delta", "mode", *_BUDGET_KEYS))
            k = json_field(ld, "k", "learn", int, instance.k)
            if k > instance.n:
                raise ValueError(f"learn key 'k' is {k}, above the instance's n={instance.n}")
            eps = json_field(ld, "epsilon", "learn", float, 0.25)
            delta = json_field(ld, "delta", "learn", float, 0.2)
            mode = ld.get("mode")
            if mode not in (None, "certified", "practical"):
                raise ValueError(f"learn mode {mode!r} not certified/practical")
            if mode == "certified":
                for key in _BUDGET_KEYS:
                    if key in ld:
                        raise ValueError(f"learn key {key!r} sets a budget in certified mode")
                params = LearnParams(k, eps, delta)
            else:
                screen_pairs = json_field(ld, "screen_pairs", "learn", int, DEFAULT_SCREEN_PAIRS)
                erm_sample = json_field(ld, "erm_sample", "learn", int, DEFAULT_ERM_SAMPLE)
                params = LearnParams(k, eps, delta, screen_pairs, erm_sample)
            cells.append(Cell(instance=instance, learn=params))
        return cls(
            cells=tuple(cells),
            repetitions=json_field(obj, "repetitions", "config", int, 1),
            master_seed=json_field(obj, "master_seed", "config", int, 0),
        )


# Budget keys of a config cell's "learn" object: the LearnParams fields a
# practical cell sets.
_BUDGET_KEYS = ("screen_pairs", "erm_sample")

# Practical budgets of default_learn_params, sized by pilot variance runs at
# n <= 16, k <= 3.
DEFAULT_SCREEN_PAIRS = 300_000
DEFAULT_ERM_SAMPLE = 40_000


def default_learn_params(n: int, k: int, epsilon: float, delta: float) -> LearnParams:
    """The practical preset at the default budgets, for a k-junta over n
    coordinates; raises ValueError when k exceeds n."""
    _check_integer("n", n, 1)
    if k > n:
        raise ValueError(f"k={k} exceeds dimension n={n}")
    return LearnParams(
        k, epsilon, delta, screen_pairs=DEFAULT_SCREEN_PAIRS, erm_sample=DEFAULT_ERM_SAMPLE
    )


def default_battery(master_seed: int = 20240817, repetitions: int = 3) -> ExperimentConfig:
    """The standing battery: k in {1,2,3} x n in {8,12,16} x eps in {0.2, 0.3}."""
    cells = []
    for n in (8, 12, 16):
        for k in (1, 2, 3):
            for eps in (0.2, 0.3):
                spec = InstanceSpec(
                    n=n, k=k, corruption=Corruption(kind="iid", rate=0.1)
                )
                cells.append(
                    Cell(instance=spec, learn=default_learn_params(n, k, eps, 0.2))
                )
    return ExperimentConfig(
        cells=tuple(cells), repetitions=repetitions, master_seed=master_seed
    )


@dataclass(frozen=True)
class SuiteResult:
    reports: tuple[TrialReport, ...]
    summary: dict
    csv_path: Path
    json_path: Path
    summary_path: Path


def _run_trial_safe(
    cell: Cell, trial_seed: int, trial_id: int
) -> TrialReport:
    try:
        return run_trial(cell.instance, cell.learn, trial_seed, trial_id)
    except Exception as exc:  # noqa: BLE001 - a failing trial must not sink the suite
        logger.error("trial %d failed: %s", trial_id, exc)
        return TrialReport(
            trial_id=trial_id,
            spec=cell.instance,
            k=cell.learn.k,
            eps=cell.learn.epsilon,
            delta=cell.learn.delta,
            seed=trial_seed,
            opt=None,
            delta_hf=None,
            excess=None,
            passed=False,
            wall_ms=0.0,
            walk_steps=0,
            error=f"{type(exc).__name__}: {exc}",
        )


def _summarize(config: ExperimentConfig, reports: list[TrialReport]) -> dict:
    cells_out = []
    by_gamma: dict[float, list[float]] = {}
    by_eps: dict[float, list[bool]] = {}
    for ci, cell in enumerate(config.cells):
        mine = [r for r in reports if r.trial_id // config.repetitions == ci]
        passes = sum(r.passed for r in mine)
        excesses = [float(r.excess) for r in mine if r.excess is not None]
        walls = [r.wall_ms for r in mine]
        cells_out.append(
            {
                "cell": ci,
                "n": cell.instance.n,
                "k": cell.learn.k,
                "eps": cell.learn.epsilon,
                "delta": cell.learn.delta,
                "gamma": cell.instance.corruption.gamma,
                "kind": cell.instance.corruption.kind,
                "mode": cell.learn.mode,
                "repetitions": len(mine),
                "passes": passes,
                "pass_rate": passes / len(mine) if mine else 0.0,
                "mean_excess": sum(excesses) / len(excesses) if excesses else None,
                "median_wall_ms": statistics.median(walls) if walls else 0.0,
                "errors": sum(r.error is not None for r in mine),
            }
        )
        g = cell.instance.corruption.gamma
        by_gamma.setdefault(g, []).extend(excesses)
        by_eps.setdefault(cell.learn.epsilon, []).extend(r.passed for r in mine)
    series = {
        "excess_vs_gamma": [
            [g, sum(v) / len(v)] for g, v in sorted(by_gamma.items()) if v
        ],
        "pass_rate_vs_eps": [
            [e, sum(v) / len(v)] for e, v in sorted(by_eps.items()) if v
        ],
    }
    return {
        "master_seed": config.master_seed,
        "trials": len(reports),
        "passes": sum(r.passed for r in reports),
        "cells": cells_out,
        "series": series,
    }


def run_suite(config: ExperimentConfig, out_dir: str | Path) -> SuiteResult:
    """Execute every (cell, repetition) trial and write CSV/JSON artifacts.

    Trials run in order on the calling thread, and the files list them in
    that order.  One warning per call reports the cells whose budgets are
    practical, not certified.
    """
    practical = sum(cell.learn.mode == "practical" for cell in config.cells)
    if practical:
        warn_practical(f"{practical} of {len(config.cells)} cells run")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [
        (cell, config.trial_seed(ci, rep), ci * config.repetitions + rep)
        for ci, cell in enumerate(config.cells)
        for rep in range(config.repetitions)
    ]
    reports = [_run_trial_safe(*t) for t in tasks]

    csv_path = out / "trials.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in reports:
            writer.writerow(r.to_csv())
    json_path = out / "trials.json"
    with open(json_path, "w") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=2, allow_nan=False)
    summary = _summarize(config, reports)
    summary_path = out / "summary.json"
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, allow_nan=False)
    return SuiteResult(
        reports=tuple(reports),
        summary=summary,
        csv_path=csv_path,
        json_path=json_path,
        summary_path=summary_path,
    )
