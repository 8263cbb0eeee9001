"""Benchmark workloads: seeded op inputs, one audited op, and its exact audit.

An op of a trial workload is one ``harness.run_trial`` call; an op of
``sieve_wide`` is one standalone ``bounded_sieve`` run audited by
``certify_result`` against the exact spectrum.  Every call into the library
goes through a module attribute at call time (``harness.run_trial``, not a
name imported here), so the span wrappers in ``tracing`` see it.

Inputs depend only on (workload seed, op index), so any op replays exactly.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from junta_walk import fourier, functions, harness, sieve, walk

TRIAL_EPS = 0.25
TRIAL_DELTA = 0.2


@dataclass(frozen=True)
class OpResult:
    """What one op produced: the timed algorithm share, its walk cost, a
    digest of every output that must repeat for a fixed seed, and the audit
    verdict (no violations means the op is correct)."""

    learn_s: float
    walk_steps: int
    fingerprint: str
    violations: tuple[str, ...]


def derived_seed(seed: int, index: int) -> int:
    """Independent 64-bit seed for op ``index`` of a run seeded with ``seed``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Audited trials
# ---------------------------------------------------------------------------


def audit_trial(report: harness.TrialReport) -> tuple[str, ...]:
    """Exact audit of one trial: no error, and opt <= delta_hf <= opt + eps.

    The excess is recomputed from the report's exact Fractions and compared
    with the exact binary value of the float epsilon, never with a tolerance.
    """
    if report.error is not None:
        return (f"trial error: {report.error}",)
    if report.hypothesis is None or report.opt is None or report.delta_hf is None:
        return ("trial report lacks a hypothesis or its exact scores",)
    violations = []
    if report.delta_hf < report.opt:
        violations.append(f"delta_hf {report.delta_hf} below opt {report.opt}")
    excess = report.delta_hf - report.opt
    if excess > Fraction(report.eps):
        violations.append(f"excess {excess} above eps {report.eps}")
    return tuple(violations)


def trial_fingerprint(report: harness.TrialReport) -> str:
    h = report.hypothesis
    return _digest(
        None if h is None else (h.J.mask, h.table.tobytes()),
        report.pool,
        report.walk_steps,
        report.erm_sample,
        report.disagreements,
        str(report.opt),
        str(report.delta_hf),
    )


class TrialWorkload:
    """Seeded trials cycling through a fixed list of cells.

    Cell ``index % len(cells)`` serves op ``index``; the benchmark times whole
    cycles so every run weights the cells equally.
    """

    def __init__(self, name: str, cells: list[harness.Cell]) -> None:
        self.name = name
        self.cells = cells

    @property
    def cycle(self) -> int:
        return len(self.cells)

    def op_input(self, seed: int, index: int) -> tuple[harness.Cell, int]:
        return self.cells[index % len(self.cells)], derived_seed(seed, index)

    def run(self, op_input: tuple[harness.Cell, int]) -> OpResult:
        cell, trial_seed = op_input
        report = harness.run_trial(cell.instance, cell.learn, trial_seed)
        return OpResult(
            learn_s=report.wall_ms / 1e3,
            walk_steps=report.walk_steps,
            fingerprint=trial_fingerprint(report),
            violations=audit_trial(report),
        )


def _cells(ns, k_values) -> list[harness.Cell]:
    return [
        harness.Cell(
            instance=harness.InstanceSpec(n=n, k=k, corruption=c),
            learn=harness.default_learn_params(n, k, TRIAL_EPS, TRIAL_DELTA),
        )
        for n in ns
        for k in k_values
        for c in CORRUPTIONS
    ]


CORRUPTIONS = (
    harness.Corruption(kind="iid", rate=0.1),
    harness.Corruption(kind="planted", fraction=0.1),
)


# ---------------------------------------------------------------------------
# Standalone sieve at the bulk-WHT cap
# ---------------------------------------------------------------------------


def audit_sieve(result: sieve.SieveResult, f) -> tuple[str, ...]:
    """Every ``certify_result`` violation against the exact spectrum of f."""
    truth = fourier.Spectrum.from_table(f)
    report = sieve.certify_result(result, truth, SieveWorkload.THETA, SieveWorkload.LEVEL)
    return report.violations


def sieve_fingerprint(result: sieve.SieveResult) -> str:
    return _digest(
        result.masks(),
        result.estimates,
        result.pool.mask,
        result.candidates,
        result.truncated,
        result.walk_steps,
    )


class SieveWorkload:
    """``bounded_sieve`` at n = 20 on seeded random 3-juntas with 10% iid flips,
    with the README's CLI settings (level 3, theta 0.05, delta 0.1, 200 000
    screening pairs, 20 000 estimation blocks)."""

    name = "sieve_wide"
    cycle = 1
    N = 20
    K = 3
    FLIP_RATE = 0.1
    LEVEL = 3
    THETA = 0.05
    DELTA = 0.1
    SCREEN_PAIRS = 200_000
    ESTIMATE_BLOCKS = 20_000

    def op_input(self, seed: int, index: int):
        """The corrupted target table and the oracle seed; built outside the op."""
        rng = np.random.default_rng(derived_seed(seed, index))
        planted = functions.random_junta(self.N, self.K, rng)
        f = functions.flip_labels_iid(planted.to_truth_table(), self.FLIP_RATE, rng)
        return f, int(rng.integers(0, 2**63))

    def run(self, op_input) -> OpResult:
        f, oracle_seed = op_input
        params = sieve.SieveParams(level=self.LEVEL, theta=self.THETA, delta=self.DELTA)
        budgets = sieve.practical_budgets(
            params,
            self.N,
            screen_pairs=self.SCREEN_PAIRS,
            estimate_blocks=self.ESTIMATE_BLOCKS,
        )
        oracle = walk.RandomWalkOracle(f, self.N, seed=oracle_seed)
        start = time.perf_counter()
        result = sieve.bounded_sieve(oracle, params, budgets)
        learn_s = time.perf_counter() - start
        return OpResult(
            learn_s=learn_s,
            walk_steps=result.walk_steps,
            fingerprint=sieve_fingerprint(result),
            violations=audit_sieve(result, f),
        )


# Corruption alternates within each (n, k), and the largest cell comes
# first, so the warm-up op (index 0) touches the workload's biggest arrays.
WORKLOADS = {
    "battery_small": TrialWorkload("battery_small", _cells((12, 8), (2, 1))),
    "battery_n16_k3": TrialWorkload("battery_n16_k3", _cells((16,), (3,))),
    "sieve_wide": SieveWorkload(),
}
