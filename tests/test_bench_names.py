"""The benchmark's span names and workloads still run against the library.

``bench/`` is not in the default test run, so a renamed or deleted library
name would otherwise break only ``pytest bench`` or ``bench/run.py``.
``bench/tracing.py`` and ``bench/workloads.py`` are read and executed from
their files; nothing is written next to them.
"""

import importlib
import math
import sys
import types
from pathlib import Path

import pytest

from junta_walk.harness import InstanceSpec, run_trial
from junta_walk.learner import LearnParams
from junta_walk.sieve import SieveParams, practical_budgets
from junta_walk.walk import lag_pairs, lag_window

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name: str) -> types.ModuleType:
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    sys.modules[module.__name__] = module  # dataclasses look their module up
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_span_name_resolves_to_a_library_function():
    for name in _bench_module("tracing").SPANS:
        module_name, *path = name.split(".")
        owner = importlib.import_module(f"junta_walk.{module_name}")
        for part in path:
            owner = getattr(owner, part)
        assert callable(owner), name


def test_traced_trial_counts_erm_and_exact_opt_work():
    tracing = _bench_module("tracing")
    n, k, epsilon, delta = 6, 2, 0.25, 0.2
    params = LearnParams(k, epsilon, delta, screen_pairs=20_000, erm_sample=8_000)
    tracer = tracing.Tracer()
    with tracer, tracer.op(0):
        run_trial(InstanceSpec(n=n, k=k), params, trial_seed=3)
    totals = tracer.totals()
    erm, opt = totals["learner.best_junta"], totals["oracle_bruteforce.exact_opt"]
    assert erm["calls"] == 1 and opt["calls"] == 1
    assert erm["supports"] >= 1 and erm["point_visits"] == 8_000 * erm["supports"]
    assert opt["supports"] == math.comb(n, k)
    assert opt["point_visits"] == math.comb(n, k) << n


def test_traced_sieve_op_counts_the_harvest_it_reads():
    # one sieve_wide op draws one harvest: the tracer's counters read the
    # pairs its walk spans, the screen's pairs, and the boundaries labelled,
    # which are every screened one and, past the screen, only the lag
    # samples' boundaries m w/2
    tracing = _bench_module("tracing")
    workload = _bench_module("workloads").WORKLOADS["sieve_wide"]
    op_input = workload.op_input(7, 0)
    tracer = tracing.Tracer()
    with tracer, tracer.op(0):
        workload.run(op_input)
    totals = tracer.totals()
    screen, blocks = workload.SCREEN_PAIRS, workload.ESTIMATE_BLOCKS
    params = SieveParams(workload.LEVEL, workload.THETA, workload.DELTA)
    budgets = practical_budgets(params, workload.N, screen, blocks)
    window = lag_window(budgets.lag, budgets.gap_steps)
    harvest = totals["walk.RandomWalkOracle.refresh_pairs"]
    assert harvest["calls"] == 1
    assert harvest["pairs"] == max(screen, lag_pairs(window, blocks)) > screen
    assert totals["fourier.estimate_bounded_influence"]["pair_visits"] == screen
    screened_lag_ends = (screen + 1) // (window // 2) + 1
    labelled = screen + 2 + blocks + 2 - screened_lag_ends
    assert totals["walk.labels_for"]["points"] == labelled


def _assert_op_passes_its_audit_and_repeats(workload, index):
    op_input = workload.op_input(7, index)
    first, again = workload.run(op_input), workload.run(op_input)
    assert first.violations == ()
    assert first.walk_steps > 0
    assert again.fingerprint == first.fingerprint


@pytest.mark.parametrize("name", ["battery_small", "battery_n16_k3", "sieve_wide"])
def test_first_workload_op_passes_its_audit_and_repeats(name):
    _assert_op_passes_its_audit_and_repeats(_bench_module("workloads").WORKLOADS[name], 0)


@pytest.mark.parametrize("name", ["battery_small", "battery_n16_k3"])
def test_planted_battery_op_passes_its_audit_and_repeats(name):
    # op 0 of a battery is an iid cell; op 1 reads the adversary's region
    workload = _bench_module("workloads").WORKLOADS[name]
    assert workload.op_input(7, 1)[0].instance.corruption.kind == "planted"
    _assert_op_passes_its_audit_and_repeats(workload, 1)
