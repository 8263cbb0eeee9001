"""The benchmark's span names still resolve in the library.

``bench/`` is not in the default test run, so a renamed library function
would otherwise break only ``pytest bench``.  ``bench/tracing.py`` is read
and executed from its file; nothing is written next to it.
"""

import importlib
import math
import types
from pathlib import Path

from junta_walk.harness import InstanceSpec, run_trial
from junta_walk.learner import LearnParams, theta_for
from junta_walk.sieve import SieveParams, practical_budgets

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing() -> types.ModuleType:
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_span_name_resolves_to_a_library_function():
    for name in _tracing().SPANS:
        module_name, *path = name.split(".")
        owner = importlib.import_module(f"junta_walk.{module_name}")
        for part in path:
            owner = getattr(owner, part)
        assert callable(owner), name


def test_traced_trial_counts_erm_and_exact_opt_work():
    tracing = _tracing()
    n, k, epsilon, delta = 6, 2, 0.25, 0.2
    sieve = SieveParams(level=k, theta=theta_for(k, epsilon), delta=delta / 2.0)
    budgets = practical_budgets(sieve, n, screen_pairs=20_000, estimate_blocks=4_000)
    params = LearnParams(k, epsilon, delta, sieve_budgets=budgets, erm_sample=8_000)
    tracer = tracing.Tracer()
    with tracer, tracer.op(0):
        run_trial(InstanceSpec(n=n, k=k), params, trial_seed=3)
    totals = tracer.totals()
    erm, opt = totals["learner.best_junta"], totals["oracle_bruteforce.exact_opt"]
    assert erm["calls"] == 1 and opt["calls"] == 1
    assert erm["supports"] >= 1 and erm["point_visits"] == 8_000 * erm["supports"]
    assert opt["supports"] == math.comb(n, k)
    assert opt["point_visits"] == math.comb(n, k) << n
