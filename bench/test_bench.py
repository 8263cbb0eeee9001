"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from junta_walk import harness, hypercube  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@functools.lru_cache(maxsize=None)
def bench_result(
    workload: str, trace: int, seed: int, spans_out: str | None = None, run: int = 0
) -> dict:
    """Result object of one short benchmark run; ``run`` tells repeats apart."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)]
    if spans_out:
        args += ["--spans-out", spans_out]
    proc = run_bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload, trace",
    [("battery_small", 0), ("battery_small", 1), ("sieve_wide", 0), ("sieve_wide", 1)],
)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    result = bench_result(workload, trace, 3)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


# Count metrics repeat exactly for a fixed seed; times and page faults do not.
TIMED = ("self_s", "minflt", "ns_per_step", "ns_per_pair", "overhead_s", "overhead_frac", "op_s")


def test_same_seed_repeats_counts_across_processes(tmp_path):
    first = bench_result("battery_small", 0, 3)["metrics"]
    again = bench_result("battery_small", 0, 3, run=1)["metrics"]
    assert first["walk_steps_per_op"] == again["walk_steps_per_op"]

    spans = tmp_path / "spans.jsonl"
    traced = [bench_result("battery_small", 1, 3, out)["metrics"] for out in (None, str(spans))]
    counts = [{k: v for k, v in m.items() if not k.endswith(TIMED)} for m in traced]
    assert counts[0] == counts[1]
    assert counts[0]["sieve.candidates"]["value"] > 0
    assert counts[0]["learner.best_junta.supports"]["value"] > 0

    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert {r["name"] for r in records} <= set(tracing.SPANS)
    for r in records:
        assert r["start_ns"] <= r["end_ns"]
        if r["parent"] >= 0:
            parent = records[r["parent"]]
            assert parent["op"] == r["op"]
            assert parent["start_ns"] <= r["start_ns"] and r["end_ns"] <= parent["end_ns"]


def test_declared_per_layer_metrics_match_the_tracer():
    import run

    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == {**tracing.metric_units(), **run.TRACE_UNITS}
    assert {m["name"] for m in SPEC["end_to_end"]} == set(run.E2E_UNITS)
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_runs_fail_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "battery_small", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = run_bench(*args, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _small_trial():
    cell, trial_seed = workloads.WORKLOADS["battery_small"].op_input(5, 7)
    return harness.run_trial(cell.instance, cell.learn, trial_seed)


def test_trial_audit_rejects_a_wrong_hypothesis():
    report = _small_trial()
    assert workloads.audit_trial(report) == ()
    f, _, _ = harness.make_instance(report.spec)
    h = report.hypothesis
    wrong = hypercube.JuntaHypothesis(h.J, -h.table)
    d = hypercube.distance_exact(f, wrong)
    bad = replace(report, hypothesis=wrong, delta_hf=d, excess=d - report.opt)
    assert any("excess" in v for v in workloads.audit_trial(bad))
    below = replace(report, delta_hf=report.opt - Fraction(1, 1 << f.n))
    assert any("below opt" in v for v in workloads.audit_trial(below))
    assert workloads.audit_trial(replace(report, error="boom")) != ()


def test_sieve_audit_rejects_missing_and_spurious_sets():
    w = workloads.WORKLOADS["sieve_wide"]
    f, oracle_seed = w.op_input(5, 1)
    from junta_walk import sieve, walk

    params = sieve.SieveParams(level=w.LEVEL, theta=w.THETA, delta=w.DELTA)
    budgets = sieve.practical_budgets(params, w.N, w.SCREEN_PAIRS, w.ESTIMATE_BLOCKS)
    result = sieve.bounded_sieve(walk.RandomWalkOracle(f, w.N, oracle_seed), params, budgets)
    assert workloads.audit_sieve(result, f) == ()
    assert any("missing" in v for v in workloads.audit_sieve(replace(result, sets=()), f))
    spurious = hypercube.IndexSet.of(w.N, [1, 2, 3, 4])
    while spurious.mask in result.masks():
        spurious = hypercube.IndexSet.of(w.N, [c + 1 for c in spurious.coords()])
    extra = replace(result, sets=result.sets + (spurious,))
    assert any("spurious" in v or "oversized" in v for v in workloads.audit_sieve(extra, f))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_reproduces_outputs_and_counts(name):
    w = workloads.WORKLOADS[name]

    def traced_run():
        tracer = tracing.Tracer()
        outputs = []
        with tracer:
            for index in (0, 1):
                with tracer.op(index):
                    r = w.run(w.op_input(11, index))
                outputs.append((r.fingerprint, r.walk_steps, r.violations))
        metrics = tracing.layer_metrics(tracer.totals(), 2, tracer.totals(), 2)
        counts = {k: v for k, v in metrics.items() if not k.endswith(TIMED)}
        return outputs, counts

    first, second = traced_run(), traced_run()
    assert first == second
    outputs = first[0]
    assert outputs[0][0] != outputs[1][0]  # distinct op indices give distinct inputs


def test_tracer_restores_the_library():
    from junta_walk import fourier, learner, oracle_bruteforce, walk

    before = (
        hypercube.restriction_indices,
        oracle_bruteforce.restriction_indices,
        harness.exact_opt,
        walk.RandomWalkOracle.__dict__["walk"],
        fourier.Spectrum.__dict__["from_table"],
        learner.bounded_sieve,
    )
    tracer = tracing.Tracer()
    with tracer:
        assert harness.exact_opt is not before[2]
        # every module that imported the function by name sees the wrapper
        assert learner.restriction_indices is hypercube.restriction_indices
        assert oracle_bruteforce.restriction_indices is not before[0]
    after = (
        hypercube.restriction_indices,
        oracle_bruteforce.restriction_indices,
        harness.exact_opt,
        walk.RandomWalkOracle.__dict__["walk"],
        fourier.Spectrum.__dict__["from_table"],
        learner.bounded_sieve,
    )
    assert all(a is b for a, b in zip(before, after))
    assert tracer.spans == []  # nothing is recorded outside an op
