"""Per-layer spans recorded around the library's public functions.

The library itself carries no hooks, so :class:`Tracer` replaces each traced
function with a wrapper for as long as it is installed: module functions in
every ``junta_walk`` module that binds them (``harness`` imports
``exact_opt`` by name, so patching ``oracle_bruteforce`` alone would miss
that call), methods and classmethods on their class.  Uninstalling restores
the originals, so untraced ops run the unmodified library.

A span records its name, start, end, parent span, op id, the change in minor
page faults over it (``getrusage``, inclusive of its children) and the work
counts its counter reads from the call.  Spans stay in memory; a layer's self
time is its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import resource
import sys
import time
from contextlib import contextmanager

import numpy as np


def minflt() -> int:
    """Minor page faults of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _walk(args, kwargs, walk):
    return {"steps": len(walk.points) - 1}


def _refresh_pairs(args, kwargs, pairs):
    return {"pairs": len(pairs), "steps": pairs.walk_steps}


def _labels_for(args, kwargs, labels):
    return {"points": labels.size}


def _bounded_influence(args, kwargs, value):
    return {"pair_visits": len(args[0])}


def _wht(args, kwargs, out):
    # A TruthTable argument returns a Spectrum via Spectrum.from_table, whose
    # own wht call on the raw array is the one counted.
    if not isinstance(out, np.ndarray):
        return {}
    butterflies = int(math.log2(out.size)) * out.size
    # one read and one write of every element per butterfly level
    return {"ops_computed": butterflies, "bytes_computed": 2 * out.itemsize * butterflies}


def _bounded_sieve(args, kwargs, result):
    return {
        "walk_steps": result.walk_steps,
        "pool": len(result.pool),
        "n": result.n,
        "candidates": result.candidates,
        "kept": len(result.sets),
        "truncated": int(result.truncated),
    }


def _best_junta(args, kwargs, result):
    points, _, pool, k = args
    supports = math.comb(len(pool), k)
    return {"supports": supports, "point_visits": len(points) * supports}


def _learn_outcome(args, kwargs, outcome):
    return {"erm_steps": outcome.walk_steps - outcome.sieve.walk_steps}


def _exact_opt(args, kwargs, result):
    f, k = args[:2]
    supports = math.comb(f.n, k)
    return {"supports": supports, "point_visits": supports << f.n}


# span name -> work counter; the name is the module (under junta_walk) and
# the qualified name of the traced function.
SPANS = {
    "harness.run_trial": None,
    "harness.make_instance": None,
    "oracle_bruteforce.exact_opt": _exact_opt,
    "hypercube.restriction_indices": None,
    "hypercube.distance_exact": None,
    "learner.learn_outcome": _learn_outcome,
    "learner.best_junta": _best_junta,
    "sieve.bounded_sieve": _bounded_sieve,
    "sieve.certify_result": None,
    "walk.RandomWalkOracle.walk": _walk,
    "walk.RandomWalkOracle.refresh_pairs": _refresh_pairs,
    "walk.labels_for": _labels_for,
    "fourier.estimate_bounded_influence": _bounded_influence,
    "fourier.estimate_sq_coeff_bulk": None,
    "fourier.wht": _wht,
    "fourier.Spectrum.from_table": None,
}

# (metric, unit) of the work counts and ratios, each per op; see layer_metrics.
COUNT_METRICS = (
    ("walk.RandomWalkOracle.walk.steps", "steps"),
    ("walk.RandomWalkOracle.walk.ns_per_step", "ns"),
    ("walk.RandomWalkOracle.refresh_pairs.pairs", "count"),
    ("walk.RandomWalkOracle.refresh_pairs.steps", "steps"),
    ("walk.RandomWalkOracle.refresh_pairs.ns_per_pair", "ns"),
    ("walk.labels_for.points", "count"),
    ("fourier.estimate_bounded_influence.pair_visits", "count"),
    ("fourier.wht.ops_computed", "count"),
    ("fourier.wht.bytes_computed", "bytes"),
    ("sieve.walk_steps", "steps"),
    ("sieve.pool_frac", "ratio"),
    ("sieve.candidates", "count"),
    ("sieve.kept_frac", "ratio"),
    ("sieve.truncated", "count"),
    ("learner.best_junta.supports", "count"),
    ("learner.best_junta.point_visits", "count"),
    ("learner.erm_steps", "steps"),
    ("oracle_bruteforce.exact_opt.supports", "count"),
    ("oracle_bruteforce.exact_opt.point_visits", "count"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric :func:`layer_metrics` reports, with its unit."""
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.minflt"] = "count"
    units.update(COUNT_METRICS)
    return units


class Tracer:
    """Installs span wrappers and keeps the spans of the ops it was told about.

    Calls outside :meth:`op` run through the wrapper without recording.
    """

    def __init__(self) -> None:
        # span: [name, parent index or -1, op id, start ns, end ns, minflt, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @contextmanager
    def op(self, op_id: int):
        self._op = op_id
        try:
            yield
        finally:
            self._op = None
            self._stack.clear()

    def _wrap(self, name: str, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, self._op, 0, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            faults = minflt()
            span[3] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                span[5] = minflt() - faults
                stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == "junta_walk" or key.startswith("junta_walk.")
        ]
        for name, counter in SPANS.items():
            module_name, *path = name.split(".")
            owner = importlib.import_module(f"junta_walk.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            attr = path[-1]
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(name, raw.__func__, counter)))
            elif isinstance(owner, type):
                self._patch(owner, attr, self._wrap(name, raw, counter))
            else:
                wrapper = self._wrap(name, raw, counter)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def totals(self, ops: set[int] | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, self ns, minor faults and summed work counts,
        over the given op ids (all ops when None)."""
        self_ns = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                self_ns[s[1]] -= s[4] - s[3]
        totals = {name: {"calls": 0, "self_ns": 0, "minflt": 0} for name in SPANS}
        for s, own in zip(self.spans, self_ns):
            if ops is not None and s[2] not in ops:
                continue
            t = totals[s[0]]
            t["calls"] += 1
            t["self_ns"] += own
            t["minflt"] += s[5]
            for key, value in (s[6] or {}).items():
                t[key] = t.get(key, 0) + value
        return totals

    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line."""
        keys = ("name", "parent", "op", "start_ns", "end_ns", "minflt", "counts")
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **dict(zip(keys, span))}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    timed: dict[str, dict[str, float]],
    timed_ops: int,
    counted: dict[str, dict[str, float]],
    counted_ops: int,
) -> dict[str, float]:
    """Per-op layer metrics from :meth:`Tracer.totals`.

    Times and page faults come from ``timed`` (all traced ops); calls, work
    counts and the pool and kept fractions come from ``counted`` (a fixed set
    of ops), so they repeat exactly for a fixed seed.  ns per step or pair
    divides self time by the work of the same ops.  A layer the workload
    never enters reports 0.
    """
    out: dict[str, float] = {}
    for name in SPANS:
        out[f"{name}.calls"] = counted[name]["calls"] / counted_ops
        out[f"{name}.self_s"] = timed[name]["self_ns"] / 1e9 / timed_ops
        out[f"{name}.minflt"] = timed[name]["minflt"] / timed_ops
    walk = counted["walk.RandomWalkOracle.walk"]
    pairs = counted["walk.RandomWalkOracle.refresh_pairs"]
    wht = counted["fourier.wht"]
    sv = counted["sieve.bounded_sieve"]
    erm = counted["learner.best_junta"]
    opt = counted["oracle_bruteforce.exact_opt"]
    per_op = {
        "walk.RandomWalkOracle.walk.steps": walk.get("steps", 0),
        "walk.RandomWalkOracle.refresh_pairs.pairs": pairs.get("pairs", 0),
        "walk.RandomWalkOracle.refresh_pairs.steps": pairs.get("steps", 0),
        "walk.labels_for.points": counted["walk.labels_for"].get("points", 0),
        "fourier.estimate_bounded_influence.pair_visits": counted[
            "fourier.estimate_bounded_influence"
        ].get("pair_visits", 0),
        "fourier.wht.ops_computed": wht.get("ops_computed", 0),
        "fourier.wht.bytes_computed": wht.get("bytes_computed", 0),
        "sieve.walk_steps": sv.get("walk_steps", 0),
        "sieve.candidates": sv.get("candidates", 0),
        "sieve.truncated": sv.get("truncated", 0),
        "learner.best_junta.supports": erm.get("supports", 0),
        "learner.best_junta.point_visits": erm.get("point_visits", 0),
        "learner.erm_steps": counted["learner.learn_outcome"].get("erm_steps", 0),
        "oracle_bruteforce.exact_opt.supports": opt.get("supports", 0),
        "oracle_bruteforce.exact_opt.point_visits": opt.get("point_visits", 0),
    }
    out.update({key: value / counted_ops for key, value in per_op.items()})
    out["sieve.pool_frac"] = _ratio(sv.get("pool", 0), sv.get("n", 0))
    out["sieve.kept_frac"] = _ratio(sv.get("kept", 0), sv.get("candidates", 0))
    walk_all = timed["walk.RandomWalkOracle.walk"]
    pairs_all = timed["walk.RandomWalkOracle.refresh_pairs"]
    out["walk.RandomWalkOracle.walk.ns_per_step"] = _ratio(
        walk_all["self_ns"], walk_all.get("steps", 0)
    )
    out["walk.RandomWalkOracle.refresh_pairs.ns_per_pair"] = _ratio(
        pairs_all["self_ns"], pairs_all.get("pairs", 0)
    )
    return out
