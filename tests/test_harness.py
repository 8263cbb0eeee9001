"""Instance generation, trial scoring, CSV round trips, and suite artifacts."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import junta_walk
from junta_walk.harness import (
    CSV_COLUMNS,
    DEFAULT_ERM_SAMPLE,
    Cell,
    Corruption,
    ExperimentConfig,
    InstanceSpec,
    TrialReport,
    default_battery,
    default_learn_params,
    make_instance,
    resolve_instance,
    run_suite,
    run_trial,
    _summarize,
)
from junta_walk.hypercube import JuntaHypothesis, distance_exact
from junta_walk.learner import LearnParams, theta_for
from junta_walk.oracle_bruteforce import exact_opt


def small_params(k, epsilon=0.25, delta=0.2, screen=20_000, sample=8_000):
    return LearnParams(k, epsilon, delta, screen_pairs=screen, erm_sample=sample)


# ---------------------------------------------------------------------------
# Corruption and instance specs


def test_corruption_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        Corruption(kind="burst")


@pytest.mark.parametrize("kw", [{"rate": -0.1}, {"rate": 0.6}])
def test_iid_rate_range(kw):
    with pytest.raises(ValueError, match="rate"):
        Corruption(kind="iid", **kw)


def test_planted_fraction_range():
    with pytest.raises(ValueError, match="fraction"):
        Corruption(kind="planted", fraction=0.51)


def test_gamma_reflects_the_active_model():
    assert Corruption().gamma == 0.0
    assert Corruption(kind="iid", rate=0.3).gamma == 0.3
    assert Corruption(kind="planted", fraction=0.2).gamma == 0.2
    with pytest.raises(ValueError, match="'rate'"):
        Corruption(kind="planted", fraction=0.2, rate=0.4)


def test_corruption_dict_round_trip():
    for c in (
        Corruption(),
        Corruption(kind="iid", rate=0.25),
        Corruption(kind="planted", fraction=0.1, adversary_seed=99),
    ):
        assert Corruption.from_dict(c.to_dict()) == c


@pytest.mark.parametrize(
    "d, key",
    [
        ({"kind": "iid", "fraction": 0.1}, "fraction"),
        ({"kind": "planted", "rate": 0.1}, "rate"),
        ({"rate": 0.1}, "rate"),
        ({"kind": "iid", "rate": 0.1, "adversary_seed": 5}, "adversary_seed"),
        ({"adversary_seed": 7}, "adversary_seed"),
    ],
)
def test_corruption_dict_refuses_the_other_models_field(d, key):
    # read as given, each would be ignored: a rate or fraction would build an
    # uncorrupted instance, a seed would never be read
    with pytest.raises(ValueError, match=repr(key)):
        Corruption.from_dict(d)


@pytest.mark.parametrize(
    "build, error, named",
    [
        (lambda: Corruption(kind="iid", rate=0.1, fraction=0.1), ValueError, "'fraction'"),
        (lambda: Corruption(rate=0.1), ValueError, "'rate'"),
        (
            lambda: Corruption(kind="iid", rate=0.1, adversary_seed=5),
            ValueError,
            "'adversary_seed'",
        ),
        (lambda: Corruption(kind="none", adversary_seed=7), ValueError, "'adversary_seed'"),
        (
            lambda: Corruption(kind="planted", adversary_seed=True),
            TypeError,
            "adversary_seed=True",
        ),
        # a bool equals the unset 0.0, so only a type check tells it apart
        (lambda: Corruption(kind="none", rate=False), TypeError, "iid rate=False"),
        (lambda: Corruption(kind="iid", rate=0.1, fraction=False), TypeError, "fraction=False"),
        (lambda: Corruption(kind="planted", rate=True), TypeError, "iid rate=True"),
        (lambda: Corruption(kind="none", fraction="0"), TypeError, "fraction='0'"),
        (lambda: InstanceSpec(n=True, k=1), TypeError, "n=True"),
        (lambda: InstanceSpec(n=8.0, k=2), TypeError, "n=8.0"),
        (lambda: InstanceSpec(n=8, k=1.5), TypeError, "k=1.5"),
        (lambda: InstanceSpec(n=None, k=1), TypeError, "n=None"),
        (lambda: InstanceSpec(n="8", k=1), TypeError, "n='8'"),
        (lambda: InstanceSpec(n=8, k=None), TypeError, "k=None"),
        (lambda: InstanceSpec(n=8, k=2, junta_seed=1.5), TypeError, "junta_seed=1.5"),
        (lambda: ExperimentConfig(cells=(), repetitions=1.5), TypeError, "repetitions=1.5"),
        (lambda: ExperimentConfig(cells=(), repetitions=True), TypeError, "repetitions=True"),
        (lambda: ExperimentConfig(cells=(), master_seed=2.0), TypeError, "master_seed=2.0"),
        (
            lambda: run_trial(InstanceSpec(n=5, k=1), small_params(1), 1.5),
            TypeError,
            "trial_seed=1.5",
        ),
        (
            lambda: run_trial(InstanceSpec(n=5, k=1), small_params(1), -1),
            ValueError,
            "trial_seed=-1",
        ),
        (lambda: resolve_instance(InstanceSpec(n=5, k=1), -1), ValueError, "trial_seed=-1"),
        (lambda: default_learn_params(8.0, 2, 0.25, 0.2), TypeError, "n=8.0"),
        (lambda: theta_for(2.5, 0.1), TypeError, "k=2.5"),
        (lambda: theta_for(True, 0.1), TypeError, "k=True"),
    ],
    ids=[
        "iid-with-fraction",
        "none-with-rate",
        "iid-with-adversary-seed",
        "none-with-adversary-seed",
        "bool-adversary-seed",
        "none-with-bool-rate",
        "iid-with-bool-fraction",
        "planted-with-bool-rate",
        "none-with-str-fraction",
        "bool-n",
        "float-n",
        "float-k",
        "none-n",
        "str-n",
        "none-k",
        "float-junta-seed",
        "float-repetitions",
        "bool-repetitions",
        "float-master-seed",
        "float-trial-seed",
        "negative-trial-seed",
        "negative-resolve-seed",
        "float-default-n",
        "float-theta-k",
        "bool-theta-k",
    ],
)
def test_refuses_a_bad_argument_naming_it(build, error, named):
    with pytest.raises(error, match=re.escape(named)):
        build()


def test_instance_spec_validation():
    with pytest.raises(ValueError, match="n >= k"):
        InstanceSpec(n=3, k=4)
    with pytest.raises(ValueError, match="n >= k"):
        InstanceSpec(n=3, k=0)
    with pytest.raises(ValueError, match="cap"):
        InstanceSpec(n=17, k=2)


def test_instance_spec_dict_round_trip():
    spec = InstanceSpec(
        n=9,
        k=2,
        corruption=Corruption(kind="iid", rate=0.05),
        junta_seed=7,
    )
    assert InstanceSpec.from_dict(spec.to_dict()) == spec
    assert InstanceSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


# ---------------------------------------------------------------------------
# Seed resolution and instance construction


def test_resolve_fills_missing_seeds_deterministically():
    spec = InstanceSpec(n=6, k=2)
    a = resolve_instance(spec, trial_seed=123)
    b = resolve_instance(spec, trial_seed=123)
    assert a == b
    assert a.junta_seed is not None and a.instance_seed is not None
    c = resolve_instance(spec, trial_seed=124)
    assert (c.junta_seed, c.instance_seed) != (a.junta_seed, a.instance_seed)


def test_resolve_keeps_explicit_seeds():
    spec = InstanceSpec(n=6, k=2, junta_seed=42)
    resolved = resolve_instance(spec, trial_seed=1)
    assert resolved.junta_seed == 42
    assert resolved.instance_seed is not None


def test_resolve_fills_adversary_seed_only_for_planted():
    iid = resolve_instance(
        InstanceSpec(n=6, k=2, corruption=Corruption(kind="iid", rate=0.1)), 5
    )
    assert iid.corruption.adversary_seed is None
    planted = resolve_instance(
        InstanceSpec(n=6, k=2, corruption=Corruption(kind="planted", fraction=0.1)), 5
    )
    assert planted.corruption.adversary_seed is not None


def test_make_instance_requires_resolved_seeds():
    with pytest.raises(ValueError, match="resolve_instance"):
        make_instance(InstanceSpec(n=6, k=2))


def test_noiseless_instance_is_the_planted_junta():
    spec = resolve_instance(InstanceSpec(n=8, k=3), trial_seed=11)
    f, planted, opt = make_instance(spec)
    assert np.array_equal(f.values, planted.to_truth_table().values)
    assert opt.opt == 0
    assert distance_exact(f, opt.witness) == 0


def test_iid_instance_flip_count_tracks_rate():
    spec = resolve_instance(
        InstanceSpec(n=10, k=2, corruption=Corruption(kind="iid", rate=0.3)), 21
    )
    f, planted, opt = make_instance(spec)
    flips = int(np.sum(f.values != planted.to_truth_table().values))
    mean, sigma = 1024 * 0.3, (1024 * 0.3 * 0.7) ** 0.5
    assert abs(flips - mean) < 5 * sigma
    # the planted junta is always available at distance flips / 2^n
    assert opt.opt <= Fraction(flips, 1024)


def test_planted_instance_flips_exactly_inside_the_adversary_region():
    spec = resolve_instance(
        InstanceSpec(n=8, k=2, corruption=Corruption(kind="planted", fraction=0.25)),
        trial_seed=3,
    )
    f, planted, _ = make_instance(spec)
    from junta_walk.functions import random_junta

    adversary = random_junta(
        spec.n, spec.k, np.random.default_rng(spec.corruption.adversary_seed)
    )
    region = adversary.label_bits(np.arange(256, dtype=np.uint64)) == -1
    assert region.any(), "seed must give the adversary a nonempty -1 region"
    flipped = f.values != planted.to_truth_table().values
    assert not flipped[~region].any()
    assert int(flipped.sum()) == round(0.25 * int(region.sum()))


def test_whole_cube_reads_never_label_a_junta_at_packed_points(monkeypatch):
    # the planted region and the exact distance read a junta's table
    # broadcast over the cube; packed-point labels are for walk points only
    spec = resolve_instance(
        InstanceSpec(n=8, k=2, corruption=Corruption(kind="planted", fraction=0.25)),
        trial_seed=3,
    )
    f, planted, opt = make_instance(spec)

    def refuse(self, bits):
        raise AssertionError("a junta was labeled at packed points")

    monkeypatch.setattr(JuntaHypothesis, "label_bits", refuse)
    again, _, _ = make_instance(spec)
    assert again.values.tobytes() == f.values.tobytes()
    assert distance_exact(f, planted) == distance_exact(f, planted.to_truth_table()) > 0
    assert distance_exact(f, planted) >= opt.opt


# ---------------------------------------------------------------------------
# Trial rows


fractions = st.one_of(
    st.none(),
    st.builds(
        Fraction,
        st.integers(min_value=-(2**12), max_value=2**12),
        st.integers(min_value=1, max_value=2**12),
    ),
)
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def _read_row(text):
    """Reference reader of a trials.csv row: each column's text back to its value."""

    def frac(s):
        return None if s == "nan" else Fraction(s)

    assert text[9] in ("0", "1")
    return (
        *(int(v) for v in text[0:3]),
        *(float(v) for v in text[3:6]),
        *(frac(v) for v in text[6:9]),
        text[9] == "1",
        int(text[10]),
        float(text[11]),
        int(text[12]),
    )


def _report(gamma, opt, delta_hf, excess, passed, trial_id=0, eps=0.25, delta=0.2,
            seed=9, wall_ms=1.5, walk_steps=100):
    return TrialReport(
        trial_id=trial_id,
        spec=InstanceSpec(n=12, k=3, corruption=Corruption(kind="iid", rate=gamma)),
        k=3,
        eps=eps,
        delta=delta,
        seed=seed,
        opt=opt,
        delta_hf=delta_hf,
        excess=excess,
        passed=passed,
        wall_ms=wall_ms,
        walk_steps=walk_steps,
    )


@given(
    trial_id=st.integers(min_value=0, max_value=10**6),
    eps=finite,
    delta=finite,
    gamma=st.floats(min_value=0.0, max_value=0.5),  # an iid rate
    opt=fractions,
    delta_hf=fractions,
    excess=fractions,
    passed=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    wall_ms=finite,
    walk_steps=st.integers(min_value=0, max_value=2**40),
)
def test_trial_row_text_round_trip(
    trial_id, eps, delta, gamma, opt, delta_hf, excess, passed, seed, wall_ms, walk_steps
):
    report = _report(
        gamma,
        opt,
        delta_hf,
        excess,
        passed,
        trial_id=trial_id,
        eps=eps,
        delta=delta,
        seed=seed,
        wall_ms=wall_ms,
        walk_steps=walk_steps,
    )
    want = (
        trial_id, 12, 3, eps, delta, gamma, opt, delta_hf, excess, passed, seed,
        wall_ms, walk_steps,
    )
    text = report.to_csv()
    assert len(text) == len(CSV_COLUMNS)
    assert _read_row(text) == want

    buf = io.StringIO()
    csv.writer(buf).writerow(text)
    (read,) = csv.reader(io.StringIO(buf.getvalue()))
    assert read == text


def test_trial_row_none_prints_as_nan():
    text = _report(0.0, None, None, None, False).to_csv()
    assert text[6] == text[7] == text[8] == "nan"
    assert text[9] == "0"


# ---------------------------------------------------------------------------
# Single trials


def test_run_trial_noiseless_and_reproducible():
    spec = InstanceSpec(n=6, k=2)
    params = small_params(2)
    first = run_trial(spec, params, trial_seed=77, trial_id=5)
    again = run_trial(spec, params, trial_seed=77, trial_id=5)

    assert first.trial_id == 5
    assert first.spec.junta_seed is not None  # report carries the resolved spec
    assert first.opt == 0
    assert first.delta_hf == first.excess
    assert first.passed == (first.excess <= Fraction(params.epsilon))
    assert first.error is None
    assert first.walk_steps > 0

    assert again.delta_hf == first.delta_hf
    assert again.excess == first.excess
    assert again.walk_steps == first.walk_steps
    assert again.pool == first.pool
    assert again.hypothesis.J == first.hypothesis.J
    assert np.array_equal(again.hypothesis.table, first.hypothesis.table)


def test_run_trial_scores_against_the_learn_k():
    # a 2-junta instance learned as a 1-junta: opt and excess are over
    # 1-juntas, the class the learner searched, not over the instance's k
    spec = InstanceSpec(n=8, k=2, corruption=Corruption(kind="iid", rate=0.1))
    report = run_trial(spec, default_learn_params(8, 1, 0.2, 0.2), trial_seed=1)
    f, _, _ = make_instance(report.spec)
    assert report.opt == exact_opt(f, 1).opt == Fraction(75, 256)
    assert report.delta_hf == Fraction(75, 256)
    assert report.excess == 0 and report.passed
    row = _read_row(report.to_csv())
    assert row[6] == report.opt and row[8] == 0


def test_run_trial_row_matches_report():
    report = run_trial(InstanceSpec(n=5, k=1), small_params(1), trial_seed=2)
    row = _read_row(report.to_csv())
    assert row[1:3] == (5, 1)
    assert row[6] == report.opt and row[8] == report.excess
    assert row[5] == 0.0
    json.dumps(report.to_dict())  # must already be JSON-clean


# ---------------------------------------------------------------------------
# Experiment configs


def test_experiment_config_rejects_zero_repetitions():
    with pytest.raises(ValueError, match="repetitions"):
        ExperimentConfig(cells=(), repetitions=0)


def test_trial_seed_is_deterministic_and_collision_free():
    config = ExperimentConfig(cells=(), repetitions=4, master_seed=9)
    seeds = [config.trial_seed(ci, rep) for ci in range(5) for rep in range(4)]
    assert seeds == [config.trial_seed(ci, rep) for ci in range(5) for rep in range(4)]
    assert len(set(seeds)) == len(seeds)
    other = ExperimentConfig(cells=(), repetitions=4, master_seed=10)
    assert other.trial_seed(0, 0) != config.trial_seed(0, 0)


def test_config_json_round_trip_practical_and_certified():
    practical = Cell(
        instance=InstanceSpec(n=8, k=2, corruption=Corruption(kind="iid", rate=0.1)),
        learn=small_params(2, screen=50_000, sample=DEFAULT_ERM_SAMPLE),
    )
    certified = Cell(
        instance=InstanceSpec(n=4, k=1),
        learn=LearnParams(1, 0.3, 0.2),
    )
    erm_only = Cell(
        instance=InstanceSpec(n=6, k=2),
        learn=replace(default_learn_params(6, 2, 0.25, 0.2), erm_sample=5000),
    )
    sized = Cell(
        instance=InstanceSpec(n=9, k=2),
        learn=LearnParams(2, 0.25, 0.2, screen_pairs=1000, erm_sample=DEFAULT_ERM_SAMPLE),
    )
    cells = (practical, certified, erm_only, sized)
    config = ExperimentConfig(cells=cells, repetitions=2, master_seed=31)
    # each cell's learn object in full, bare, or with one budget and the defaults
    learn = [
        {"k": 2, "epsilon": 0.25, "delta": 0.2, "mode": "practical",
         "screen_pairs": 50_000, "erm_sample": DEFAULT_ERM_SAMPLE},
        {"epsilon": 0.3, "mode": "certified"},
        {"erm_sample": 5000},
        {"k": 2, "screen_pairs": 1000},
    ]
    written = [{"instance": c.instance.to_dict(), "learn": ld} for c, ld in zip(cells, learn)]
    text = json.dumps({"master_seed": 31, "repetitions": 2, "cells": written})
    restored = ExperimentConfig.from_json(text)
    assert restored == config
    assert [c.learn.mode for c in restored.cells] == [
        "practical", "certified", "practical", "practical"
    ]


def test_config_learn_keys_are_the_learn_params_fields():
    # from_json reads each LearnParams field from the learn key of its name
    # and refuses any key but those and "mode": a key LearnParams does not
    # hold would be a dead knob
    values = {"k": 2, "epsilon": 0.3, "delta": 0.1, "screen_pairs": 1000, "erm_sample": 500}
    assert set(values) == {f.name for f in fields(LearnParams)}
    text = _config_text(learn={**values, "mode": "practical"})
    assert ExperimentConfig.from_json(text).cells[0].learn == LearnParams(**values)
    with pytest.raises(ValueError, match="unknown key 'lag'"):
        ExperimentConfig.from_json(_config_text(learn={**values, "lag": 25}))


def test_config_erm_sample_cell_is_practical_with_or_without_mode():
    # both cells are practical as a whole: default sieve budgets, 5000 ERM steps
    bare, named = (
        ExperimentConfig.from_json(_config_text(learn=learn)).cells[0]
        for learn in ({"erm_sample": 5000}, {"mode": "practical", "erm_sample": 5000})
    )
    assert bare == named
    assert named.learn == replace(default_learn_params(6, 2, 0.25, 0.2), erm_sample=5000)
    for cell in (bare, named):
        report = run_trial(cell.instance, cell.learn, trial_seed=5)
        assert report.error is None and report.erm_sample == 5000


def test_config_budget_keys_override_the_defaults():
    default = default_learn_params(6, 2, 0.25, 0.2)
    (cell,) = ExperimentConfig.from_json(_config_text(learn={"screen_pairs": 1000})).cells
    assert cell.learn == replace(default, screen_pairs=1000)


def test_config_from_json_rejects_unknown_mode():
    text = '{"cells": [{"instance": {"n": 6, "k": 2}, "learn": {"mode": "exact"}}]}'
    with pytest.raises(ValueError, match="exact"):
        ExperimentConfig.from_json(text)


def test_config_from_json_fills_defaults():
    config = ExperimentConfig.from_json('{"cells": [{"instance": {"n": 6, "k": 2}}]}')
    assert config.repetitions == 1 and config.master_seed == 0
    (cell,) = config.cells
    assert cell.learn.k == 2
    assert cell.learn.mode == "practical"  # defaults are the practical preset


def _config_text(instance=None, learn=None, **top):
    cell = {"instance": instance or {"n": 6, "k": 2}}
    if learn is not None:
        cell["learn"] = learn
    return json.dumps({"cells": [cell], **top})


_PRACTICAL = {"screen_pairs": 1000, "erm_sample": 100}


@pytest.mark.parametrize(
    "text, key",
    [
        pytest.param(json.dumps({"cels": []}), "cels", id="config"),
        pytest.param(
            json.dumps({"cells": [{"instance": {"n": 6, "k": 2}, "lern": {}}]}),
            "lern",
            id="cell",
        ),
        pytest.param(
            _config_text(instance={"n": 6, "k": 2, "corrupton": {"kind": "iid"}}),
            "corrupton",
            id="instance",
        ),
        pytest.param(
            _config_text(instance={"n": 6, "k": 2, "corruption": {"rat": 0.1}}),
            "rat",
            id="corruption",
        ),
        pytest.param(
            _config_text(learn={"erm_samples": 5000}), "erm_samples", id="learn"
        ),
        pytest.param(
            _config_text(learn={"mode": "certified", **_PRACTICAL}),
            "screen_pairs",
            id="certified-sieve-budget",
        ),
        pytest.param(
            _config_text(learn={"mode": "certified", "erm_sample": 5000}),
            "erm_sample",
            id="certified-erm-sample",
        ),
        # a practical learner never estimates, so the lag samples' block
        # count, lag and gap are not config keys
        pytest.param(
            _config_text(learn={"lag": 7, "erm_sample": 5000}),
            "lag",
            id="retired-lag",
        ),
        pytest.param(
            _config_text(learn={**_PRACTICAL, "lag": 7}),
            "lag",
            id="lag-beside-explicit-sizes",
        ),
        pytest.param(
            _config_text(learn={**_PRACTICAL, "gap_steps": 6}),
            "gap_steps",
            id="retired-gap-steps",
        ),
        pytest.param(
            _config_text(learn={**_PRACTICAL, "estimate_blocks": 100}),
            "estimate_blocks",
            id="retired-estimate-blocks",
        ),
        # a learn object as configs were written while practical budgets carried
        # the estimator's sizes (lag 25 and gap 5 at n = 6, level 2)
        pytest.param(
            _config_text(
                learn={
                    "k": 2,
                    "epsilon": 0.25,
                    "delta": 0.2,
                    "mode": "practical",
                    "screen_pairs": 300_000,
                    "estimate_blocks": 20_000,
                    "lag": 25,
                    "gap_steps": 5,
                    "erm_sample": 40_000,
                }
            ),
            "estimate_blocks",
            id="old-to-json-learn-object",
        ),
        # every trial of such a cell would fail at run time
        pytest.param(
            _config_text(instance={"n": 3, "k": 2}, learn={"k": 5}),
            "k",
            id="learn-k-above-n",
        ),
        pytest.param(
            _config_text(instance={"n": 3, "k": 2}, learn={"k": 5, "mode": "certified"}),
            "k",
            id="certified-learn-k-above-n",
        ),
    ],
)
def test_config_from_json_refuses_keys_it_would_drop(text, key):
    with pytest.raises(ValueError, match=f"'{key}'"):
        ExperimentConfig.from_json(text)


@pytest.mark.parametrize(
    "text, field",
    [
        (_config_text(instance={"n": 6, "k": 2, "junta_seed": -5}), "junta_seed=-5"),
        (_config_text(instance={"n": 6, "k": 2, "instance_seed": -1}), "instance_seed=-1"),
        (
            _config_text(
                instance={"n": 6, "k": 2, "corruption": {"kind": "planted", "adversary_seed": -2}}
            ),
            "adversary_seed=-2",
        ),
        (_config_text(master_seed=-1), "master_seed=-1"),
    ],
    ids=["junta", "instance", "adversary", "master"],
)
def test_config_from_json_refuses_negative_seeds_by_name(text, field):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig.from_json(text)


def test_config_from_json_names_a_refused_budget():
    with pytest.raises(ValueError, match="screen_pairs=0"):
        ExperimentConfig.from_json(_config_text(learn={"screen_pairs": 0}))


def test_default_learn_params_budgets():
    params = default_learn_params(12, 3, 0.25, 0.2)
    assert params.mode == "practical"
    assert params.screen_pairs == 300_000
    assert params.erm_sample == 40_000
    with pytest.raises(ValueError, match="k=5 exceeds dimension n=3"):
        default_learn_params(3, 5, 0.25, 0.2)


def test_default_battery_shape():
    battery = default_battery()
    assert len(battery.cells) == 18
    assert battery.repetitions == 3
    assert sorted({c.instance.n for c in battery.cells}) == [8, 12, 16]
    assert sorted({c.learn.k for c in battery.cells}) == [1, 2, 3]
    assert sorted({c.learn.epsilon for c in battery.cells}) == [0.2, 0.3]
    assert all(c.instance.corruption == Corruption(kind="iid", rate=0.1) for c in battery.cells)
    assert all(c.instance.k == c.learn.k for c in battery.cells)


# ---------------------------------------------------------------------------
# Suites


def tiny_config():
    cells = (
        Cell(instance=InstanceSpec(n=5, k=1), learn=small_params(1, screen=10_000, sample=4_000)),
        Cell(
            instance=InstanceSpec(n=6, k=2, corruption=Corruption(kind="iid", rate=0.05)),
            learn=small_params(2, screen=10_000, sample=4_000),
        ),
    )
    return ExperimentConfig(cells=cells, repetitions=2, master_seed=17)


def test_run_suite_writes_matching_artifacts(tmp_path):
    result = run_suite(tiny_config(), tmp_path / "out")
    assert len(result.reports) == 4
    assert [r.trial_id for r in result.reports] == [0, 1, 2, 3]

    with open(result.csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 5
    for text, report in zip(rows[1:], result.reports):
        assert text == report.to_csv()

    with open(result.json_path) as fh:
        dumped = json.load(fh)
    assert [d["trial_id"] for d in dumped] == [0, 1, 2, 3]

    with open(result.summary_path) as fh:
        summary = json.load(fh)
    assert summary == result.summary
    assert summary["trials"] == 4
    assert len(summary["cells"]) == 2
    assert summary["cells"][0]["repetitions"] == 2
    assert [c["mode"] for c in summary["cells"]] == ["practical", "practical"]
    assert {"excess_vs_gamma", "pass_rate_vs_eps"} <= set(summary["series"])


def _timed_report(trial_id, wall_ms):
    return TrialReport(
        trial_id=trial_id,
        spec=InstanceSpec(n=5, k=1),
        k=1,
        eps=0.25,
        delta=0.2,
        seed=0,
        opt=None,
        delta_hf=None,
        excess=None,
        passed=False,
        wall_ms=wall_ms,
        walk_steps=0,
    )


def test_summary_median_wall_is_the_median():
    # two repetitions report the mean of their wall times, not the larger one
    cell = tiny_config().cells[0]
    for walls, median in (((10.0, 30.0), 20.0), ((50.0, 10.0, 30.0), 30.0)):
        config = ExperimentConfig(cells=(cell,), repetitions=len(walls))
        reports = [_timed_report(i, w) for i, w in enumerate(walls)]
        (summary,) = _summarize(config, reports)["cells"]
        assert summary["median_wall_ms"] == median


def test_run_suite_warns_once_per_call_about_practical_cells(tmp_path, caplog):
    with caplog.at_level("WARNING", logger="junta_walk"):
        run_suite(tiny_config(), tmp_path / "first")
        run_suite(tiny_config(), tmp_path / "second")
    warnings = [r.getMessage() for r in caplog.records if "not certified" in r.getMessage()]
    assert len(warnings) == 2
    assert all(w.startswith("2 of 2 cells run at practical sizes") for w in warnings)


def test_any_trial_replays_alone_bit_for_bit(tmp_path):
    # a trial is a function of (master seed, cell, repetition) alone, so each
    # one run by itself, in reverse order, reproduces the suite's row
    config = tiny_config()
    suite = run_suite(config, tmp_path / "suite")
    wall = CSV_COLUMNS.index("wall_ms")

    def stable(report):
        row = report.to_csv()
        del row[wall]  # wall time is the one legitimately noisy column
        return row

    for trial_id in reversed(range(len(suite.reports))):
        ci, rep = divmod(trial_id, config.repetitions)
        cell = config.cells[ci]
        alone = run_trial(cell.instance, cell.learn, config.trial_seed(ci, rep), trial_id)
        assert stable(alone) == stable(suite.reports[trial_id])


_BLAS_SNIPPET = """
import hashlib
import numpy as np
from junta_walk.fourier import Spectrum, wht
from junta_walk.functions import random_table
from junta_walk.harness import Corruption, InstanceSpec, default_learn_params, run_trial

f = random_table(20, np.random.default_rng(41))
report = run_trial(
    InstanceSpec(n=16, k=3, corruption=Corruption(kind="iid", rate=0.1)),
    default_learn_params(16, 3, 0.25, 0.1),
    trial_seed=42,
)
h = report.hypothesis
for part in (
    wht(f.values).tobytes(),
    Spectrum.from_table(f).coeffs.tobytes(),
    repr((h.J.mask, h.table.tobytes(), report.pool, report.walk_steps)).encode(),
    repr((report.opt, report.delta_hf, report.disagreements)).encode(),
):
    print(hashlib.sha256(part).hexdigest())
"""


def test_transforms_and_trials_are_blas_thread_invariant():
    # the exact transforms run as BLAS products; no thread count may change them
    src = str(Path(junta_walk.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        run = subprocess.run(
            [sys.executable, "-c", _BLAS_SNIPPET],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.split())
    assert len(digests[0]) == 4
    assert digests[0] == digests[1]


def test_run_suite_survives_a_failing_trial(tmp_path, caplog):
    bad = Cell(
        instance=InstanceSpec(n=2, k=1),
        learn=LearnParams(3, 0.25, 0.2),  # k exceeds the instance dimension
    )
    config = ExperimentConfig(cells=(bad,), repetitions=1, master_seed=0)
    with caplog.at_level("ERROR", logger="junta_walk.harness"):
        result = run_suite(config, tmp_path / "bad")
    (report,) = result.reports
    assert report.error is not None
    assert not report.passed
    assert report.excess is None
    assert "failed" in caplog.text
    with open(result.csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][6] == "nan"  # opt column of the failed trial
