"""Smoke test: every script under scripts/ runs end to end at tiny sizes."""

import importlib.util
import json
import logging
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(name, argv):
    module = _load(name)
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    try:
        assert module.main(argv) == 0
    finally:  # the scripts configure the root logger for a command-line run
        root.handlers[:], root.level = handlers, level


def test_runtime_scaling(tmp_path):
    out = tmp_path / "scaling.json"
    _run("runtime_scaling", ["--ns", "6", "8", "--trials", "2", "--out", str(out)])
    rows = json.loads(out.read_text())["rows"]
    assert [row["n"] for row in rows] == [6, 8]
    assert all(row["median_walk_steps"] > 0 for row in rows)
    # two trials report the mean of their wall times, not the larger one
    for row in rows:
        assert row["median_wall_ms"] == (row["min_wall_ms"] + row["max_wall_ms"]) / 2


@pytest.mark.parametrize(
    "argv, problem",
    [
        (["--ns", "6"], "two distinct values of n"),
        (["--ns", "6", "6", "--trials", "1"], "two distinct values of n"),
        (["--ns", "6", "8", "--trials", "0"], "--trials 0"),
    ],
)
def test_runtime_scaling_refuses_a_slope_it_cannot_fit(argv, problem, capsys):
    # refused before any trial runs: one n, or no trial, has no slope
    with pytest.raises(SystemExit) as exit_info:
        _load("runtime_scaling").main(argv)
    assert exit_info.value.code == 2
    assert problem in capsys.readouterr().err


def test_run_default_battery(tmp_path, capsys):
    _run("run_default_battery", ["--repetitions", "1", "--out-dir", str(tmp_path)])
    printed = json.loads(capsys.readouterr().out)
    assert printed["trials"] == 18
    for key in ("csv", "json", "summary"):
        assert Path(printed[key]).is_file()


def test_screen_noise(capsys):
    _run("screen_noise", ["--seeds", "0", "2", "--cells", "8:1", "6:2", "--pairs", "2000"])
    printed = json.loads(capsys.readouterr().out)
    assert printed["seeds"] == [0, 2]
    pool = printed["pool_test"]
    assert pool["runs"] == 2 and pool["strays"] == len(pool["stray_seeds"]) <= 2
    assert [(cell["n"], cell["k"]) for cell in printed["cells"]] == [(8, 1), (6, 2)]
    for cell in printed["cells"]:
        assert cell["irrelevant"] == cell["n"] - cell["k"]
        ratios = [cell[f"sd_over_sigma_{name}"] for name in ("min", "median", "max")]
        assert ratios == sorted(ratios)
        assert cell["pooled"] > 0 and cell["max_abs_z"] >= 0
