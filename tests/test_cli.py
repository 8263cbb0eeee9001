"""End-to-end checks of every ``junta-walk`` subcommand through ``main``."""

import csv
import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from junta_walk import cli
from junta_walk.functions import and_table, flip_labels_iid, parity_table
from junta_walk.harness import Corruption, InstanceSpec
from junta_walk.hypercube import TruthTable
from junta_walk.sieve import SieveBudgets


def write_instance(path, table: TruthTable) -> str:
    path.write_text(json.dumps({"n": table.n, "values": [int(v) for v in table.values]}))
    return str(path)


def run(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_instance_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(InstanceSpec(n=6, k=2).to_dict()))
    out = tmp_path / "instance.json"
    code, _ = run(capsys, "gen", "--spec", str(spec), "--out", str(out), "--seed", "3")
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["n"] == 6
    assert sorted(set(obj["values"])) == [-1, 1]
    assert len(obj["values"]) == 64
    assert obj["opt"] == "0"  # noiseless instance sits on its planted junta
    assert obj["spec"]["junta_seed"] is not None


def test_gen_prints_to_stdout(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            InstanceSpec(
                n=5, k=1, corruption=Corruption(kind="iid", rate=0.1)
            ).to_dict()
        )
    )
    code, out = run(capsys, "gen", "--spec", str(spec))
    assert code == 0
    obj = json.loads(out)
    assert obj["spec"]["corruption"]["kind"] == "iid"


def test_gen_same_seed_reproduces(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(InstanceSpec(n=4, k=2).to_dict()))
    _, first = run(capsys, "gen", "--spec", str(spec), "--seed", "9")
    _, second = run(capsys, "gen", "--spec", str(spec), "--seed", "9")
    assert json.loads(first) == json.loads(second)


# ---------------------------------------------------------------------------
# learn


def practical_warnings(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if "not certified" in r.getMessage()]


def test_learn_recovers_generated_instance(tmp_path, capsys, caplog):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(InstanceSpec(n=6, k=2).to_dict()))
    inst = tmp_path / "instance.json"
    run(capsys, "gen", "--spec", str(spec), "--out", str(inst), "--seed", "4")
    out = tmp_path / "learn.json"
    with caplog.at_level(logging.WARNING):
        code, _ = run(
            capsys,
            "learn", "--instance", str(inst),
            "-k", "2", "--eps", "0.25", "--delta", "0.2",
            "--seed", "1", "--out", str(out),
        )
    assert code == 0
    # the stock budgets are practical, and the entry point says so once
    (warning,) = practical_warnings(caplog)
    assert "erm_sample=40000" in warning
    obj = json.loads(out.read_text())
    assert obj["passed"] is True
    assert obj["opt"] == "0"
    assert obj["excess"] == obj["delta_hf"]
    assert set(obj["hypothesis"]["J"]) <= set(obj["pool"])
    assert obj["walk_steps"] > 0
    assert obj["instance_spec"] == json.loads(inst.read_text())["spec"]


def test_learn_certified_flag_on_tiny_instance(tmp_path, capsys, caplog):
    inst = write_instance(tmp_path / "dictator.json", parity_table(2, [1]))
    with caplog.at_level(logging.WARNING):
        code, out = run(
            capsys,
            "learn", "--instance", str(inst),
            "-k", "1", "--eps", "0.4", "--delta", "0.3", "--certified",
        )
    assert code == 0
    assert practical_warnings(caplog) == []
    obj = json.loads(out)
    assert obj["excess"] == "0"
    assert obj["hypothesis"]["J"] == [1]
    # an unscreened certified run pools [n] and draws only its ERM walk
    assert obj["pool"] == [1, 2]
    assert (obj["erm_sample"], obj["walk_steps"]) == (15_549, 15_548)
    # the run's mode was added to that record; a file without a recipe
    # reports none, so the record is hashed without those two fields
    assert obj["mode"] == "certified"
    assert obj["instance_spec"] is None
    recorded = json.dumps(
        {key: v for key, v in obj.items() if key not in ("mode", "instance_spec")}, indent=2
    )
    digest = hashlib.sha256(recorded.encode()).hexdigest()
    assert digest == "35984361786397e1d8d3f1657786d0dbeecb9ecdfaa1af8e99086230be323372"


# ru_maxrss survives exec, so a learn spawned by the test process would
# start at the test process's size; a small process spawns it instead and
# reads its peak from RUSAGE_CHILDREN
_PEAK_SNIPPET = """
import resource, subprocess, sys
learn = "import sys; from junta_walk import cli; sys.exit(cli.main(sys.argv[1:]))"
code = subprocess.run([sys.executable, "-c", learn, *sys.argv[1:]]).returncode
maxrss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(f"exit={code} maxrss={maxrss}", file=sys.stderr)
"""


def test_learn_certified_peaks_under_100_mib(tmp_path):
    # a certified learn that screens: 26 804 422 walk steps, nearly all of
    # them the screen's harvest, which holds a chunk at a time, not the walk
    noisy = flip_labels_iid(parity_table(8, [1]), 0.1, np.random.default_rng(8))
    inst = write_instance(tmp_path / "noisy_dictator.json", noisy)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    argv = ["learn", "--instance", inst, "-k", "1", "--eps", "0.5", "--delta", "0.2"]
    run = subprocess.run(
        [sys.executable, "-c", _PEAK_SNIPPET, *argv, "--certified"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["walk_steps"] == 26_804_422
    code, maxrss = re.search(r"exit=(\d+) maxrss=(\d+)", run.stderr).groups()
    # ru_maxrss is in bytes on macOS and in KiB elsewhere
    peak_mib = int(maxrss) / (1 << 20 if sys.platform == "darwin" else 1 << 10)
    assert code == "0" and peak_mib < 100


def test_learn_refuses_a_table_past_the_exact_opt_cap_before_walking(
    tmp_path, capsys, monkeypatch
):
    # exact opt is scored first, so its cap is the one named, and no walk is drawn
    inst = write_instance(tmp_path / "wide.json", parity_table(17, [1]))

    def no_walk(*args, **kwargs):
        raise AssertionError("a walk oracle was built")

    monkeypatch.setattr(cli, "RandomWalkOracle", no_walk)
    code = cli.main(["learn", "--instance", inst, "-k", "1", "--eps", "0.4", "--delta", "0.3"])
    assert code == 2
    assert "n=17 exceeds the exact-opt cap 16" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sieve


def test_sieve_finds_parity_support(tmp_path, capsys, caplog):
    inst = write_instance(tmp_path / "parity.json", parity_table(6, [2, 5]))
    with caplog.at_level(logging.WARNING):
        code, out = run(
            capsys,
            "sieve", "--instance", str(inst),
            "--theta", "0.5", "--level", "2", "--delta", "0.1",
            "--screen-pairs", "20000", "--estimate-blocks", "4000",
        )
    assert code == 0
    (warning,) = practical_warnings(caplog)  # explicit budgets are practical
    assert "screen_pairs=20000" in warning
    obj = json.loads(out)
    assert obj["sets"] == [[2, 5]]
    assert obj["pool"] == [2, 5]


def test_run_mode_follows_who_chose_the_budgets(tmp_path, capsys):
    # a sieve run is certified exactly when the command leaves its budgets
    # to certified_budgets; neither the result nor the budgets carry a mode,
    # so the command appends it as the record's last key
    inst = write_instance(tmp_path / "dictator.json", parity_table(6, [1]))
    argv = ["sieve", "--instance", inst, "--theta", "0.5", "--level", "1", "--delta", "0.1"]
    for budgets, mode in (
        ([], "certified"),
        (["--screen-pairs", "500", "--estimate-blocks", "200"], "practical"),
    ):
        code, out = run(capsys, *argv, "--seed", "12", *budgets)
        assert code == 0
        obj = json.loads(out)
        assert list(obj)[-1] == "mode" and obj["mode"] == mode
    with pytest.raises(TypeError):
        SieveBudgets(screen_pairs=10, estimate_blocks=5, lag=2, gap_steps=3, mode="certified")


def _reject(name):
    raise AssertionError(f"non-JSON constant {name} in the output")


@pytest.mark.parametrize("command", ["gen", "learn", "sieve", "opt", "verify-lemma", "fixtures"])
def test_json_commands_print_strict_json(tmp_path, capsys, command):
    inst = write_instance(tmp_path / "and.json", and_table(2, [1, 2]))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 2, "k": 1}))
    argv = {
        "gen": ["--spec", str(spec)],
        "learn": ["--instance", inst, "-k", "1", "--eps", "0.4", "--delta", "0.3"],
        "sieve": ["--instance", inst, "--theta", "0.2", "--level", "2", "--delta", "0.1",
                  "--screen-pairs", "100", "--estimate-blocks", "2000"],
        "opt": ["--instance", inst, "-k", "1", "--per-set"],
        "verify-lemma": ["--instance", inst, "-k", "1", "--eps", "0.3"],
        "fixtures": ["-k", "2"],
    }[command]
    code, out = run(capsys, command, *argv)
    assert code == 0
    assert out.startswith("{\n  ")  # indented like every JSON command
    obj = json.loads(out, parse_constant=_reject)
    if command == "sieve":
        # at n <= level nothing is screened, so every influence is +inf in memory
        assert obj["influences"] == [None, None]
        assert obj["pool"] == [1, 2]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_json_refuses_non_finite_numbers(tmp_path, capsys, value):
    out = tmp_path / "out.json"
    for target in (None, str(out)):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._write_json({"x": [value]}, target)
    assert capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "learn", "sieve"])
def test_negative_seed_is_refused_before_any_work(tmp_path, capsys, caplog, command):
    inst = write_instance(tmp_path / "parity.json", parity_table(4, [1]))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 4, "k": 1}))
    argv = {
        "gen": ["--spec", str(spec)],
        "learn": ["--instance", inst, "-k", "1", "--eps", "0.25", "--delta", "0.2"],
        "sieve": ["--instance", inst, "--theta", "0.5", "--level", "1", "--delta", "0.1",
                  "--screen-pairs", "1000", "--estimate-blocks", "100"],
    }[command]
    with caplog.at_level(logging.WARNING):
        code = cli.main([command, *argv, "--seed", "-1"])
    assert code == 2
    assert "seed=-1 must be >= 0" in capsys.readouterr().err
    assert practical_warnings(caplog) == []


def test_sieve_requires_both_budget_flags(tmp_path, capsys):
    inst = write_instance(tmp_path / "parity.json", parity_table(4, [1]))
    code = cli.main(
        ["sieve", "--instance", inst, "--theta", "0.5", "--level", "1",
         "--delta", "0.1", "--screen-pairs", "1000"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "go together" in err


def test_sieve_with_zero_estimate_blocks_prints_its_screen(tmp_path, capsys):
    inst = write_instance(tmp_path / "parity.json", parity_table(6, [2, 5]))
    argv = ["sieve", "--instance", inst, "--theta", "0.5", "--level", "2",
            "--delta", "0.1", "--screen-pairs", "20000", "--estimate-blocks"]
    code, out = run(capsys, *argv, "0")
    assert code == 0
    screened = json.loads(out)
    full = json.loads(run(capsys, *argv, "4000")[1])
    assert (screened["sets"], screened["estimates"]) == ([], [])
    assert screened["pool"] == full["pool"] == [2, 5]
    # the subsets phase two scores: {}, {2}, {5} and {2, 5}
    assert screened["candidates"] == full["candidates"] == 4
    # the full run's lag samples need fewer pairs than its screen, so they
    # are read off the screen's own harvest at no further step
    assert screened["walk_steps"] == full["walk_steps"]
    assert cli.main([*argv, "-1"]) == 2
    assert "estimate_blocks=-1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# wht / opt


def test_wht_prints_the_spectrum_rows(tmp_path, capsys):
    inst = write_instance(tmp_path / "parity.json", parity_table(3, [1, 3]))
    code, out = run(capsys, "wht", "--instance", inst)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mask,coords,coefficient"
    assert len(lines) == 9
    mask, coords, coeff = lines[6].split(",")  # mask 5 = {1, 3}
    assert (mask, coords) == ("5", "1|3")
    assert float(coeff) == pytest.approx(1.0)


def test_wht_csv_output(tmp_path, capsys):
    inst = write_instance(tmp_path / "and.json", and_table(2, [1, 2]))
    out = tmp_path / "spectrum.csv"
    code, _ = run(capsys, "wht", "--instance", str(inst), "--out", str(out))
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["mask", "coords", "coefficient"]
    assert len(rows) == 5
    assert rows[1] == ["0", "", "0.5"]
    assert rows[4] == ["3", "1|2", "-0.5"]


def test_opt_reports_witness_and_per_set(tmp_path, capsys):
    inst = write_instance(tmp_path / "and.json", and_table(2, [1, 2]))
    code, out = run(capsys, "opt", "--instance", str(inst), "-k", "1", "--per-set")
    assert code == 0
    obj = json.loads(out)
    assert obj["opt"] == "1/4"
    assert set(obj["per_set"]) == {"1", "2"}
    assert obj["per_set"]["1"] == "1/4"


# ---------------------------------------------------------------------------
# verify-lemma / fixtures


def test_verify_lemma_default_witness(tmp_path, capsys):
    inst = write_instance(tmp_path / "and.json", and_table(3, [1, 2]))
    code, out = run(
        capsys, "verify-lemma", "--instance", str(inst), "-k", "2", "--eps", "0.25"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["found"] is True
    assert obj["witnesses"]


def test_verify_lemma_explicit_g(tmp_path, capsys):
    inst = write_instance(tmp_path / "f.json", and_table(3, [1, 2]))
    g = write_instance(tmp_path / "g.json", and_table(3, [2, 3]))
    code, out = run(
        capsys,
        "verify-lemma", "--instance", str(inst), "-k", "2", "--eps", "0.25",
        "--g", str(g),
    )
    assert code == 0
    assert json.loads(out)["found"] is True


def test_verify_lemma_reports_failure(tmp_path, capsys, monkeypatch):
    inst = write_instance(tmp_path / "f.json", parity_table(3, [1]))
    monkeypatch.setattr(cli, "verify_spectrum_lemma", lambda *a, **kw: None)
    code, out = run(
        capsys, "verify-lemma", "--instance", str(inst), "-k", "1", "--eps", "0.1"
    )
    assert code == 1
    assert json.loads(out) == {"found": False, "k": 1, "eps": 0.1}


def test_fixtures_pass_and_report(capsys):
    code, out = run(capsys, "fixtures", "-k", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["k"] == 3
    assert all(obj["facts"].values())


def test_fixtures_exit_one_on_failure(capsys, monkeypatch):
    stub = SimpleNamespace(all_pass=False, to_dict=lambda: {"all_pass": False})
    monkeypatch.setattr(cli, "counterexample_fixtures", lambda k: stub)
    code, out = run(capsys, "fixtures", "-k", "2")
    assert code == 1
    assert json.loads(out)["all_pass"] is False


def test_fixtures_out_of_range(capsys):
    code = cli.main(["fixtures", "-k", "11"])
    assert code == 2
    assert "junta-walk:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# suite


def test_suite_runs_config_and_prints_paths(tmp_path, capsys):
    learn = {"k": 1, "epsilon": 0.25, "delta": 0.2, "screen_pairs": 10_000, "erm_sample": 4_000}
    cells = [{"instance": {"n": 5, "k": 1}, "learn": learn}]
    config = {"master_seed": 8, "repetitions": 2, "cells": cells}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "results"
    code, out = run(capsys, "suite", "--config", str(path), "--out-dir", str(out_dir))
    assert code == 0
    obj = json.loads(out)
    assert obj["trials"] == 2
    assert (out_dir / "trials.csv").exists()
    assert (out_dir / "summary.json").exists()


# ---------------------------------------------------------------------------
# error handling


def test_missing_instance_file_is_a_clean_error(tmp_path, capsys):
    code = cli.main(["wht", "--instance", str(tmp_path / "nope.json")])
    assert code == 2
    assert "junta-walk:" in capsys.readouterr().err


def test_malformed_instance_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli.main(["opt", "--instance", str(bad), "-k", "1"])
    assert code == 2
    assert "junta-walk:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, payload, key",
    [
        ("opt", {"values": [1, -1]}, "'n'"),
        ("gen", {"k": 1}, "'n'"),
        ("suite", {"cells": [{"learn": {"k": 1}}]}, "'instance'"),
        ("wht", [1, -1], "JSON object"),
        ("opt", {"n": None, "values": [1, -1]}, "'n'"),
        ("gen", {"n": 4, "k": 1, "corruption": "iid"}, "'corruption'"),
        ("suite", {"cells": [{"instance": {"n": 4, "k": 1}, "learn": [1]}]}, "'learn'"),
        ("gen", {"n": 4.5, "k": 1}, "'n'"),
        ("opt", {"n": 1, "values": [[1], [-1]]}, "values"),
        ("wht", {"n": 1, "values": [None, 1]}, "values"),
        ("wht", {"n": 1, "values": [1.5, -1]}, "values"),
    ],
)
def test_malformed_json_fields_are_clean_errors(tmp_path, capsys, command, payload, key):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    argv = {
        "opt": ["opt", "--instance", str(path), "-k", "1"],
        "gen": ["gen", "--spec", str(path)],
        "suite": ["suite", "--config", str(path), "--out-dir", str(tmp_path / "out")],
        "wht": ["wht", "--instance", str(path)],
    }[command]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("junta-walk:") and key in err
    assert "Traceback" not in err


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def test_console_script_is_registered(monkeypatch, capsys):
    """Installing the project registers ``junta-walk`` -> ``junta_walk.cli:main``.

    The declaration in ``pyproject.toml`` is checked directly, so this runs
    from a source checkout; installed metadata is checked as well when the
    distribution is installed, which catches a stale install.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    from importlib import metadata

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert declared.get("junta-walk") == "junta_walk.cli:main"

    ep = metadata.EntryPoint(
        name="junta-walk", value=declared["junta-walk"], group="console_scripts"
    )
    target = ep.load()
    assert target is cli.main

    # The generated wrapper runs ``sys.exit(main())``: no argv list, an int code.
    monkeypatch.setattr(sys, "argv", ["junta-walk", "fixtures", "-k", "1"])
    code = target()
    assert type(code) is int and code == 0
    assert json.loads(capsys.readouterr().out)["k"] == 1

    try:
        dist = metadata.distribution("junta-walk")
    except metadata.PackageNotFoundError:
        return
    installed = {e.name: e.value for e in dist.entry_points.select(group="console_scripts")}
    assert installed.get("junta-walk") == declared["junta-walk"]
