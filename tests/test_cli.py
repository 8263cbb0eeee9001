"""End-to-end checks of every ``junta-walk`` subcommand through ``main``."""

import csv
import hashlib
import json
import logging
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from junta_walk import cli
from junta_walk.functions import and_table, parity_table
from junta_walk.harness import (
    Cell,
    Corruption,
    ExperimentConfig,
    InstanceSpec,
)
from junta_walk.hypercube import TruthTable
from junta_walk.learner import LearnParams


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
    # a certified run estimates, so its stdout is the one recorded before the
    # learner could skip estimation (26 033 966 walk steps, erm_sample 12 559)
    assert obj["walk_steps"] == 26_033_966
    # the run's mode is the one line added to that record
    assert obj["mode"] == "certified"
    recorded = out.replace('  "mode": "certified",\n', "")
    digest = hashlib.sha256(recorded.encode()).hexdigest()
    assert digest == "fb08ecc5f393420d8d673b0ddd62be40dee8e875a5b01ae63e4091f4f1899263"


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


def test_sieve_prints_strict_json(tmp_path, capsys):
    # at n <= level nothing is screened, so every influence is +inf in memory
    inst = write_instance(tmp_path / "and.json", and_table(2, [1, 2]))
    code, out = run(
        capsys,
        "sieve", "--instance", str(inst),
        "--theta", "0.2", "--level", "2", "--delta", "0.1",
        "--screen-pairs", "100", "--estimate-blocks", "2000",
    )
    assert code == 0

    def reject(name):
        raise AssertionError(f"non-JSON constant {name} in sieve output")

    obj = json.loads(out, parse_constant=reject)
    assert obj["influences"] == [None, None]
    assert obj["pool"] == [1, 2]


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
    assert screened["walk_steps"] < full["walk_steps"]
    assert cli.main([*argv, "-1"]) == 2
    assert "estimate_blocks=-1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# wht / opt


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
    stub = SimpleNamespace(all_pass=False, to_json=lambda: '{"all_pass": false}')
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
    config = ExperimentConfig(
        cells=(
            Cell(
                instance=InstanceSpec(n=5, k=1),
                learn=LearnParams(1, 0.25, 0.2, screen_pairs=10_000, erm_sample=4_000),
            ),
        ),
        repetitions=2,
        master_seed=8,
    )
    path = tmp_path / "config.json"
    path.write_text(config.to_json())
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
