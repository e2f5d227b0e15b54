import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsl_lab
from qsl_lab.cli import main
from qsl_lab.coherence import affinity
from qsl_lab.dynamics import evolve_unitary
from qsl_lab.errors import IoError, ParseError, ValidationError
from qsl_lab.operator_core import random_observable, state_to_bloch
from qsl_lab.scenarios import (
    ResultTable,
    bundled_scenario,
    emit,
    markovian_curve,
    mixing_example_states,
    parse_scenario,
    run,
    run_reproduce,
)

CASE1 = {
    "name": "local-case1",
    "task": "bound",
    "states": {"rho1": {"bloch": [1.0, 0.0, 0.0]},
               "rho2": {"bloch": [-1.0, 0.0, 0.0]}},
    "generator": {"hamiltonian": {"n_hat": [0.0, 0.0, 1.0],
                                  "omega": 1.0, "alpha_phase": 1.0}},
    "time": np.pi / 2,
}

SRC = str(Path(qsl_lab.__file__).resolve().parents[1])


def write_scenario(tmp_path, payload, name="sc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_parse_bundled_case3():
    sc = parse_scenario(bundled_scenario("case3"))
    assert sc.name == "case3" and sc.task == "compare"
    assert set(sc.states) == {"rho1", "rho2"}
    assert sc.states["rho1"].dim == 2
    assert abs(sc.time - 1.1071487177940904) < 1e-15
    assert len(sc.digest) == 16
    # parsing is deterministic
    assert parse_scenario(bundled_scenario("case3")).digest == sc.digest


def test_parse_errors(tmp_path):
    with pytest.raises(ParseError):
        parse_scenario(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError, match="line 1"):
        parse_scenario(str(bad))


def test_schema_violation_reports_key_path(tmp_path):
    payload = dict(CASE1, task="frobnicate")
    with pytest.raises(ValidationError, match="task"):
        parse_scenario(write_scenario(tmp_path, payload))
    payload = dict(CASE1)
    payload["states"] = {"rho1": {"bloch": [1.0, 0.0]},
                         "rho2": {"bloch": [0.0, 0.0, 1.0]}}
    with pytest.raises(ValidationError, match="states.rho1.bloch"):
        parse_scenario(write_scenario(tmp_path, payload))


def test_bloch_norm_violation_names_the_state(tmp_path):
    payload = dict(CASE1)
    payload["states"] = {"rho1": {"bloch": [1.2, 0.0, 0.0]},
                         "rho2": {"bloch": [0.0, 0.0, 1.0]}}
    with pytest.raises(ValidationError, match="states.rho1"):
        parse_scenario(write_scenario(tmp_path, payload))


def test_dim_consistency_guard(tmp_path):
    payload = dict(CASE1)
    payload["states"] = {
        "rho1": {"random": {"dim": 3, "rank": 3, "seed": 1}},
        "rho2": {"random": {"dim": 3, "rank": 3, "seed": 2}},
    }
    with pytest.raises(ValidationError, match="generator"):
        parse_scenario(write_scenario(tmp_path, payload))


def test_run_bound_case1(tmp_path):
    table = run(parse_scenario(write_scenario(tmp_path, CASE1)))
    row = dict(zip(table.columns, table.rows[0]))
    assert abs(row["tl"] - np.pi / (2 * np.sqrt(2))) < 1e-9
    assert abs(row["actual_time"] - np.pi / 2) < 1e-6
    assert row["tl"] <= row["actual_time"] + 1e-8


def test_nan_alpha_grid_exits_with_error(tmp_path, capsys):
    # the JSON reader accepts NaN and the schema lets it through
    payload = dict(CASE1, options={"alpha_grid": [float("nan")]})
    path = write_scenario(tmp_path, payload)
    assert "NaN" in open(path).read()
    assert main(["bound", "--scenario", path]) == 1
    captured = capsys.readouterr()
    assert "alpha grid" in captured.err and "inf" not in captured.out


def _cmatrix(M):
    return [[[z.real, z.imag] for z in row] for row in M]


@pytest.mark.parametrize("case", ["bloch_qubit", "matrix_d3_rank2"])
def test_evolve_hamiltonian_matches_per_node(tmp_path, case):
    # no bundled scenario runs evolve under a Hamiltonian; every row is
    # checked against the per-node library calls
    if case == "bloch_qubit":
        payload = {"name": "evolve-bloch", "task": "evolve",
                   "states": {"rho0": {"bloch": [0.3, 0.2, 0.5]}},
                   "generator": {"hamiltonian": {"n_hat": [0.6, 0.0, 0.8], "omega": 1.3,
                                                 "alpha_phase": 0.4, "hbar": 0.7}},
                   "time": 3.0}
    else:
        payload = {"name": "evolve-d3", "task": "evolve",
                   "states": {"rho0": {"random": {"dim": 3, "rank": 2, "seed": 5}}},
                   "generator": {"hamiltonian": {
                       "matrix": _cmatrix(random_observable(3, 6).matrix)}},
                   "time": {"t_min": 0.2, "t_max": 4.0, "nodes": 17}}
    sc = parse_scenario(write_scenario(tmp_path, payload))
    table = run(sc)
    rho0, H = sc.states["rho0"], sc.generator
    qubit = rho0.dim == 2
    assert table.columns[:3] == ("t", "purity", "affinity_to_initial")
    assert len(table.columns) == (6 if qubit else 3)
    assert len(table.rows) == (51 if qubit else 17)
    for row in table.rows:
        rho_t = evolve_unitary(rho0, H, row[0])
        want = [rho_t.purity(), affinity(rho0, rho_t)]
        if qubit:
            want.extend(state_to_bloch(rho_t.matrix))
        assert np.abs(np.subtract(row[1:], want)).max() <= 1e-12


@pytest.mark.parametrize("missing", ["time", "generator"])
def test_evolve_missing_field_is_a_named_error(tmp_path, missing):
    # both scenarios are schema-valid; each ended in a raw traceback
    payload = {"name": "evolve-missing", "task": "evolve",
               "states": {"rho0": {"bloch": [0.3, 0.2, 0.5]}},
               "generator": {"hamiltonian": {"n_hat": [0.0, 0.0, 1.0]}},
               "time": 1.0}
    del payload[missing]
    path = write_scenario(tmp_path, payload)
    proc = subprocess.run([sys.executable, "-m", "qsl_lab.cli", "evolve", "--scenario", path],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and missing in lines[0]


def test_run_compare_case3():
    table = run(parse_scenario(bundled_scenario("case3")))
    vals = {name: v for name, v in table.rows}
    assert abs(vals["tl"] - 0.90) < 0.01
    assert abs(vals["affinity"] - 0.9107) < 5e-4
    assert vals["tl"] >= vals["mt_fidelity"] - 1e-10


def test_emit_csv_round_trip(tmp_path):
    table = ResultTable(columns=("a", "b", "flag"),
                        rows=[[1, 0.1 + 0.2, True], [2, -1.5, False]],
                        metadata={"k": "v"})
    out = tmp_path / "t.csv"
    emit(table, "csv", str(out))
    text = out.read_text()
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == "a,b,flag"
    assert lines[1].split(",") == ["1", repr(0.1 + 0.2), "true"]
    assert lines[2].endswith("false")


def test_emit_json_round_trip(tmp_path):
    table = ResultTable(columns=("x",), rows=[[np.float64(0.5)], [np.bool_(True)]],
                        metadata={"k": 1})
    out = tmp_path / "t.json"
    emit(table, "json", str(out))
    payload = json.loads(out.read_text())
    assert payload["columns"] == ["x"]
    assert payload["rows"] == [[0.5], [True]]
    assert payload["metadata"] == {"k": 1}
    with pytest.raises(IoError):
        emit(table, "yaml", str(out))


def test_emit_empty_table_header_only(tmp_path):
    out = tmp_path / "e.csv"
    emit(ResultTable(columns=("a", "b"), rows=[]), "csv", str(out))
    assert out.read_text() == "a,b\n"


def test_markovian_curve_metadata():
    table = markovian_curve(-0.9, np.linspace(0.1, 3.0, 10))
    assert table.metadata["lambda1"] == -0.9
    assert "crossover_tau" in table.metadata
    assert isinstance(table.metadata["exceeds_campo_at_end"], bool)
    assert table.columns == ("tau", "markovian_bound", "campo_style")


def test_mixing_example_geometry():
    rho1, rho2, H = mixing_example_states()
    from qsl_lab.operator_core import state_to_bloch
    r1 = state_to_bloch(rho1.matrix)
    r2 = state_to_bloch(rho2.matrix)
    assert abs(np.linalg.norm(r1) - 1) < 1e-12 and abs(np.linalg.norm(r2) - 1) < 1e-12
    assert abs(r1 @ r2 - np.cos(np.pi / 4 + np.pi / 6)) < 1e-12


def test_reproduce_suite_green():
    table = run_reproduce()
    failed = [r[0] for r in table.rows if not r[4]]
    assert not failed, f"reproduction failures: {failed}"
    assert table.metadata["all_passed"]


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    out = tmp_path / "case1.json"
    assert main(["bound", "--out", str(out)]) == 0
    assert out.read_text().startswith("tl,")

    assert main(["compare", "--format", "json", "--out", str(tmp_path / "c.json")]) == 0
    payload = json.loads((tmp_path / "c.json").read_text())
    assert payload["metadata"]["scenario"] == "case3"

    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["bound", "--scenario", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err

    # scenario task must match the subcommand
    assert main(["compare", "--scenario", bundled_scenario("case1")]) == 1

    # a failing reproduction run exits 2 and names the failures
    import qsl_lab.cli as cli_mod
    stub = ResultTable(columns=("check", "value", "expected", "tol", "passed"),
                       rows=[["case1.tl", 0.0, 1.0, 1e-6, False]],
                       metadata={"all_passed": False})
    monkeypatch.setattr(cli_mod, "run_reproduce", lambda: stub)
    assert main(["reproduce", "--out", str(tmp_path / "r.csv")]) == 2
    assert "case1.tl" in capsys.readouterr().err


def test_cli_seed_and_shots_override(tmp_path):
    payload = {
        "name": "tiny-interfere",
        "task": "interfere",
        "states": {"rho1": {"bloch": [0.0, 0.0, 0.5]}},
        "generator": {"hamiltonian": {
            "n_hat": [0.7071067811865476, 0.5773502691896258, -0.4082482904638631]}},
        "time": 1.1071487177940904,
        "options": {"shots": 50_000, "seeds": [0, 1]},
    }
    out = tmp_path / "i.json"
    rc = main(["interfere", "--scenario", write_scenario(tmp_path, payload),
               "--format", "json", "--out", str(out), "--seed", "3", "--shots", "1000"])
    assert rc == 0
    table = json.loads(out.read_text())
    shot_rows = [r for r in table["rows"] if r[0] == "shots"]
    assert len(shot_rows) == 1 and shot_rows[0][1] == 3 and shot_rows[0][2] == 1000
