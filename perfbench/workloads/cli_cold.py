"""cli_cold: one fresh `python -m qsl_lab.cli <task>` process per op.

Each round runs bound, compare, evolve, interfere, sweep and reproduce once,
on scenario files generated from the seed and validated against the bundled
schema. The package import dominates every task, and only this workload
goes through the scenarios and cli layers and the sweep's thread pool.
The children inherit the worker's environment, from which run.py removed
QSL_LAB_THREADS, so that the program's default pool is what gets measured.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
from types import SimpleNamespace

NAME = "cli_cold"
TASKS = ("bound", "compare", "evolve", "interfere", "sweep", "reproduce")
SWEEP_INSTANCES = 100
EVOLVE_NODES = 41
INTERFERE_SEEDS = 2
CHILD_TIMEOUT_S = 120
COLUMNS = {
    "bound": ("tl", "tl_alpha2", "alpha_max", "tl_alpha_max", "mt_fidelity", "qfi", "campo",
              "actual_time"),
    "compare": ("bound", "value"),
    "evolve": ("t", "purity", "affinity_to_initial", "rx", "ry", "rz"),
    "interfere": ("mode", "seed", "shots", "tl_estimate", "error_bar"),
    "sweep": ("instance", "dim", "t", "tl", "tl_alpha_max", "mt_fidelity", "qfi", "campo",
              "tl_valid", "alpha_valid", "mt_valid", "qfi_valid", "campo_valid", "ordering_ok"),
    "reproduce": ("check", "value", "expected", "tol", "passed"),
}
ROWS = {"bound": 1, "compare": 9, "evolve": EVOLVE_NODES, "interfere": 1 + INTERFERE_SEEDS,
        "sweep": SWEEP_INSTANCES}
LABEL_COLUMNS = {"bound", "mode", "check"}
REFERENCE_REL_TOL = 1e-12
KNOWN_DEFECTS: dict = {}
PEAK_RSS_OF = "children"  # the largest cli process, not this harness
ROUND_S = 7.0  # a round's typical wall time on the defining host (README "Load shape")
# At least three rounds: 18 ops, whose slowest tenth (the two slowest) are
# sweep or reproduce tasks.
MIN_ROUNDS = 3

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
SCHEMA = os.path.join(ROOT, "src", "qsl_lab", "data", "scenario.schema.json")
REFERENCE = os.path.join(HERE, "reference", "reproduce.json")


# --------------------------------------------------------------- inputs

def _unit(rng: random.Random) -> list:
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    n = math.sqrt(sum(x * x for x in v))
    return [x / n for x in v]


def _rotate(r: list, n: list, angle: float) -> list:
    """Rodrigues rotation of r about the unit axis n."""
    c, s = math.cos(angle), math.sin(angle)
    dot = sum(a * b for a, b in zip(n, r))
    cross = [n[1] * r[2] - n[2] * r[1], n[2] * r[0] - n[0] * r[2], n[0] * r[1] - n[1] * r[0]]
    return [r[k] * c + cross[k] * s + n[k] * dot * (1.0 - c) for k in range(3)]


def _unitary_pair(rng: random.Random) -> dict:
    """rho1, H = omega n.sigma and t, with rho2 = U rho1 U^dagger, U = exp(iHt)."""
    n_hat = _unit(rng)
    r1 = [x * rng.uniform(0.5, 1.0) for x in _unit(rng)]
    omega, t = rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.5)
    return {"r1": r1, "r2": _rotate(r1, n_hat, -2.0 * omega * t),
            "hamiltonian": {"n_hat": n_hat, "omega": omega}, "t": t}


def scenario(task: str, seed: int, j: int, rng: random.Random) -> dict | None:
    """The generated scenario for one task, or None for the bundled suite."""
    name = f"bench-{task}-{seed}-{j}"
    if task in ("bound", "compare"):
        p = _unitary_pair(rng)
        return {"name": name, "task": task,
                "states": {"rho1": {"bloch": p["r1"]}, "rho2": {"bloch": p["r2"]}},
                "generator": {"hamiltonian": p["hamiltonian"]}, "time": p["t"]}
    if task == "interfere":
        p = _unitary_pair(rng)
        return {"name": name, "task": task, "states": {"rho1": {"bloch": p["r1"]}},
                "generator": {"hamiltonian": p["hamiltonian"]}, "time": p["t"],
                "options": {"shots": 100_000,
                            "seeds": [rng.randrange(2**31) for _ in range(INTERFERE_SEEDS)]}}
    if task == "evolve":
        r1 = rng.uniform(0.5, 1.5)
        rates = [r1, r1 / 2.0 + rng.uniform(0.1, 0.6), r1 * rng.uniform(0.0, 0.45)]
        return {"name": name, "task": task,
                "states": {"rho0": {"bloch": [x * rng.uniform(0.3, 1.0) for x in _unit(rng)]}},
                "generator": {"lindblad": {"rates": rates, "w_eq": 0.0,
                                           "rabi": rng.uniform(0.0, 0.5)}},
                "time": {"t_min": 0.0, "t_max": rng.uniform(2.0, 6.0), "nodes": EVOLVE_NODES}}
    if task == "sweep":
        return {"name": name, "task": task,
                "options": {"instances": SWEEP_INSTANCES, "dim": 2, "rank": 2,
                            "seed": rng.randrange(2**31)}}
    return None


def make_round(seed: int, j: int) -> list:
    rng = random.Random(f"{NAME}:{seed}:{j}")
    return [{"task": task, "scenario": scenario(task, seed, j, rng)} for task in TASKS]


def op_class(inp) -> str:
    return inp["task"]


# ---------------------------------------------------------------- running

def setup(workdir: str, seed: int):
    import jsonschema
    with open(SCHEMA, encoding="utf-8") as fh:
        schema = json.load(fh)
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = {row[0]: row for row in json.load(fh)["rows"]}
    return SimpleNamespace(workdir=workdir, schema=schema,
                           validate=jsonschema.validate, reference=reference, scenarios=None)


def _python(ctx, *args: str) -> subprocess.CompletedProcess:
    """A child with this worker's environment: src/ on PYTHONPATH and
    QSL_LAB_THREADS unset, as run.py started the worker."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)


def warmup(ctx, seed: int) -> None:
    """One cold import, so the first timed op does not also fill the file cache."""
    proc = _python(ctx, "-c", "import qsl_lab.cli")
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import qsl_lab.cli: {proc.stderr.strip()}")


def prepare(ctx, inp):
    """Write the scenario file and check it against the bundled schema."""
    sc = inp["scenario"]
    if sc is None:
        return inp["task"], None
    ctx.validate(sc, ctx.schema)
    path = os.path.join(ctx.workdir, f"{inp['task']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sc, fh)
    return inp["task"], path


def run_op(ctx, args, tr):
    task, path = args
    argv = ["-m", "qsl_lab.cli", task, "--format", "csv"]
    if path is not None:
        argv += ["--scenario", path]
    return tr.call(f"cli.{task}", _python, ctx, *argv)


def _numeric_ok(column: str, cell: str) -> bool:
    if column in LABEL_COLUMNS or cell in ("true", "false"):
        return True
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def check(ctx, inp, args, out, exc) -> list:
    if exc is not None:
        return [f"raised:{type(exc).__name__}"]
    task = inp["task"]
    if out.returncode != 0:
        return [f"exit_code_{out.returncode}"]
    rows = list(csv.reader(io.StringIO(out.stdout)))
    if not rows or tuple(rows[0]) != COLUMNS[task]:
        return ["wrong_columns"]
    body = rows[1:]
    expected_rows = len(ctx.reference) if task == "reproduce" else ROWS[task]
    if len(body) != expected_rows:
        return ["wrong_row_count"]
    if not all(_numeric_ok(c, cell) for row in body for c, cell in zip(COLUMNS[task], row)):
        return ["non_finite"]
    if task == "reproduce":
        return [] if all(_matches_reference(ctx.reference.get(row[0]), row) for row in body) \
            else ["reproduce_differs_from_reference"]
    return []


def _matches_reference(ref, row) -> bool:
    """Seed-independent output: equal to the recorded reference to 1e-12 relative."""
    if ref is None:
        return False
    for want, got in zip(ref[1:4], row[1:4]):
        if abs(float(got) - want) > REFERENCE_REL_TOL * max(abs(want), 1e-300):
            return False
    return (row[4] == "true") == ref[4]


def attribute(ctx, inp, args, out, tr) -> None:
    """Run the task's scenario layer in process, to split a cold task's time."""
    if ctx.scenarios is None:
        from qsl_lab import scenarios
        ctx.scenarios = scenarios
    sc_mod = ctx.scenarios
    task, path = args
    if path is None:
        table = tr.call("scenarios.run", sc_mod.run_reproduce)
    else:
        sc = tr.call("scenarios.parse_scenario", sc_mod.parse_scenario, path)
        table = tr.call("scenarios.run", sc_mod.run, sc)
    tr.call("scenarios.emit", sc_mod.emit, table, "csv", os.path.join(ctx.workdir, "emit.csv"))


def extras(ctx, tr) -> None:
    """cli.import_s: median wall time of a fresh interpreter importing qsl_lab.cli."""
    for _ in range(3):
        tr.call("cli.import", _python, ctx, "-c", "import qsl_lab.cli")
    tr.sums["cli.import_s"] = statistics.median(
        [sp.end - sp.start for sp in tr.spans if sp.name == "cli.import"])
