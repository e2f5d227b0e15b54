"""Declarative scenario files, task dispatch, reproduction suite, output tables."""

from __future__ import annotations

import csv
import io
import json
import sys
import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

import jsonschema
import numpy as np

from . import __version__
from .bounds import (
    bound_report,
    campo_chain,
    campo_markovian_bound,
    markovian_bound,
    mixing_inequality_check,
    tl_bound,
)
from .coherence import affinity
from .dynamics import (
    LindbladModel,
    evolve_unitary,
    first_passage_time,
    orbit,
    squeezed_vacuum_model,
)
from .errors import IoError, NotReached, ParseError, QslError, ValidationError
from .interferometry import estimate_tl_from_protocol
from .operator_core import (
    Observable,
    QuantumState,
    bloch_hamiltonian,
    bloch_to_state,
    random_observable,
    random_state,
    state_to_bloch,
)


@dataclass(frozen=True)
class Scenario:
    name: str
    task: str
    states: dict
    generator: object  # Observable | LindbladModel | None
    time: object  # float | np.ndarray | None
    options: dict
    digest: str


@dataclass
class ResultTable:
    columns: tuple
    rows: list
    metadata: dict = field(default_factory=dict)


def _data_path(*parts: str):
    return resources.files("qsl_lab").joinpath("data", *parts)


@lru_cache(maxsize=1)
def _schema() -> dict:
    return json.loads(_data_path("scenario.schema.json").read_text())


@lru_cache(maxsize=1)
def expected_values() -> dict:
    return json.loads(_data_path("expected_values.json").read_text())


def bundled_scenario(name: str) -> str:
    """Filesystem-usable path to a bundled scenario file."""
    return str(_data_path("scenarios", f"{name}.json"))


def _decode_matrix(rows, where: str) -> np.ndarray:
    try:
        M = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: malformed [re, im] matrix ({exc})") from None
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"{where}: matrix must be square, got {M.shape}")
    return M


def _resolve_state(name: str, spec: dict) -> QuantumState:
    where = f"states.{name}"
    try:
        if "bloch" in spec:
            return bloch_to_state(np.asarray(spec["bloch"], dtype=float))
        if "matrix" in spec:
            return QuantumState(_decode_matrix(spec["matrix"], f"{where}.matrix"))
        r = spec["random"]
        return random_state(r["dim"], r["rank"], r["seed"])
    except ValidationError:
        raise
    except QslError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _resolve_generator(spec: dict | None):
    if not spec:
        return None
    try:
        if "hamiltonian" in spec:
            h = spec["hamiltonian"]
            hbar = h.get("hbar", 1.0)
            if "matrix" in h:
                return Observable(_decode_matrix(h["matrix"], "generator.hamiltonian.matrix"),
                                  hbar=hbar)
            return bloch_hamiltonian(np.asarray(h["n_hat"], dtype=float),
                                     omega=h.get("omega", 1.0),
                                     alpha_phase=h.get("alpha_phase", 0.0), hbar=hbar)
        lb = spec["lindblad"]
        hbar = lb.get("hbar", 1.0)
        if "rates" in lb:
            model, _ = squeezed_vacuum_model(*lb["rates"], w_eq=lb.get("w_eq", 0.0),
                                             rabi=lb.get("rabi", 0.0), hbar=hbar)
            return model
        jumps = [_decode_matrix(A, f"generator.lindblad.jump_ops[{i}]")
                 for i, A in enumerate(lb.get("jump_ops", []))]
        coeffs = _decode_matrix(lb["coeffs"], "generator.lindblad.coeffs")
        H = None
        if "hamiltonian_matrix" in lb:
            H = Observable(_decode_matrix(lb["hamiltonian_matrix"],
                                          "generator.lindblad.hamiltonian_matrix"), hbar=hbar)
        return LindbladModel(H, jumps, coeffs, hbar=hbar)
    except ValidationError:
        raise
    except (QslError, KeyError) as exc:
        raise ValidationError(f"generator: {exc}") from None


def _resolve_time(spec):
    if spec is None:
        return None
    if isinstance(spec, (int, float)):
        return float(spec)
    return np.linspace(spec.get("t_min", 0.0), spec["t_max"], spec["nodes"])


def parse_scenario(path: str) -> Scenario:
    """Load, schema-validate, and resolve one scenario file."""
    try:
        raw_text = open(path, encoding="utf-8").read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        raw = json.loads(raw_text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from None
    try:
        jsonschema.validate(raw, _schema())
    except jsonschema.ValidationError as exc:
        key_path = ".".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ValidationError(f"{key_path}: {exc.message}") from None
    states = {n: _resolve_state(n, s) for n, s in raw.get("states", {}).items()}
    gen = _resolve_generator(raw.get("generator"))
    dims = {s.dim for s in states.values()}
    if gen is not None and dims and {gen.dim} | dims != {gen.dim}:
        raise ValidationError(f"generator: dim {gen.dim} inconsistent with states {sorted(dims)}")
    digest = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:16]
    return Scenario(name=raw["name"], task=raw["task"], states=states, generator=gen,
                    time=_resolve_time(raw.get("time")), options=raw.get("options", {}),
                    digest=digest)


def _meta(scenario: Scenario, **extra) -> dict:
    md = {"scenario": scenario.name, "digest": scenario.digest, "version": __version__}
    md.update(extra)
    return md


def _need(scenario: Scenario, *names: str):
    out = []
    for n in names:
        if n not in scenario.states:
            raise ValidationError(f"states.{n}: required by task '{scenario.task}'")
        out.append(scenario.states[n])
    return out


def _run_bound(sc: Scenario) -> ResultTable:
    rho1, rho2 = _need(sc, "rho1", "rho2")
    H = sc.generator
    t_hint = float(sc.time) if isinstance(sc.time, float) else 0.0
    try:
        actual = first_passage_time(rho1, H, rho2, tol=1e-8,
                                    t_max=max(2 * np.pi, 2.0 * t_hint))
    except NotReached:
        actual = None
    rep = bound_report(rho1, H, rho2, actual_time=actual,
                       alpha_grid=sc.options.get("alpha_grid"))
    d = rep.as_dict()
    cols = ("tl", "tl_alpha2", "alpha_max", "tl_alpha_max", "mt_fidelity",
            "qfi", "campo", "actual_time")
    return ResultTable(columns=cols, rows=[[d[c] for c in cols]],
                       metadata=_meta(sc, inputs_digest=rep.inputs_digest))


def _run_compare(sc: Scenario) -> ResultTable:
    rho1, rho2 = _need(sc, "rho1", "rho2")
    H = sc.generator
    rep = bound_report(rho1, H, rho2, alpha_grid=sc.options.get("alpha_grid"))
    chain = campo_chain(rho1, H, rho2)
    rows = [
        ["tl", rep.tl],
        ["tl_alpha2", rep.tl_alpha2],
        ["tl_alpha_max", rep.tl_alpha_max[1]],
        ["mt_fidelity", rep.mt_fidelity],
        ["qfi", rep.qfi],
        ["campo_sqrtN_over_D", chain["sqrtN_over_D"]],
        ["campo", rep.campo],
        ["affinity", affinity(rho1, rho2)],
    ]
    if sc.time is not None:
        rows.append(["stated_time", float(sc.time)])
    return ResultTable(columns=("bound", "value"), rows=rows,
                       metadata=_meta(sc, inputs_digest=rep.inputs_digest))


def sweep_instances(instances: int, dim: int, rank: int, seed: int):
    """Deterministic per-index random (rho1, H, t, rho2) tuples, in index order."""
    for i in range(instances):
        base = seed * 100_003 + i
        rho1 = random_state(dim, rank, base)
        H = random_observable(dim, base + 50_021)
        t = float(np.random.default_rng(base + 90_001).uniform(1e-3, np.pi))
        yield i, rho1, H, t, evolve_unitary(rho1, H, t)


def _run_sweep(sc: Scenario) -> ResultTable:
    opts = sc.options
    instances = opts.get("instances", 500)
    dim = opts.get("dim", 2)
    rank = opts.get("rank", dim)
    seed = opts.get("seed", 42)
    slack = 1e-8

    def evaluate(item):
        i, rho1, H, t, rho2 = item
        rep = bound_report(rho1, H, rho2, actual_time=t)
        # tl >= campo is the coherence bound's claimed tightness over the
        # relative-purity bound; qfi >= mt follows from F_Q <= 4 (dH)^2.
        # tl vs mt_fidelity changes sign on near-pure states, so it is not
        # part of the ordering.
        order = (rep.tl >= rep.campo - 1e-10
                 and rep.qfi >= rep.mt_fidelity - 1e-10)
        return [i, dim, t, rep.tl, rep.tl_alpha_max[1], rep.mt_fidelity, rep.qfi,
                rep.campo,
                rep.tl <= t + slack, rep.tl_alpha_max[1] <= t + slack,
                rep.mt_fidelity <= t + slack, rep.qfi <= t + slack,
                rep.campo <= t + slack, order]

    rows = [evaluate(item) for item in sweep_instances(instances, dim, rank, seed)]
    cols = ("instance", "dim", "t", "tl", "tl_alpha_max", "mt_fidelity", "qfi",
            "campo", "tl_valid", "alpha_valid", "mt_valid", "qfi_valid",
            "campo_valid", "ordering_ok")
    return ResultTable(columns=cols, rows=rows,
                       metadata=_meta(sc, instances=instances, dim=dim, seed=seed))


def _run_evolve(sc: Scenario) -> ResultTable:
    name = "rho0" if "rho0" in sc.states else "rho1"
    (rho0,) = _need(sc, name)
    for field_name, value in (("time", sc.time), ("generator", sc.generator)):
        if value is None:
            raise ValidationError(f"{field_name}: required by task '{sc.task}'")
    grid = sc.time if isinstance(sc.time, np.ndarray) else np.linspace(0.0, float(sc.time), 51)
    traj = orbit(rho0, sc.generator, grid)
    qubit = rho0.dim == 2
    rows = []
    for k, t in enumerate(grid):
        rho_t = traj._state(k)
        row = [float(t), rho_t.purity(), affinity(rho0, rho_t)]
        if qubit:
            row.extend(float(x) for x in state_to_bloch(rho_t.matrix))
        rows.append(row)
    cols = ("t", "purity", "affinity_to_initial") + (("rx", "ry", "rz") if qubit else ())
    return ResultTable(columns=cols, rows=rows, metadata=_meta(sc))


def _run_interfere(sc: Scenario) -> ResultTable:
    (rho1,) = _need(sc, "rho1")
    H = sc.generator
    t = float(sc.time)
    shots = sc.options.get("shots", 100_000)
    seeds = sc.options.get("seeds", [sc.options.get("seed", 0)])
    rows = []
    exact, _ = estimate_tl_from_protocol(rho1, H, t)
    rows.append(["exact", 0, 0, exact, 0.0])
    if not sc.options.get("exact", False):
        for s in seeds:
            est, err = estimate_tl_from_protocol(rho1, H, t, shots=shots, seed=int(s))
            rows.append(["shots", int(s), shots, est, err])
    direct = tl_bound(rho1, H, evolve_unitary(rho1, H, t))
    return ResultTable(columns=("mode", "seed", "shots", "tl_estimate", "error_bar"),
                       rows=rows, metadata=_meta(sc, tl_direct=direct))


def _simple_case_model(lambda1: float):
    rate = -lambda1 / 2.0
    model, _ = squeezed_vacuum_model(0.0, rate, rate, w_eq=0.0)
    return model, bloch_to_state([1.0, 0.0, 0.0])


def markovian_curve(lambda1: float, tau_grid) -> ResultTable:
    """Bound-vs-time curve for the single-decay-channel model.

    Columns: tau, the path-length bound (<= tau on any grid) and the
    relative-purity competitor on the same endpoints. The metadata give the
    first tau where the path-length bound overtakes the competitor and
    whether it ends above it.
    """
    taus = np.asarray(tau_grid, dtype=float)
    model, rho0 = _simple_case_model(lambda1)
    rows = []
    for tau in taus:
        rows.append([
            float(tau),
            markovian_bound(rho0, model, float(tau)),
            campo_markovian_bound(rho0, model, float(tau)),
        ])
    crossover = None
    for prev, cur in zip(rows, rows[1:]):
        if prev[1] <= prev[2] and cur[1] > cur[2]:
            crossover = cur[0]
            break
    exceeds_at_end = bool(rows[-1][1] > rows[-1][2]) if rows else False
    cols = ("tau", "markovian_bound", "campo_style")
    return ResultTable(columns=cols, rows=rows,
                       metadata={"lambda1": lambda1, "crossover_tau": crossover,
                                 "exceeds_campo_at_end": exceeds_at_end,
                                 "version": __version__})


def mixing_example_states():
    """Nearest Bloch-sphere embedding of the mixing-example geometry.

    The stated constraints (both axes pure, polar angles 45 and 30 degrees
    from n, mutually orthogonal directions) cannot all hold on the sphere:
    the angle between the two directions is confined to [15, 75] degrees.
    This embedding keeps the two polar angles and puts the azimuths pi
    apart, the closest-to-orthogonal choice (dot product ~0.2588).
    """
    n_hat = np.array([0.0, 0.0, 1.0])
    r1 = np.array([np.sin(np.pi / 4), 0.0, np.cos(np.pi / 4)])
    r2 = np.array([-np.sin(np.pi / 6), 0.0, np.cos(np.pi / 6)])
    return bloch_to_state(r1), bloch_to_state(r2), bloch_hamiltonian(n_hat)


def _check(name, value, expected, tol) -> list:
    return [name, float(value), float(expected), float(tol),
            abs(float(value) - float(expected)) <= tol]


def _check_bool(name, ok: bool) -> list:
    return [name, 1.0 if ok else 0.0, 1.0, 0.5, bool(ok)]


def run_reproduce() -> ResultTable:
    """Full reproduction suite against the stored expected values."""
    exp = expected_values()
    rows = []

    for case in ("case1", "case2", "case3"):
        sc = parse_scenario(bundled_scenario(case))
        rho1, rho2 = sc.states["rho1"], sc.states["rho2"]
        tl = tl_bound(rho1, sc.generator, rho2)
        e = exp[case]["tl"]
        rows.append(_check(f"{case}.tl", tl, e["value"], e["tol"]))
        if case == "case2":
            e2 = exp[case]["tl_rounded"]
            rows.append(_check("case2.tl_rounded", tl, e2["value"], e2["tol"]))
        if case == "case3":
            ea = exp[case]["affinity"]
            rows.append(_check("case3.affinity", affinity(rho1, rho2),
                               ea["value"], ea["tol"]))
            chain = campo_chain(rho1, sc.generator, rho2)
            rows.append(_check_bool(
                "case3.campo_chain",
                chain["sqrtN_over_D"] >= chain["two_over_pi"] - 1e-12
                and chain["two_over_pi"] >= chain["final"] - 1e-12))
            est, _ = estimate_tl_from_protocol(rho1, sc.generator, float(sc.time))
            rows.append(_check("case3.interferometry_exact", est, tl, 1e-6))

    mix = exp["mixing"]
    lhs_const = mix["u_gamma"]
    rhs_const = (np.sqrt(mix["p"]) * mix["u_rho"]
                 + np.sqrt(1 - mix["p"]) * mix["u_sigma"])
    rows.append(_check_bool("mixing.constant_witness", lhs_const <= rhs_const))

    rho1, sig1, H = mixing_example_states()
    a_grid = np.arange(0.01, 2 * np.pi + 1e-12, 0.01)
    all_hold = all(mixing_inequality_check(rho1, sig1, mix["p"], H, float(a))[2]
                   for a in a_grid)
    rows.append(_check_bool("mixing.inequality_scan", all_hold))

    mk = exp["markovian"]
    model, rho0 = _simple_case_model(mk["lambda1"])
    tau_probe = 3.0
    rows.append(_check_bool(
        "markovian.exceeds_campo_at_tau3",
        markovian_bound(rho0, model, tau_probe)
        > campo_markovian_bound(rho0, model, tau_probe)))

    table = ResultTable(columns=("check", "value", "expected", "tol", "passed"),
                        rows=rows, metadata={"suite": "reproduce", "version": __version__})
    table.metadata["all_passed"] = all(r[4] for r in rows)
    return table


_TASKS = {
    "bound": _run_bound,
    "compare": _run_compare,
    "sweep": _run_sweep,
    "evolve": _run_evolve,
    "interfere": _run_interfere,
}


def run(scenario: Scenario) -> ResultTable:
    """Dispatch a scenario to its task runner."""
    if scenario.task == "reproduce":
        return run_reproduce()
    try:
        return _TASKS[scenario.task](scenario)
    except QslError as exc:
        raise type(exc)(f"[scenario {scenario.name}] {exc}") from exc


def _fmt_cell(x) -> str:
    if isinstance(x, bool) or isinstance(x, np.bool_):
        return "true" if x else "false"
    if isinstance(x, float) or isinstance(x, np.floating):
        return repr(float(x))
    return str(x)


def emit(table: ResultTable, fmt: str, path: str | None = None) -> None:
    """Write a table as CSV (UTF-8, LF) or JSON {metadata, columns, rows}."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_fmt_cell(x) for x in row])
        text = buf.getvalue()
    elif fmt == "json":
        payload = {
            "metadata": table.metadata,
            "columns": list(table.columns),
            "rows": [[bool(x) if isinstance(x, (bool, np.bool_)) else
                      float(x) if isinstance(x, (float, np.floating)) else x
                      for x in row] for row in table.rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        raise IoError(f"unknown format {fmt!r}")
    try:
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None
