"""trajectory: one (generator, tau) node per op.

Every round visits the same generators, each at a fresh tau in [0.1, 5], so
one model is reused across many tau (the sharing a cached superoperator or
grid reuse would exploit). Four Lindblad generators: the single-decay
channel, a squeezed channel with r3 > 0, and a driven channel on each side
of its exceptional point (rates (1, 0.5, 0), rabi 0.25). Their ops also run
markovian_bound and campo_markovian_bound, which dominate the time and so
the throughput and the latency tail. Six qubit unitary generators, one per
half-decade of omega in [1, 1000], are the majority of ops, so the median
latency is a unitary first-passage scan; the high-omega ones exercise the
scan's aliasing (ROADMAP item 5) on every seed.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

from harness import NullTracer, finite

NAME = "trajectory"
TAU_RANGE = (0.1, 5.0)
LINDBLAD_LABELS = ("single_decay", "squeezed", "driven_below_ep", "driven_above_ep")
UNITARY_STRATA = 6  # half-decades of omega over [1, 1000]
SLACK = 1e-8
ROUND_S = 1.0  # a round's typical wall time on the defining host (README "Load shape")
PASSAGE_TOL = 1e-6
# first_passage_time scans 1000 nodes on [0, 2 pi] by default (its signature).
SCAN_STEP = 2.0 * math.pi / 999
# Two defects of first_passage_time on a unitary generator, each named by
# the condition that identifies it, so that a failure elsewhere is not
# excused by its name:
# - "first_step": an earliest passage inside the first scan step is never a
#   scan candidate, and the next period's is returned. It shows at every
#   omega whose period the scan resolves (4 or more steps per period).
# - aliasing (ROADMAP item 5): from omega ~ 250 up the fixed scan has too
#   few nodes per period and returns a later passage. Over 80 seeds it
#   showed on strata 4 and 5 only (omega >= 100), so only those are known.
KNOWN_DEFECTS = {
    f"unitary_first_passage_{kind}:{cause}": why
    for kind in ("not_earliest", "after_tau")
    for cause, why in (
        ("first_step", "a passage inside the first scan step is not a scan candidate"),
        ("omega_stratum_4", "ROADMAP item 5: the fixed scan aliases at high omega"),
        ("omega_stratum_5", "ROADMAP item 5: the fixed scan aliases at high omega"),
    )
}
# Known-red, left out of the checks: markovian_bound <= tau fails by design
# (the quadrature bound exceeds the elapsed time, criterion 8), and the
# printed Markovian affinity closed form is not the spectral affinity
# (criterion 9).


def _bloch(rng: random.Random, r_min: float) -> list:
    """Random direction with length uniform in [r_min, 1]."""
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    n = math.sqrt(sum(x * x for x in v))
    r = rng.uniform(r_min, 1.0)
    return [r * x / n for x in v]


def generators(seed: int) -> list:
    """The seed's fixed set of generators with their initial states."""
    rng = random.Random(f"{NAME}:{seed}:generators")
    gens = []
    lam1 = rng.uniform(-2.0, -0.2)
    gens.append({"kind": "lindblad", "label": LINDBLAD_LABELS[0],
                 "rates": [0.0, -lam1 / 2.0, -lam1 / 2.0], "rabi": 0.0,
                 "r0": _bloch(rng, 0.3)})
    r1 = rng.uniform(0.5, 1.5)
    gens.append({"kind": "lindblad", "label": LINDBLAD_LABELS[1],
                 "rates": [r1, r1 / 2.0 + rng.uniform(0.1, 0.6), r1 * rng.uniform(0.1, 0.45)],
                 "rabi": 0.0, "r0": _bloch(rng, 0.3)})
    for side, label in zip((-1.0, 1.0), LINDBLAD_LABELS[2:]):
        u = 10.0 ** rng.uniform(-3.0, math.log10(0.3))
        gens.append({"kind": "lindblad", "label": label, "rates": [1.0, 0.5, 0.0],
                     "rabi": 0.25 * (1.0 + side * u), "r0": _bloch(rng, 0.3)})
    for k in range(UNITARY_STRATA):
        omega = 10.0 ** (0.5 * (k + rng.random()))
        n_hat = _bloch(rng, 1.0)
        while True:  # keep r0 off the axis so the orbit has a well-defined period
            r0 = _bloch(rng, 0.5)
            cos = sum(a * b for a, b in zip(r0, n_hat)) / math.sqrt(sum(a * a for a in r0))
            if abs(cos) <= math.cos(math.radians(30.0)):
                break
        gens.append({"kind": "unitary", "label": f"omega_stratum_{k}", "omega": omega,
                     "n_hat": n_hat, "r0": r0})
    return gens


def make_round(seed: int, j: int) -> list:
    rng = random.Random(f"{NAME}:{seed}:{j}")
    return [{"gen": g, "tau": rng.uniform(*TAU_RANGE)}
            for g in range(len(LINDBLAD_LABELS) + UNITARY_STRATA)]


def op_class(inp) -> str:
    i, n = inp["gen"], len(LINDBLAD_LABELS)
    return LINDBLAD_LABELS[i] if i < n else f"omega_stratum_{i - n}"


def setup(workdir: str, seed: int):
    import numpy as np
    from qsl_lab import bounds, coherence, dynamics, operator_core
    ctx = SimpleNamespace(np=np, bounds=bounds, coherence=coherence, dynamics=dynamics,
                          models=[])
    for g in generators(seed):
        rho0 = operator_core.bloch_to_state(g["r0"])
        if g["kind"] == "lindblad":
            model, basis = dynamics.squeezed_vacuum_model(*g["rates"], rabi=g["rabi"])
            ctx.models.append((g, rho0, model, basis))
        else:
            H = operator_core.bloch_hamiltonian(g["n_hat"], omega=g["omega"])
            ctx.models.append((g, rho0, H, None))
    return ctx


def warmup(ctx, seed: int) -> None:
    tr = NullTracer()
    for i in (0, len(ctx.models) - 1):
        run_op(ctx, (i, 1.0), tr)


def prepare(ctx, inp):
    return inp["gen"], inp["tau"]


def run_op(ctx, args, tr):
    i, tau = args
    g, rho0, gen, _ = ctx.models[i]
    d, b = ctx.dynamics, ctx.bounds
    out = {}
    if g["kind"] == "lindblad":
        prop = tr.call("dynamics.LindbladPropagator.init", d.LindbladPropagator, gen)
        out["prop"] = prop
        out["rho_tau"] = tr.call("dynamics.LindbladPropagator.call", prop, rho0, tau)
    else:
        out["rho_tau"] = tr.call("dynamics.evolve_unitary", d.evolve_unitary, rho0, gen, tau)
    out["passage"] = tr.call("dynamics.first_passage_time", d.first_passage_time,
                             rho0, gen, out["rho_tau"])
    if g["kind"] == "lindblad":
        out["markovian"] = tr.call("bounds.markovian_bound", b.markovian_bound, rho0, gen, tau)
        out["campo"] = tr.call("bounds.campo_markovian_bound", b.campo_markovian_bound,
                               rho0, gen, tau)
    return out


def earliest_passage(tau: float, omega: float) -> float:
    """Exact earliest return time under H = omega n.sigma: the orbit has
    period pi/omega whenever r0 is off the axis."""
    return math.fmod(tau, math.pi / omega)


def check(ctx, inp, args, out, exc) -> list:
    if exc is not None:
        return [f"raised:{type(exc).__name__}"]
    np = ctx.np
    i, tau = args
    g, rho0, gen, basis = ctx.models[i]
    bad = []
    M = out["rho_tau"].matrix
    if abs(np.trace(M).real - 1.0) > 1e-10 or np.linalg.eigvalsh(M).min() < -1e-12:
        bad.append("state_not_density_matrix")
    if basis is not None and g["rabi"] == 0.0:
        ref = ctx.dynamics.damping_basis_evolution(rho0, basis, tau).matrix
        if np.abs(M - ref).max() > 1e-10:
            bad.append("damping_basis_mismatch")
    fp = out["passage"]
    if not finite(fp, out.get("markovian", 0.0), out.get("campo", 0.0)):
        return bad + ["non_finite"]
    if g["kind"] != "unitary":
        if fp > tau + SLACK:
            bad.append("first_passage_after_tau")
        return bad
    want = earliest_passage(tau, g["omega"])
    # a target within tolerance of the period is also reached at t = 0
    wrapped = fp <= PASSAGE_TOL and math.pi / g["omega"] - want <= PASSAGE_TOL
    # a first-step miss is told apart only where the scan resolves the period
    cause = "first_step" if want < SCAN_STEP <= math.pi / g["omega"] / 4 else op_class(inp)
    if fp > tau + SLACK:
        bad.append(f"unitary_first_passage_after_tau:{cause}")
    if abs(fp - want) > PASSAGE_TOL and not wrapped:
        bad.append(f"unitary_first_passage_not_earliest:{cause}")
    return bad


def attribute(ctx, inp, args, out, tr) -> None:
    i, _ = args
    g, _, gen, _ = ctx.models[i]
    if g["kind"] != "lindblad":
        return
    d, np = ctx.dynamics, ctx.np
    rho_tau = out["rho_tau"]
    tr.call("coherence.lindblad_coherence", ctx.coherence.lindblad_coherence, rho_tau, gen)
    tr.call("dynamics.LindbladModel.apply", gen.apply, rho_tau.matrix)
    tr.call("dynamics.build_superoperator", d.build_superoperator, gen)
    _, V = np.linalg.eig(out["prop"].S)
    tr.maximum("dynamics.superop_cond.max", float(np.linalg.cond(V)))


def extras(ctx, tr) -> None:
    pass
