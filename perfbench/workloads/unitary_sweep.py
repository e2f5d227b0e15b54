"""unitary_sweep: one seeded random (rho1, H, t) instance per op.

The criterion-5 sweep traffic. bound_report does nearly all the work, and
alpha_bound_max most of that. No two ops share a state, so only caching
inside one call can help. d = 6 and rank-deficient states are in every
round, so a vectorised kernel that wins at d = 2 but loses on larger or
degenerate inputs shows up.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

from harness import NullTracer, finite

NAME = "unitary_sweep"
# (dim, rank) with rank in {1, ceil(d/2), d}; one op of each per round.
CLASSES = tuple((d, r) for d in (2, 3, 4, 6) for r in sorted({1, (d + 1) // 2, d}))
SLACK = 1e-8
ROUND_S = 0.07  # a round's typical wall time on the defining host (README "Load shape")
# Known-red, left out of the checks (README "Acceptance suite and known-red
# checks"): the verbatim QFI coefficient makes `qfi` exceed t on most
# instances, so qfi <= t is not checked.
KNOWN_DEFECTS: dict = {}


def make_round(seed: int, j: int) -> list:
    rng = random.Random(f"{NAME}:{seed}:{j}")
    return [{"dim": d, "rank": r, "state_seed": rng.randrange(2**31),
             "obs_seed": rng.randrange(2**31), "t": rng.uniform(1e-3, math.pi)}
            for d, r in CLASSES]


def op_class(inp) -> str:
    return f"d{inp['dim']}_rank{inp['rank']}"


def setup(workdir: str, seed: int):
    from qsl_lab import bounds, coherence, dynamics, operator_core
    return SimpleNamespace(bounds=bounds, coherence=coherence, dynamics=dynamics,
                           operator_core=operator_core)


def warmup(ctx, seed: int) -> None:
    for inp in make_round(seed, -1):
        run_op(ctx, prepare(ctx, inp), NullTracer())


def prepare(ctx, inp):
    return inp


def run_op(ctx, inp, tr):
    oc = ctx.operator_core
    rho1 = tr.call("operator_core.random_state", oc.random_state,
                   inp["dim"], inp["rank"], inp["state_seed"])
    H = tr.call("operator_core.random_observable", oc.random_observable,
                inp["dim"], inp["obs_seed"])
    rho2 = tr.call("dynamics.evolve_unitary", ctx.dynamics.evolve_unitary, rho1, H, inp["t"])
    rep = tr.call("bounds.bound_report", ctx.bounds.bound_report, rho1, H, rho2,
                  actual_time=inp["t"])
    return rho1, H, rho2, rep


def check(ctx, inp, args, out, exc) -> list:
    if exc is not None:
        return [f"raised:{type(exc).__name__}"]
    rho1, H, rho2, rep = out
    t = inp["t"]
    valid = {"tl": rep.tl, "tl_alpha2": rep.tl_alpha2, "tl_alpha_max": rep.tl_alpha_max[1],
             "mt_fidelity": rep.mt_fidelity, "campo": rep.campo}
    if not finite(rep.qfi, rep.tl_alpha_max[0], *valid.values()):
        return ["non_finite"]
    bad = [f"{k}_exceeds_t" for k, v in valid.items() if v > t + SLACK]
    aff = ctx.coherence.affinity(rho1, rho2)
    fid = ctx.coherence.uhlmann_fidelity(rho1, rho2)
    if aff > fid + 1e-12:
        bad.append("affinity_exceeds_fidelity")
    return bad


def attribute(ctx, inp, args, out, tr) -> None:
    """Time each piece of bound_report again, separately, on the same inputs."""
    rho1, H, rho2, _ = out
    b, c = ctx.bounds, ctx.coherence
    tr.call("bounds.tl_bound", b.tl_bound, rho1, H, rho2)
    tr.call("bounds.alpha_bound", b.alpha_bound, rho1, H, rho2, 2.0)
    tr.call("bounds.alpha_bound_max", b.alpha_bound_max, rho1, H, rho2)
    tr.call("bounds.mt_fidelity_bound", b.mt_fidelity_bound, rho1, H, rho2)
    tr.call("bounds.qfi_bound", b.qfi_bound, rho1, H, rho2)
    tr.call("bounds.campo_bound", b.campo_bound, rho1, H, rho2)
    tr.call("coherence.wy_coherence", c.wy_coherence, rho1, H)
    tr.call("coherence.sld_qfi", c.sld_qfi, rho1, H)
    tr.call("coherence.uhlmann_fidelity", c.uhlmann_fidelity, rho1, rho2)
    tr.call("coherence.affinity", c.affinity, rho1, rho2)


def extras(ctx, tr) -> None:
    pass

