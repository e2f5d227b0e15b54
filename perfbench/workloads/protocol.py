"""protocol: one estimate_tl_from_protocol call per op.

interferometry does almost all of the work and no other workload uses it.
Each round has every (mode, d) class: exact mode at d = 2..5 and
shot mode (1e5 shots) at d = 2..4, plus a d = 3 state with a doubly
degenerate spectrum in both modes, which takes the alignment's early-return
branch. The two slow paths, the shot-mode Nelder-Mead alignment at d = 4 and
the dense power_sums at d = 5, dominate each round's time and so the
throughput.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from harness import NullTracer, finite

NAME = "protocol"
SHOTS = 100_000
EXACT_TOL = 1e-6
# (mode, dim, spectrum, ops per round). The three slow ops (shot mode at
# d = 3 and 4, exact mode at d = 5) dominate a round's time and so the
# throughput. Shot mode at d = 2 (a Nelder-Mead alignment too) is most of the
# ops, so the latency median and tail fall on it and have enough samples.
CLASSES = (
    ("exact", 2, "generic", 4), ("exact", 3, "generic", 4), ("exact", 3, "degenerate", 2),
    ("exact", 4, "generic", 4), ("exact", 5, "generic", 1),
    ("shots", 2, "generic", 60), ("shots", 3, "generic", 1), ("shots", 3, "degenerate", 2),
    ("shots", 4, "generic", 1),
)
ROUND_S = 14.0  # a round's typical wall time on the defining host (README "Load shape")
# At least two rounds, so that the latency statistics have 158 samples.
MIN_ROUNDS = 2
# An exactly degenerate spectrum gives the moment polynomial a double root;
# np.roots then returns a complex pair whose residue (~1.5e-8) can exceed the
# 1e-8 guard in eigs_from_power_sums, which raises IllConditioned for about a
# quarter of such states. This benchmark found it; it stays counted as failed.
KNOWN_DEFECTS = {
    "degenerate_raised:IllConditioned":
        "degenerate spectra trip the complex-root guard of eigs_from_power_sums",
}


def make_round(seed: int, j: int) -> list:
    rng = random.Random(f"{NAME}:{seed}:{j}")
    ops = []
    for mode, d, spectrum, count in CLASSES:
        for _ in range(count):
            ops.append({"mode": mode, "dim": d, "spectrum": spectrum,
                        "state_seed": rng.randrange(2**31), "obs_seed": rng.randrange(2**31),
                        "t": rng.uniform(0.1, 2.0), "shot_seed": rng.randrange(2**31),
                        "a": rng.uniform(0.2, 0.45)})
    # Spread each class over the round, so that the shot-mode d = 2 ops,
    # which the median and the tail fall on, sample the whole run and not
    # one stretch of a few seconds.
    rng.shuffle(ops)
    return ops


def op_class(inp) -> str:
    degenerate = "_degenerate" if inp["spectrum"] == "degenerate" else ""
    return f"{inp['mode']}_d{inp['dim']}{degenerate}"


def setup(workdir: str, seed: int):
    import numpy as np
    from qsl_lab import bounds, dynamics, interferometry, operator_core
    return SimpleNamespace(np=np, bounds=bounds, dynamics=dynamics,
                           interferometry=interferometry, operator_core=operator_core)


def warmup(ctx, seed: int) -> None:
    """One op of each qubit class: the first calls import and set up lazily."""
    tr = NullTracer()
    done = set()
    for inp in make_round(seed, -1):
        if inp["dim"] == 2 and op_class(inp) not in done:
            done.add(op_class(inp))
            run_op(ctx, prepare(ctx, inp), tr)


def _degenerate_state(ctx, a: float, seed: int):
    """Spectrum (a, a, 1 - 2a) in a Haar-random basis of C^3."""
    np = ctx.np
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    Q = Q * (np.diagonal(R) / np.abs(np.diagonal(R)))
    w = np.array([a, a, 1.0 - 2.0 * a])
    return ctx.operator_core.QuantumState((Q * w) @ Q.conj().T)


def prepare(ctx, inp):
    oc = ctx.operator_core
    d = inp["dim"]
    if inp["spectrum"] == "degenerate":
        rho = _degenerate_state(ctx, inp["a"], inp["state_seed"])
    else:
        rho = oc.random_state(d, d, inp["state_seed"])
    H = oc.random_observable(d, inp["obs_seed"])
    shots = SHOTS if inp["mode"] == "shots" else None
    return rho, H, inp["t"], shots, inp["shot_seed"]


def run_op(ctx, args, tr):
    rho, H, t, shots, seed = args
    name = "interferometry.estimate_tl_from_protocol." + ("shots" if shots else "exact")
    return tr.call(name, ctx.interferometry.estimate_tl_from_protocol,
                   rho, H, t, shots=shots, seed=seed)


def _direct(ctx, args) -> float:
    rho, H, t, _, _ = args
    return ctx.bounds.tl_bound(rho, H, ctx.dynamics.evolve_unitary(rho, H, t))


def check(ctx, inp, args, out, exc) -> list:
    if exc is not None:
        prefix = "degenerate_" if inp["spectrum"] == "degenerate" else ""
        return [f"{prefix}raised:{type(exc).__name__}"]
    est, err = out
    if not finite(est, err):
        return ["non_finite"]
    if inp["mode"] == "exact":
        return [] if abs(est - _direct(ctx, args)) <= EXACT_TOL and err == 0.0 \
            else ["exact_differs_from_tl_bound"]
    # A shot estimate more than 4 error bars off is an expected statistical
    # miss, not a failure; traced runs report the share within 4 bars.
    return [] if err > 0.0 else ["no_error_bar"]


def attribute(ctx, inp, args, out, tr) -> None:
    """Time the protocol's pieces again, separately, on the same inputs."""
    rho, H, t, shots, seed = args
    itf = ctx.interferometry
    moments = tr.call("interferometry.power_sums", itf.power_sums, rho, rho.dim)
    tr.call("interferometry.eigs_from_power_sums", itf.eigs_from_power_sums, moments)
    prep = tr.call("interferometry.basis_alignment_search", itf.basis_alignment_search,
                   rho, shots=shots, seed=seed)
    tr.add("interferometry.basis_alignment_search.iterations", prep.iterations)
    tr.maximum("interferometry.alignment_residual.max", prep.alignment_residual)
    if shots:
        sigma2 = ctx.operator_core.QuantumState(
            ctx.dynamics.evolve_unitary(prep.sigma1, H, t).matrix)
        tr.call("interferometry.sample_swap_test", itf.sample_swap_test,
                prep.sigma1, sigma2, shots, seed)
        est, err = out
        tr.add("interferometry.shots_within_4sigma.ops", 1)
        tr.add("interferometry.shots_within_4sigma.hits",
               float(abs(est - _direct(ctx, args)) <= 4.0 * err))


def extras(ctx, tr) -> None:
    if "interferometry.shots_within_4sigma.ops" in tr.sums:
        tr.sums["interferometry.shots_within_4sigma_frac"] = (
            tr.sums["interferometry.shots_within_4sigma.hits"]
            / tr.sums["interferometry.shots_within_4sigma.ops"])
