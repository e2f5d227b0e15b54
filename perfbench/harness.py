"""Closed-loop runner, span tracer and statistics shared by every workload.

Stdlib only, so that the harness adds no heavy import of its own to a
workload's set-up time.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field


# --------------------------------------------------------------- statistics

def slowest_tenth_mean(values) -> float:
    """Mean of the slowest tenth of the values.

    They are the values at or above the 90th percentile by nearest rank, so
    at least one. A mean moves in proportion to the share of the
    run that a slow spell of the machine covers, where a single percentile
    can jump from one op class, or one speed of the machine, to another.
    """
    s = sorted(values)
    if not s:
        raise ValueError("no samples")
    top = s[max(math.ceil(0.9 * len(s) - 1e-9), 1) - 1:]
    return sum(top) / len(top)


def tail(values) -> tuple[float, float, int]:
    """Highest percentile that still has at least 10 samples beyond it.

    Returns (value, percentile, sample count): the 11th-largest value, at
    percentile 100 (n - 10) / n. With 10 or fewer samples it is the maximum,
    at percentile 100.
    """
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("no samples")
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    spans: sequence of Span. Children may overlap each other; their union is
    clipped to the parent interval before it is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, sp.start), min(hi, sp.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(sp.end - sp.start - covered)
    return out


# ------------------------------------------------------------------ tracing

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op_id: str | None


class _Open:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append(Span(self.name, time.perf_counter(), math.nan, parent, tr.op_id))
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        tr = self.tracer
        tr.spans[self.index].end = time.perf_counter()
        tr._stack.pop()


class Tracer:
    """In-memory spans (name, start, end, parent, op id) plus named counters."""

    active = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op_id: str | None = None
        self.sums: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    def call(self, name: str, fn, *args, **kwargs):
        with _Open(self, name):
            return fn(*args, **kwargs)

    def add(self, name: str, value: float) -> None:
        self.sums[name] = self.sums.get(name, 0.0) + value

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, -math.inf), value)

    def root_names(self) -> list[str]:
        """Name of the outermost ancestor of every span."""
        roots = []
        for sp in self.spans:
            roots.append(sp.name if sp.parent is None else roots[sp.parent])
        return roots


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    active = False
    op_id = None
    _no_span = _NoSpan()

    def span(self, name: str) -> _NoSpan:
        return self._no_span

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name: str, value: float) -> None:
        pass

    def maximum(self, name: str, value: float) -> None:
        pass


# -------------------------------------------------------------- the loop

OP_SPAN = "op"
ATTRIBUTION_SPAN = "attribution"


@dataclass
class OpResult:
    latency_s: float
    violations: list[str]
    op_class: str = "op"
    traced: bool = False


@dataclass
class Phase:
    ops: list[OpResult] = field(default_factory=list)
    rounds: int = 0
    wall_s: float = 0.0  # the whole loop, the benchmark's own work included
    op_s: float = 0.0    # inside ops only
    cpu_s: float = 0.0   # inside ops only


def cpu_seconds() -> float:
    """User + system CPU of this process and of every child it has waited for."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def rounds_for(workload, seconds: float) -> int:
    """Whole rounds that take about `seconds` on the host that defined ROUND_S.

    The count follows from `seconds` and the workload's ROUND_S (its round's
    typical wall time there), never from the clock. A seed therefore gives
    the same ops, and the same failures, on every run, and a faster program
    simply finishes sooner.
    """
    return max(getattr(workload, "MIN_ROUNDS", 1), round(seconds / workload.ROUND_S))


def run_phase(workload, ctx, seed: int, tracers, rounds: int) -> Phase:
    """Closed loop with one client: each op starts when the previous one ends.

    Runs `rounds` whole rounds, so every phase has the same mix of op classes.
    Each op runs once per tracer in `tracers`. With an untraced and a traced
    tracer, the order alternates from op to op, so that the two runs of an op
    see the same machine and neither always goes first. Every run's output is
    checked; an op that raises fails with the exception's name. With an
    active tracer the op runs inside an "op" span and the workload's
    attribution calls follow it in their own span.
    op_s and cpu_s cover the ops only, not the benchmark's own input
    generation, checks and attribution calls.
    """
    phase = Phase()
    t0 = time.perf_counter()
    for j in range(rounds):
        for i, inp in enumerate(workload.make_round(seed, j)):
            args = workload.prepare(ctx, inp)
            for tracer in (tracers if (j + i) % 2 == 0 else tracers[::-1]):
                tracer.op_id = f"{j}.{i}"
                exc = out = None
                cpu0 = cpu_seconds()
                start = time.perf_counter()
                try:
                    with tracer.span(OP_SPAN):
                        out = workload.run_op(ctx, args, tracer)
                except Exception as e:  # an op that raises is a failed op, not a crash
                    exc = e
                latency = time.perf_counter() - start
                phase.cpu_s += cpu_seconds() - cpu0
                phase.op_s += latency
                violations = workload.check(ctx, inp, args, out, exc)
                phase.ops.append(OpResult(latency, violations, workload.op_class(inp),
                                          tracer.active))
                if tracer.active and exc is None:
                    with tracer.span(ATTRIBUTION_SPAN):
                        workload.attribute(ctx, inp, args, out, tracer)
    phase.wall_s = time.perf_counter() - t0
    phase.rounds = rounds
    return phase


def summarize(phase: Phase, known_defects: dict) -> dict:
    """Counts and latency statistics of one phase."""
    lat = [op.latency_s for op in phase.ops]
    failed = [op for op in phase.ops if op.violations]
    by_kind = Counter(v for op in failed for v in op.violations)
    tail_v, tail_p, n = tail(lat)
    classes: dict[str, list] = {}
    for op in phase.ops:
        classes.setdefault(op.op_class, []).append(op.latency_s)
    return {
        "attempted": len(phase.ops),
        "failed": len(failed),
        "violations": dict(by_kind),
        "unexpected": sorted(k for k in by_kind if k not in known_defects),
        "rounds": phase.rounds,
        "wall_s": phase.wall_s,
        "op_s": phase.op_s,
        "cpu_s": phase.cpu_s,
        "latency_p50_s": statistics.median(lat),
        "latency_top10_mean_s": slowest_tenth_mean(lat),
        "latency_tail_s": tail_v,
        "tail_percentile": tail_p,
        "samples": n,
        "class_median_s": {c: statistics.median(v) for c, v in sorted(classes.items())},
    }


def finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)
