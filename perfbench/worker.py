"""Run one workload in this fresh process; print its result as one JSON line.

Started by run.py, which passes the monotonic time at which it spawned this
process, so set-up time covers interpreter start, imports, input generation
and warm-up.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

from harness import (ATTRIBUTION_SPAN, OP_SPAN, NullTracer, Tracer, rounds_for, run_phase,
                     self_times, summarize)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPAN_STATS = ("calls", "total_s", "p50_us", "wall_s", "self_s")


def peak_rss_mb(of: str) -> float:
    who = resource.RUSAGE_CHILDREN if of == "children" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(wl, phase, setup_s: float) -> tuple[dict, dict]:
    s = summarize(phase, wl.KNOWN_DEFECTS)
    n = s["attempted"]
    metrics = {
        "setup_s": setup_s,
        "throughput_ops_s": n / s["op_s"],
        "latency_p50_ms": s["latency_p50_s"] * 1e3,
        "latency_top10_mean_ms": s["latency_top10_mean_s"] * 1e3,
        "latency_tail_ms": s["latency_tail_s"] * 1e3,
        "failed_frac": s["failed"] / n,
        "cpu_per_op_ms": s["cpu_s"] / n * 1e3,
        "peak_rss_mb": peak_rss_mb(getattr(wl, "PEAK_RSS_OF", "self")),
    }
    return metrics, s


def layer_metrics(tracer: Tracer, names) -> tuple[dict, list]:
    """Per-layer values from the spans and counters; 0 for a layer not exercised.

    A name "<span>.<stat>" with stat in SPAN_STATS is computed from the spans
    named <span>; "<module>.self_s" sums the self time of that module's spans
    inside op trees. Any other name is a counter the workload recorded.
    Also returns the names measured from attribution calls.
    """
    spans = tracer.spans
    roots = tracer.root_names()
    selfs = self_times(spans)
    durations: dict[str, list] = {}
    attributed = set()
    for sp, root in zip(spans, roots):
        durations.setdefault(sp.name, []).append(sp.end - sp.start)
        if root == ATTRIBUTION_SPAN:
            attributed.add(sp.name)
    out, labelled = {}, []
    for name in names:
        base, _, stat = name.rpartition(".")
        if name in tracer.sums:
            value = tracer.sums[name]
        elif name in tracer.maxima:
            value = tracer.maxima[name]
        elif stat == "self_s":
            value = sum(st for sp, root, st in zip(spans, roots, selfs)
                        if root == OP_SPAN and sp.name.startswith(base + "."))
        elif stat in SPAN_STATS:
            d = durations.get(base, [])
            value = {"calls": len(d), "total_s": sum(d),
                     "p50_us": statistics.median(d) * 1e6 if d else 0.0,
                     "wall_s": statistics.median(d) if d else 0.0}[stat]
            if base in attributed:
                labelled.append(name)
        else:
            value = 0.0
        out[name] = float(value)
    return out, labelled


def write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sp in tracer.spans:
            fh.write(json.dumps([sp.name, sp.start, sp.end, sp.parent, sp.op_id]) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    wl = importlib.import_module(f"workloads.{args.workload}")
    ctx = wl.setup(args.workdir, args.seed)
    wl.warmup(ctx, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    result = {"workload": args.workload, "setup_s": setup_s,
              "known_defects": wl.KNOWN_DEFECTS}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if not args.trace:
        phase = run_phase(wl, ctx, args.seed, (NullTracer(),), rounds_for(wl, args.seconds))
        result["metrics"], result["summary"] = end_to_end(wl, phase, setup_s)
        print(json.dumps(result))
        return 0

    # Every op runs twice, untraced and traced, for half the rounds.
    tracer = Tracer()
    phase = run_phase(wl, ctx, args.seed, (NullTracer(), tracer),
                      max(1, rounds_for(wl, args.seconds) // 2))
    wl.extras(ctx, tracer)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    metrics, labelled = layer_metrics(tracer, names)
    if "trace_overhead_frac" in metrics:
        metrics["trace_overhead_frac"] = (sum(op.latency_s for op in phase.ops if op.traced)
                                          / sum(op.latency_s for op in phase.ops if not op.traced)
                                          - 1.0)
    write_spans(tracer, os.path.join(args.workdir, f"spans-seed{args.seed}.jsonl"))
    result["metrics"] = metrics
    result["attribution"] = labelled
    result["summary"] = summarize(phase, wl.KNOWN_DEFECTS)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
