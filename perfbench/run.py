"""qsl-lab benchmark.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Runs each workload in fresh worker processes (see README.md). With --trace 0
the last line of standard output is the end-to-end result; with --trace 1 it
is the per-layer result of a traced run. `--workload all` runs every
workload (and, with --trace 1, its traced run too) and can write everything
with the environment to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".out")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # per workload run; the contract allows 180
# printed, not in BENCHMARK.json
UNGATED_UNITS = {"failed_frac": "frac", "latency_p50_ms": "ms", "latency_tail_ms": "ms"}


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("QSL_LAB_THREADS", None)  # measure the program's default pool
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool,
          deadline: float) -> dict:
    workdir = os.path.join(WORK, workload)
    os.makedirs(workdir, exist_ok=True)
    spawned = time.monotonic()
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--spawned-at", repr(spawned), "--workdir", workdir]
    if setup_only:
        argv.append("--setup-only")
    remaining = deadline - spawned
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    # Its own session, so that on time-out the worker and any cli child it
    # started are stopped together.
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=worker_env(),
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # it ended just now
            pass
        proc.communicate()
        raise BenchError(f"{workload} worker did not finish in time") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: returns the contract's result plus details for humans."""
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not trace:  # set-up is measured several times; its median is reported
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(workload, seed, seconds, 0, True, deadline)["setup_s"])
    res = spawn(workload, seed, seconds, trace, False, deadline)
    setups.append(res["setup_s"])
    s = res["summary"]
    if trace:
        wanted, values = spec["per_layer"], res["metrics"]
    else:
        wanted, values = spec["end_to_end"], dict(res["metrics"], setup_s=statistics.median(setups))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}")
    result = {
        "correct": not s["unexpected"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "setup_samples_s": setups, "summary": s, "known_defects": res["known_defects"],
              "all_metrics": values, "attribution": res.get("attribution", [])}
    return {"result": result, "detail": detail}


def report(run: dict) -> None:
    """Human-readable lines; the contract's JSON line is printed separately."""
    d, r = run["detail"], run["result"]
    s = d["summary"]
    mode = "traced" if d["trace"] else "tracing off"
    print(f"== {d['workload']}  seed {d['seed']}  {d['seconds']:g} s  {mode} ==")
    units = dict(UNGATED_UNITS, **{m: v["unit"] for m, v in r["metrics"].items()})
    for name, value in d["all_metrics"].items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{s['tail_percentile']:.2f} of {s['samples']} samples)"
        elif name == "setup_s":
            note = "  (median of " + ", ".join(f"{x:.3f}" for x in d["setup_samples_s"]) + ")"
        elif name == "failed_frac":
            note = f"  ({s['failed']} of {s['attempted']} ops)"
        elif name in d["attribution"]:
            note = "  [attribution: separate call on the same inputs]"
        print(f"  {name:<52} {value:>14.6g} {units[name]:<6}{note}")
    print("  class medians (ms): " + ", ".join(
        f"{c} {v * 1e3:.3g}" for c, v in s["class_median_s"].items()))
    if s["violations"]:
        print("  violations: " + ", ".join(f"{k} x{v}" for k, v in sorted(s["violations"].items())))
        for k, why in d["known_defects"].items():
            if k in s["violations"]:
                print(f"    known defect {k}: {why}")
    if s["unexpected"]:
        print("  UNEXPECTED failures: " + ", ".join(s["unexpected"]))


def blas_threads():
    """OpenBLAS thread count as numpy's bundled library reports it (read only)."""
    import ctypes
    import glob
    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(), "machine": platform.machine(),
            "platform": platform.platform()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="with --workload all: write every result here as JSON")
    args = p.parse_args(argv)

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if not os.path.isfile(os.path.join(ROOT, "src", "qsl_lab", "__init__.py")):
            raise BenchError("the program's source (src/qsl_lab) is not in this checkout")
        if args.workload != "all":
            if args.workload not in names:
                raise BenchError(f"unknown workload {args.workload!r}; one of {names}")
            run = run_workload(spec, args.workload, args.seed, args.seconds, args.trace)
            report(run)
            print(json.dumps(run["result"]))
            return 0
        runs = {}
        for name in names:
            for trace in ((0, 1) if args.trace else (0,)):
                run = run_workload(spec, name, args.seed, args.seconds, trace)
                report(run)
                print(json.dumps(run["result"]))
                runs.setdefault(name, {})["traced" if trace else "untraced"] = run
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump({"env": environment(), "seed": args.seed, "seconds": args.seconds,
                           "runs": runs}, fh, indent=1)
                fh.write("\n")
        return 0
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
