"""Command-line driver: qsl-lab <task> [--scenario PATH] [--out PATH] ..."""

from __future__ import annotations

import argparse
import sys

from .errors import QslError, ValidationError
from .scenarios import bundled_scenario, emit, parse_scenario, run, run_reproduce

TASKS = ("bound", "compare", "sweep", "evolve", "interfere", "reproduce")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsl-lab",
        description="Coherence-based quantum-speed-limit bounds, checks, and protocol simulation.")
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task, help=f"run a {task} scenario")
        p.add_argument("--scenario", default=None,
                       help="scenario JSON file (reproduce runs the bundled suite by default)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", default="csv", choices=("csv", "json"))
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--shots", type=int, default=None, help="override the shot count")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.task == "reproduce" and args.scenario is None:
            table = run_reproduce()
        else:
            path = args.scenario or _default_scenario(args.task)
            scenario = parse_scenario(path)
            if scenario.task != args.task:
                raise ValidationError(
                    f"task: scenario declares '{scenario.task}', command is '{args.task}'")
            if args.seed is not None:
                scenario.options["seed"] = args.seed
                scenario.options["seeds"] = [args.seed]
            if args.shots is not None:
                scenario.options["shots"] = args.shots
            table = run(scenario)
        emit(table, args.format, args.out)
    except QslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.task == "reproduce" and not table.metadata.get("all_passed", True):
        failed = [r[0] for r in table.rows if not r[4]]
        print(f"reproduction failures: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


def _default_scenario(task: str) -> str:
    defaults = {"bound": "case1", "compare": "case3", "sweep": "sweep",
                "evolve": "markovian", "interfere": "interfere"}
    return bundled_scenario(defaults[task])


if __name__ == "__main__":
    raise SystemExit(main())
