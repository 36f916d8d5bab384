"""Command-line front end.

Subcommands:
  run SOURCE        run one gallery entry (by name) or scenario file (by path)
  gallery           run the whole gallery, or one entry via --run; --list
                    prints the entry table without executing anything
  validate FILE     schema-check a scenario file; diagnostics are the output
                    and the exit code is always 0

Exit codes for run/gallery: 0 all verdicts pass, 2 any fail verdict or
violated expectation, 3 only inconclusive degradations (--strict turns 3
into 2), 1 configuration or input error.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor

from .errors import FplabError
from .gallery import GALLERY, gallery_names, list_gallery
from .runner import RunResult, run_scenario
from .scenario import load_scenario_file, validate_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fplab",
        description="fixed-point iteration laboratory: traces, certificates, solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a gallery entry or scenario file")
    run.add_argument("source", help="gallery entry name or path to a scenario file")
    _common_flags(run)

    gal = sub.add_parser("gallery", help="run the built-in gallery")
    gal.add_argument("--run", dest="entry", default=None,
                     help="run a single entry instead of the whole gallery")
    gal.add_argument("--list", action="store_true",
                     help="print the entry table and exit")
    gal.add_argument("--jobs", type=int, default=1,
                     help="run gallery entries concurrently (per-entry output dirs)")
    _common_flags(gal)

    val = sub.add_parser("validate", help="schema-check a scenario file")
    val.add_argument("file", help="path to a scenario file")
    return parser


def _common_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--out", default="out", help="output directory (default: out)")
    cmd.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    cmd.add_argument("--budget-scale", type=float, default=None,
                     help="scale the search horizons and sample counts")
    cmd.add_argument("--strict", action="store_true",
                     help="treat inconclusive degradations as failures")


def _print_result(result: RunResult, stream) -> None:
    print(f"{result.name}: exit {result.exit_code}  ({result.out_dir})", file=stream)
    for key in sorted(result.verdicts):
        print(f"  {key}: {result.verdicts[key]}", file=stream)
    for v in result.violations:
        print(f"  EXPECTATION VIOLATED {v['path']}: expected {v['expected']}, "
              f"got {v['actual']}", file=stream)


def _cmd_run(args) -> int:
    result = run_scenario(args.source, args.out, seed=args.seed,
                          budget_scale=args.budget_scale, strict=args.strict)
    _print_result(result, sys.stdout)
    return result.exit_code


def _cmd_gallery(args) -> int:
    if args.list:
        print(list_gallery())
        return 0
    if args.entry is not None:
        if args.entry not in gallery_names():
            print(f"error: unknown gallery entry {args.entry!r}", file=sys.stderr)
            return 1
        args.source = args.entry
        return _cmd_run(args)

    def one(entry) -> RunResult:
        return run_scenario(entry.name, f"{args.out}/{entry.name}", seed=args.seed,
                            budget_scale=args.budget_scale, strict=args.strict)

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(one, GALLERY))
    else:
        results = [one(entry) for entry in GALLERY]

    worst = 0
    for entry, result in zip(GALLERY, results):
        marker = "ok" if result.exit_code == entry.expected_exit else "UNEXPECTED"
        print(f"{entry.name}: exit {result.exit_code} "
              f"(expected {entry.expected_exit}) {marker}")
        for v in result.violations:
            print(f"  EXPECTATION VIOLATED {v['path']}: expected {v['expected']}, "
                  f"got {v['actual']}")
        if result.exit_code != entry.expected_exit or result.exit_code == 2 \
                or result.violations:
            worst = 2
        elif result.exit_code == 3 and worst == 0:  # a fail wins, as in one run
            worst = 3
    return worst


def _cmd_validate(args) -> int:
    try:
        doc = load_scenario_file(args.file)
    except FplabError as exc:
        print(str(exc))
        return 0
    print("\n".join(validate_scenario(doc)) or "ok")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "gallery":
            return _cmd_gallery(args)
        return _cmd_validate(args)
    except FplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
