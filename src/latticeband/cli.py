"""Command-line entry point.

    latticeband run <scenario-file> [--out DIR] [--grid N] [--tol X]
    latticeband validate <scenario-file> [--out DIR] [--grid N] [--tol X]

Exit codes: 0 success, 1 configuration error, 2 numerical failure (an
out-of-memory failure included), 3 oracle validation mismatch.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import __version__
from .errors import ConfigError, NumericalError
from .scenario import parse_scenario_file, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VALIDATION = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticeband",
        description=(
            "Band/gap structure of one-dimensional lattice Schroedinger operators "
            "with periodic local and tridiagonal nonlocal potentials."
        ),
    )
    parser.add_argument("--version", action="version", version=f"latticeband {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run a scenario file and write its CSV series"),
        ("validate", "cross-check a scenario's band diagram against the counting oracle"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="path to the scenario file")
        p.add_argument("--out", default=None, help="output directory (default: scenario's 'out')")
        p.add_argument("--grid", type=int, default=None, help="energy grid points for edge finding")
        p.add_argument("--tol", type=float, default=None, help="root tolerance for edge bisection")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = parse_scenario_file(args.scenario)
        overrides = {"grid_points": args.grid, "root_tol": args.tol}
        tolerances = replace(
            scenario.tolerances, **{k: v for k, v in overrides.items() if v is not None}
        )
        kind = "validate" if args.command == "validate" else scenario.kind
        # replace re-runs every check, and the manifest hashes what is run
        scenario = replace(scenario, kind=kind, tolerances=tolerances)
        result = run_scenario(scenario, out_dir=args.out)
    except ConfigError as exc:
        print(f"latticeband: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"latticeband: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        # numpy names the array it could not allocate; a bare MemoryError names nothing
        detail = f" ({exc})" if str(exc) else ""
        print(f"latticeband: numerical failure: out of memory{detail}", file=sys.stderr)
        return EXIT_NUMERICAL

    for name in result.files:
        print(f"wrote {result.out_dir}/{name}")
    if result.validation_ok is False:
        print("latticeband: validation mismatch (see validate_report.csv)", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
