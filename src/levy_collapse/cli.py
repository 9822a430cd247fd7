"""Command line front end: analyze, simulate, validate, tail.

Exit codes: 0 success, 1 failed validation checks, 2 configuration
problems, 3 numeric or domain failures at run time. Every failure path
prints exactly one line `error: <Type>: <message>` on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import runner
from .config import parse_config
from .errors import (
    ConfigError,
    LevyCollapseError,
    ParseError,
    ValidationError,
)

_CONFIG_ERRORS = (ParseError, ValidationError, ConfigError)


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="levy-collapse",
        description="stationary analysis and simulation of reflected "
                    "processes with multiplicative collapses")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, text in (("analyze", "transform grid, moments and constants"),
                       ("simulate", "run one sampling engine and dump CSVs"),
                       ("validate", "run analytic-vs-simulation check suites"),
                       ("tail", "heavy-tail exceedance ratio experiment")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to key = value file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--quiet", action="store_true")
    return ap


def _check_out_dir(path: str) -> None:
    """Refuse, before the run, an output directory that `write_csv` could
    not create; nothing is created, so a failed run leaves none."""
    base = os.path.abspath(path)
    while not os.path.lexists(base):
        base = os.path.dirname(base)
    if not (os.path.isdir(base) and os.access(base, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot create output directory {path}: "
                          f"{base} is not a writable directory")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: ConfigError: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        if args.seed is not None:
            cfg = replace(cfg, master_seed=args.seed)
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        _check_out_dir(cfg.out_dir)
        if args.command == "validate":
            paths, rows = runner.run_validate(cfg)
            if not args.quiet:
                for check, exp, obs, tol, ok in rows:
                    print(f"{'PASS' if ok else 'FAIL'} {check} "
                          f"expected={exp:.10g} observed={obs:.10g} tol={tol:.6g}")
                for p in paths:
                    print(p)
            failed = sum(1 for r in rows if not r[-1])
            if failed:
                print(f"error: ValidationError: {failed} check(s) failed",
                      file=sys.stderr)
                return 1
            return 0
        if args.command == "analyze":
            paths = runner.run_analyze(cfg)
        elif args.command == "simulate":
            paths = runner.run_simulate(cfg)
        else:
            paths = runner.run_tail(cfg)
        if not args.quiet:
            for p in paths:
                print(p)
        return 0
    except _CONFIG_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except LevyCollapseError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
