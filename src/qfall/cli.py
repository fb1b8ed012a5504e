"""Command-line entry point.

Subcommands map one-to-one onto the experiments: `drop` (two-particle
Galileo pair), `ep-test` (gravity versus accelerated frame), `sweep`
(mass and state scaling fits), `decohere` (pure cat versus its diagonal
mixture), and `validate` (the analytic-vs-numeric oracle suite).

Exit codes: 0 success, 2 configuration error, 3 solver error,
4 validation failure. Failures also emit a machine-readable JSON error
record on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

from ._version import __version__
from .config import parse_config, parse_config_text, DEFAULT_CONFIG_TEXT
from .errors import ConfigurationError, InfeasibleTargetError, SimulationError
from .evolve import SNAPSHOT_FORMATS
from .experiments import (
    run_decoherence_comparison,
    run_equivalence_test,
    run_galileo_pair,
    run_mass_sweep,
)
from . import validate as validate_module

__all__ = ["main"]

_COMMANDS = {
    "drop": run_galileo_pair,
    "ep-test": run_equivalence_test,
    "sweep": run_mass_sweep,
    "decohere": run_decoherence_comparison,
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first `main` call; each
    `parse_args` fills a fresh namespace, so calls share no state."""
    parser = argparse.ArgumentParser(
        prog="qfall",
        description="quantum free-fall drops, arrival-time statistics, and "
                    "equivalence-principle checks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("drop", "two-particle Galileo drop"),
            ("ep-test", "gravity vs uniformly accelerated frame"),
            ("sweep", "mass and state scaling sweeps with power-law fits"),
            ("decohere", "pure cat vs diagonal mixture"),
            ("validate", "run the analytic-vs-numeric oracle suite")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", default=None, metavar="PATH",
                         help="experiment config file (defaults built in)")
        cmd.add_argument("--out", default=None, metavar="DIR",
                         help="output directory (overrides config)")
        cmd.add_argument("--threads", type=int, default=None, metavar="N",
                         help="worker threads for sweep points")
        cmd.add_argument("--strict", action="store_true",
                         help="reject unknown config keys")
        cmd.add_argument("--snapshots", metavar="MODE",
                         help="'none' or 'strided:K' field snapshot dumps "
                              "(default: the config's [solver] "
                              "snapshot_stride)")
        cmd.add_argument("--snapshot-format", choices=SNAPSHOT_FORMATS,
                         help="default: the config's [solver] snapshot_format")
    return parser


def _parse_snapshots(mode: str) -> int:
    if mode == "none":
        return 0
    if mode.startswith("strided:"):
        try:
            stride = int(mode.split(":", 1)[1])
        except ValueError:
            raise ConfigurationError(
                f"bad --snapshots value {mode!r}; use 'none' or 'strided:K'")
        if stride < 1:
            raise ConfigurationError("snapshot stride must be >= 1")
        return stride
    raise ConfigurationError(
        f"bad --snapshots value {mode!r}; use 'none' or 'strided:K'")


def _emit_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, InfeasibleTargetError):
        payload["v_max"] = exc.v_max
    json.dump(payload, sys.stderr)
    sys.stderr.write("\n")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        if args.command == "validate":
            print(f"qfall {__version__} oracle suite")
            return EXIT_OK if validate_module.run_all() else EXIT_CHECK

        config = (parse_config(args.config, strict=args.strict)
                  if args.config else
                  parse_config_text(DEFAULT_CONFIG_TEXT, strict=args.strict))
        overrides = {}
        if args.out is not None:
            overrides["output_dir"] = args.out
        if args.threads is not None:
            overrides["threads"] = max(1, args.threads)
        solver = config.solver
        overrides["solver"] = replace(
            solver,
            snapshot_stride=(solver.snapshot_stride if args.snapshots is None
                             else _parse_snapshots(args.snapshots)),
            snapshot_format=args.snapshot_format or solver.snapshot_format)
        config = replace(config, **overrides)

        report = _COMMANDS[args.command](config)
        # Invocation provenance on top of the experiment's own manifest.
        report.manifest.update(
            command=args.command, units=report.manifest["config"]["units"],
            solver=report.manifest["config"]["solver"])
        paths = report.write(config.output_dir)
    except InfeasibleTargetError as exc:
        _emit_error(exc)
        return EXIT_SOLVER
    except ConfigurationError as exc:
        _emit_error(exc)
        return EXIT_CONFIG
    except SimulationError as exc:
        _emit_error(exc)
        return EXIT_SOLVER

    print(f"{args.command}: config digest {report.digest}")
    for key, value in report.summary.items():
        print(f"  {key} = {value}")
    for fit_name, fit in report.fits.items():
        print(f"  fit {fit_name}: slope = {fit['slope']:.6f} "
              f"+- {fit['stderr']:.2e} (expected {fit['expected']})")
    for path in paths:
        print(f"  wrote {path}")
    if args.command == "ep-test" and not report.summary.get("passed", True):
        return EXIT_CHECK
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
