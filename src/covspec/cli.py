"""Command-line entry point: analyze, synth, and validate subcommands."""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import validate_config
from .errors import ConfigError, CovspecError
from .runner import run_analysis, run_synth


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covspec",
        description="Spectral and subspace diagnostics of rolling weighted "
        "covariance matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "analyze": "run the configured analyses and write a report bundle",
        "synth": "generate a synthetic price/return CSV from an ensemble spec",
        "validate": "check a config file and print the resolved settings",
    }
    for name, help_text in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="flat key=value config file")
        cmd.add_argument("--out", metavar="DIR", help="output directory override")
        cmd.add_argument("--seed", type=int, metavar="S", help="ensemble seed override")
        cmd.add_argument("--format", choices=("csv", "json"), help="tabular output format")
        cmd.add_argument(
            "--set",
            action="append",
            default=[],
            dest="sets",
            metavar="KEY=VALUE",
            help="override any config key (repeatable)",
        )
    return parser


def _collect_overrides(args) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for item in args.sets:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ConfigError([f"--set expects KEY=VALUE, got {item!r}"])
        overrides[key.strip()] = value.strip()
    if args.out is not None:
        overrides["output.dir"] = args.out
    if args.seed is not None:
        overrides["ensemble.seed"] = str(args.seed)
    if args.format:
        overrides["output.format"] = args.format
    return overrides


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    level_name = os.environ.get("COVSPEC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level_name, logging.WARNING))

    try:
        overrides = _collect_overrides(args)
        if args.command == "validate":
            config = validate_config(args.config, overrides)
            for key, value in config.flat().items():
                print(f"{key} = {value}")
            print(f"output.dir = {config.output_dir}")
            return 0
        if args.command == "synth":
            config = validate_config(args.config, overrides, require_analyses=False)
            path = run_synth(config)
            print(path)
            return 0
        config = validate_config(args.config, overrides)
        bundle = run_analysis(config)
        for name in bundle.files:
            print(os.path.join(bundle.output_dir, name))
        print(bundle.manifest_path)
        return 0
    except ConfigError as exc:
        for message in exc.errors:
            print(f"error: {message}", file=sys.stderr)
        return 1
    except (CovspecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
