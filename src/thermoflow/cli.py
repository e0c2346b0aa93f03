"""Batch command-line front-end.

Loads a JSON experiment config, applies flag overrides, runs the experiment
(or its sweep) deterministically, and writes CSV/JSON outputs
plus a manifest.  Exit codes: 0 success, 2 config error, 3 numeric-gate
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import ValidationError
from .experiments import (
    ConfigError,
    EXPERIMENTS,
    NumericError,
    run_experiment,
)

WORKERS_ENV = "THERMOFLOW_WORKERS"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoflow",
        description="Work-extraction experiments under partial thermalization.",
    )
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--experiment", choices=sorted(EXPERIMENTS), help="experiment preset to run")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a parameter (JSON-parsed value); repeatable",
    )
    parser.add_argument("--workers", help="processes, counting this one, at most one per core, or 'auto' (one per "
                        "core); helpers start only when the first tasks' pace says the rest outweighs pool start-up "
                        "(default: env %s, else 1)" % WORKERS_ENV)
    parser.add_argument("--seed", type=int, help="64-bit master seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="table output format")
    return parser


def _parse_override(item: str) -> tuple[str, object]:
    if "=" not in item:
        raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
    key, raw = item.split("=", 1)
    key = key.strip()
    if not key:
        raise ConfigError(f"--set expects a parameter name, got {item!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    except RecursionError:  # nested deeper than the decoder's recursion limit, as a --config file is refused
        raise ConfigError(f"--set {key}: value is nested too deeply to parse") from None
    return key, value


def _load_config(args) -> dict:
    config: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        except (OSError, UnicodeDecodeError, RecursionError) as exc:  # a directory, bytes not UTF-8, too deep nesting
            raise ConfigError(f"config file cannot be read: {exc}")
        if not isinstance(config, dict):
            raise ConfigError("config file must contain a JSON object")
    if args.experiment:
        config["experiment"] = args.experiment
    if "experiment" not in config:
        raise ConfigError("no experiment selected: pass --experiment or a config file")
    if args.overrides:
        params = config.get("parameters", {})
        if not isinstance(params, dict):  # refused as resolve_config refuses it, before --set merges into it
            raise ConfigError("parameters: expected a JSON object")
        params = dict(params)
        for item in args.overrides:
            key, value = _parse_override(item)
            params[key] = value
        config["parameters"] = params
    if args.seed is not None:
        config["master_seed"] = args.seed
    if args.out:
        config["output_dir"] = args.out

    workers = args.workers if args.workers is not None else os.environ.get(WORKERS_ENV)
    if workers is not None:
        if workers != "auto":
            try:
                workers = int(workers)
            except ValueError:
                raise ConfigError(f"workers: expected an integer or 'auto', got {workers!r}")
        config["workers"] = workers
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        manifest = run_experiment(config, output_format=args.format)
    except (ConfigError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    for name, rows, digest in manifest.outputs:
        print(f"{name}  rows={rows}  sha256={digest[:12]}")
    print(f"config hash: {manifest.config_hash}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
