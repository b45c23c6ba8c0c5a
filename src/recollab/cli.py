"""Command-line interface.

Exit codes: 0 success, 1 task-level or data-level failures were present
(or a backend failed outside a run, e.g. during export-tuning), 2
configuration or usage error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .backends.types import BackendError
from .config import PIPELINES, ConfigError, load_config
from .datamodel import DatasetError
from .runner import cmd_export_tuning, cmd_report, cmd_run, cmd_validate


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recollab",
        description=(
            "Referring-expression evaluation harness: route tasks between a "
            "specialist grounder and an MLLM, or let the MLLM pick among "
            "specialist candidates, then score the predictions."
        ),
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-c", "--config", required=True, help="path to the YAML run config")
    # the settings a run is made under; ``report`` takes them too, to find its log. A command
    # checks only its split and the fixture directories of the roles it calls (report: none)
    overrides = argparse.ArgumentParser(
        add_help=False, parents=[common], argument_default=argparse.SUPPRESS
    )
    overrides.add_argument("--pipeline", choices=PIPELINES, help="override the configured pipeline")
    overrides.add_argument("--seed", type=int, help="override the configured seed")
    overrides.add_argument("--output-dir", help="override the configured output directory")

    sub.add_parser(
        "validate", parents=[common], help="load configured datasets and check their counts"
    )

    sub.add_parser(
        "run", parents=[overrides], help="evaluate the configured pipeline on the test split"
    )

    sub.add_parser(
        "export-tuning",
        parents=[common],
        help="export multiple-choice tuning samples from the train split",
    )

    p_report = sub.add_parser(
        "report", parents=[overrides], help="re-render the report from an existing prediction log"
    )
    p_report.add_argument("--log", help="prediction log path (default: <output_dir>/predictions.jsonl)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        given = {k: v for k, v in vars(args).items() if k in ("pipeline", "seed", "output_dir")}
        cfg = replace(load_config(args.config), **given)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "export-tuning":
            return cmd_export_tuning(cfg)
        if args.command == "report":
            return cmd_report(cfg, Path(args.log) if args.log else None)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DatasetError, BackendError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
