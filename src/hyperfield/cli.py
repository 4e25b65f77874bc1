"""Operator surface: one sub-command per stage plus ``run-all``.

Every command runs its stage, or every stage but synth, in one ``run_all``.
Exit codes are stable: 0 success, 2 config error, 3 dependency error
(a required stage has not run), 4 data error, 5 numeric divergence,
1 unexpected crash. The ``HYPERFIELD_LOG`` environment variable sets
the log level (DEBUG, INFO, WARNING, ERROR); the default is WARNING.

BLAS runs on one thread in this process, whatever the environment
says. The other cores go to the hasher's worker threads, which a second
BLAS thread spinning between the MLP's small products would compete with.
BLAS reads its thread count when numpy loads, so it is set before
anything imports numpy.

Importing this module loads only the standard library and the
pipeline's bookkeeping. numpy and each layer module load when a stage
body first runs, so a ``run-all`` whose stages all skip loads none of
them.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

from .config import load_config
from .errors import ConfigError, HyperfieldError, exit_code_for
from .pipeline import STAGE_ORDER, STAGES, run_all


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperfield",
        description="plot-scale yield phenotyping pipeline",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI config file")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--seed", type=int, metavar="N",
                        help="override the synth, split, and train seeds")
    common.add_argument("--stage-force", action="store_true",
                        help="rerun even when the stage manifest matches")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, stage in STAGES.items():
        sub.add_parser(name, parents=[common], help=stage.help)
    sub.add_parser("run-all", parents=[common],
                   help="every pipeline stage in order (synth not included)")
    return parser


def _setup_logging() -> None:
    name = os.environ.get("HYPERFIELD_LOG", "WARNING").upper()
    level = logging.getLevelName(name)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.out is not None:
            config.set("output", "dir", args.out)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be non-negative")
            for section in ("synth", "split", "train"):
                config.set(section, "seed", str(args.seed))

        stages = STAGE_ORDER if args.command == "run-all" else (args.command,)
        run_all(config, args.stage_force, stages)
    except HyperfieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
