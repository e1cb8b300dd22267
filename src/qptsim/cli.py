"""Command-line front end.

Exit codes: 0 success, 2 configuration error, 3 data error.  A reader that
closes stdout early (``| head -1``), or an unwritable stdout (``> /dev/full``),
is no error: the progress lines that cannot be written are dropped, every file
is still written and the exit code is unchanged.
With stderr closed (``2>&-``) or unwritable, the error line is dropped and
the exit code is still 2 or 3.  ``reconstruct`` flags a mixed output under a
pure-state estimator in one ``warning:`` line on stderr, whatever Python's warning filter.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import re
import sys

from .errors import ConfigError, DataError, PlanError
from .pipeline import (
    PRESETS,
    _say,
    load_config,
    load_preset,
    run_pipeline,
    run_plotdata,
    run_reconstruct,
    run_simulate,
)

_COMMANDS = {
    "simulate": run_simulate,
    "reconstruct": run_reconstruct,
    "plotdata": run_plotdata,
    "pipeline": run_pipeline,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qptsim",
        description=(
            "Simulate coincidence measurements on one arm of an entangled photon "
            "pair and reconstruct the device in that arm by linear inversion."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "draw coincidence events and write the event log"),
        ("reconstruct", "estimate state/unitary/Choi from the event log"),
        ("plotdata", "emit the bar-chart table of a result document"),
        ("pipeline", "simulate, reconstruct and emit plot data in one run"),
    ):
        p = sub.add_parser(name, help=help_text)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", metavar="PATH", help="JSON config file")
        src.add_argument("--preset", metavar="NAME", choices=PRESETS,
                         help=f"bundled config: {', '.join(PRESETS)}")
        p.add_argument("--out", metavar="DIR", default=".",
                       help="directory for outputs (default: current directory)")
        p.add_argument("--seed", default=None,
                       help="override the plan seed from the config")
    return parser


def _seed(text: str):
    """The integer that ``--seed`` spells, else the text, for the plan to refuse.  A digit
    string too long for int() stands in as a power of ten with as many digits."""
    try:
        return int(text)
    except ValueError:
        if not (spelled := re.fullmatch(r"\s*([+-]?)0*(\d+)\s*", text)):
            return text
    sign, digits = spelled.groups()
    # int() converts 640 digits under any limit; the plan shows a longer seed by its length
    return int(sign + digits) if len(digits) <= 640 else int(sign + "1") * 10 ** (len(digits) - 1)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_preset(args.preset) if args.preset else load_config(args.config)
        if args.seed is not None:
            if cfg.plan is None:
                raise ConfigError("--seed: an exact-statistics config has no plan seed")
            try:
                plan = dataclasses.replace(cfg.plan, seed=_seed(args.seed))
            except PlanError as exc:
                raise ConfigError(f"--seed: {exc.problem}") from None
            cfg = dataclasses.replace(cfg, plan=plan)
        _COMMANDS[args.command](cfg, out_dir=args.out)
    except (ConfigError, DataError) as exc:
        kind, code = ("config", 2) if isinstance(exc, ConfigError) else ("data", 3)
        _say(f"{kind} error: {exc}", err=True)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
