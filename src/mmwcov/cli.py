"""Command-line entry point.

Usage examples::

    mmwcov fig5 --out results/ --trials 200000 --engines mc,analytic
    mmwcov custom --config my_run.cfg --seed 7 --strict
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .experiments import ConfigError, SCENARIOS, run_experiment, validate_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmwcov",
        description="Coverage experiments for beam-aware serving policies over a "
                    "Poisson field of mmWave transmitters.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True, metavar="|".join(SCENARIOS))
    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", metavar="PATH", help="flat key=value config file")
        p.add_argument("--seed", type=int, help="master seed, 0 <= SEED < 2**128")
        p.add_argument("--trials", type=int, help="Monte Carlo trials per curve")
        p.add_argument("--engines", help="comma list from {mc,analytic,dominant}")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--strict", action="store_true",
                       help="reject unknown config keys instead of warning")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # The scenario and the engines decide which configs cannot run, so they
    # reach the validator as environment overrides (which win over the
    # file), and its checks see the config that will run.
    environ = dict(os.environ, MMWCOV_SCENARIO=args.scenario)
    if args.engines is not None:
        environ["MMWCOV_RUN__ENGINES"] = args.engines
    try:
        config = validate_config(None if args.config is None else Path(args.config),
                                 strict=args.strict, environ=environ)
        for flag in ("seed", "trials"):
            if getattr(args, flag) is not None:
                try:
                    config = replace(config, **{flag: getattr(args, flag)})
                except ConfigError as exc:
                    raise ConfigError(f"--{flag}: {exc}") from None
        overrides = {}
        if args.out is not None:
            overrides["out_dir"] = args.out
        if args.strict:
            overrides["strict"] = True
        config = replace(config, **overrides)
        written = run_experiment(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
