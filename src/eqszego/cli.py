"""Command-line entry point for the experiment harness.

One subcommand per experiment; all accept --config plus a handful of
field overrides.  The process exits 0 exactly when every assertion in
the run passed.

    eqszego diagonal --config diag.cfg
    eqszego offdiag --weights "-1 1" --point "0.7071+0j 0.7071+0j" --out run.csv
    eqszego selection --irrep 1 --k "1 2 5 10 20 50 100 200"
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    config_from_mapping,
    parse_config_text,
    run_experiment,
    write_report_csv,
)

_SUBCOMMANDS = {
    "diagonal": "diagonal",
    "offdiag": "offdiagonal",
    "translated": "translated",
    "decay": "decay",
    "selection": "selection",
    "crosscheck": "crosscheck",
    "gaussian": "gaussian",
    "phase": "phase",
}

_HELP = {
    "diagonal": "diagonal scaling against the leading prediction",
    "offdiag": "off-diagonal scaling at sqrt(k)-shrinking displacements",
    "translated": "off-diagonal scaling with a stabilizer translation",
    "decay": "exponential decay off the zero level",
    "selection": "vanishing of mismatched isotypes",
    "crosscheck": "randomized weight-sum vs quadrature agreement",
    "gaussian": "orbit integral closed form vs quadrature",
    "phase": "stationary data of the model phase function",
}


# override flag (argparse dest) -> config key; g0 and h0 exist for translated only
_OVERRIDES = {
    "k": "k_schedule",
    "irrep": "irrep",
    "weights": "weights",
    "point": "point",
    "seed": "seed",
    "out": "output",
    "g0": "g0",
    "h0": "h0",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqszego",
        description="convergence experiments for equivariant kernel asymptotics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, experiment in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=_HELP[name])
        p.set_defaults(experiment=experiment)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--k", help="override k_schedule (space-separated integers)")
        p.add_argument("--irrep", help="override irrep label (space-separated integers)")
        p.add_argument("--weights", help="override weight rows ('-1 1; 0 1')")
        p.add_argument("--point", help="override base point (complex coordinates)")
        p.add_argument("--seed", type=int, help="override random seed")
        p.add_argument("--out", help="override CSV output path")
        if name == "translated":
            p.add_argument("--g0", help="stabilizer element angles (radians)")
            p.add_argument("--h0", help="unit fiber rotation, complex 're+imj'")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    raw: dict[str, str] = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = parse_config_text(fh.read())
    for flag, key in _OVERRIDES.items():
        value = getattr(args, flag, None)
        if value is not None:
            raw[key] = str(value)

    try:
        config = config_from_mapping(raw, experiment=args.experiment)
        report = run_experiment(config)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for line in report.summary_lines():
        print(line)
    if config.output_path and report.rows:
        write_report_csv(config.output_path, report.rows, seed=report.seed)
        print(f"wrote {len(report.rows)} rows to {config.output_path}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
