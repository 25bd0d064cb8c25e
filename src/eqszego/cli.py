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

# subcommand -> (experiment, help)
_SUBCOMMANDS = {
    "diagonal": ("diagonal", "diagonal scaling against the leading prediction"),
    "offdiag": ("offdiagonal", "off-diagonal scaling at sqrt(k)-shrinking displacements"),
    "translated": ("translated", "off-diagonal scaling with a stabilizer translation"),
    "decay": ("decay", "exponential decay off the zero level"),
    "selection": ("selection", "vanishing of mismatched isotypes"),
    "crosscheck": ("crosscheck", "randomized weight-sum vs quadrature agreement"),
    "gaussian": ("gaussian", "orbit integral closed form vs quadrature"),
    "phase": ("phase", "stationary data of the model phase function"),
}

# override flag -> (config key, help); g0 and h0 exist for translated only
_OVERRIDES = {
    "k": ("k_schedule", "override k_schedule (space-separated integers)"),
    "irrep": ("irrep", "override irrep label (space-separated integers)"),
    "weights": ("weights", "override weight rows ('-1 1; 0 1')"),
    "point": ("point", "override base point (complex coordinates)"),
    "seed": ("seed", "override random seed"),
    "out": ("output", "override CSV output path"),
    "g0": ("g0", "stabilizer element angles (radians)"),
    "h0": ("h0", "unit fiber rotation, complex 're+imj'"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqszego",
        description="convergence experiments for equivariant kernel asymptotics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (experiment, text) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(experiment=experiment)
        p.add_argument("--config", help="key = value config file")
        for flag, (_, flag_help) in _OVERRIDES.items():
            if name == "translated" or flag not in ("g0", "h0"):
                p.add_argument(f"--{flag}", type=int if flag == "seed" else None, help=flag_help)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    raw: dict[str, str] = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = parse_config_text(fh.read())
    for flag, (key, _) in _OVERRIDES.items():
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
