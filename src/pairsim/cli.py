"""Command-line interface.

Subcommands::

    pairsim preset  [--out FILE]
    pairsim run     --config PATH [--trials N] [--seed S] [--out DIR]
                    [--set key=value ...] [--workers N] [--keep-events]
    pairsim sweep   --config PATH --param NAME --values v1,v2,...
                    [--trials N] [--seed S] [--out DIR] [--set ...] [--workers N]
    pairsim oracle  --config PATH [--out DIR] [--set ...]
    pairsim compare --config PATH [--trials N] [--seed S]
                    [--out DIR] [--set ...] [--workers N]

Exit codes: 0 success, 2 configuration or usage error, 3 I/O error,
1 any other failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import render_report
from .config import ConfigError, ExperimentConfig, parse_config, parse_value, \
    reference_preset, render_config, render_value
from .engine import (check_sweep_parameter, export_run, export_sweep,
                     render_run_report, simulate_run, sweep)
from .oracle import FLAG_THRESHOLD, compare, oracle_report

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _load_config(args) -> ExperimentConfig:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"{args.config} is not UTF-8 text") from None
    config = parse_config(text)
    overrides = {}
    for override in args.overrides:
        if "=" not in override:
            raise ConfigError(f"--set expects key=value, got {override!r}")
        key, _, value = override.partition("=")
        key = key.strip()
        if key in overrides:
            raise ConfigError(f"--set repeats key {key!r}")
        overrides[key] = parse_value(key, value.strip())
    return replace(config, **overrides)


def _cmd_preset(args) -> int:
    text = render_config(reference_preset())
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _load_config(args)
    result = simulate_run(config, trials=args.trials, seed=args.seed,
                          workers=args.workers)
    sys.stdout.write(render_run_report(result))
    if args.out:
        manifest = export_run(result, args.out, keep_events=args.keep_events)
        print(f"# exported {len(manifest.outputs)} files to {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    check_sweep_parameter(args.param, args.trials)
    values = [parse_value(args.param, v.strip())
              for v in args.values.split(",") if v.strip()]
    rows = sweep(config, args.param, values, trials=args.trials, seed=args.seed,
                 workers=args.workers)
    header = ["value", "g11", "g22", "g12", "ratio", "significance", "verdict"]
    print(",".join(header))
    for row in rows:
        print(",".join(render_value(row[h]) for h in header))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        export_sweep(rows, out / f"sweep_{args.param}.csv")
        print(f"# wrote {out / f'sweep_{args.param}.csv'}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    config = _load_config(args)
    prediction = oracle_report(config)
    report = render_report(prediction.report, singles=prediction.singles, trials=0)
    sys.stdout.write(report)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "oracle_patterns.csv", "w") as fh:
            fh.write("pattern_a,pattern_b,pattern_c,pattern_d,probability\n")
            for mask in range(16):
                bits = [(mask >> bit) & 1 for bit in range(4)]
                fh.write(",".join(str(b) for b in bits)
                         + f",{render_value(float(prediction.pattern.probs[mask]))}\n")
        (out / "oracle_report.txt").write_text(report)
        print(f"# wrote oracle report and patterns to {out}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    config = _load_config(args)
    prediction = oracle_report(config)
    result = simulate_run(config, trials=args.trials, seed=args.seed,
                          workers=args.workers)
    mc_g = {"g11": result.g["11"], "g22": result.g["22"], "g12": result.g["12"]}
    rows = compare(result.pattern_counts, mc_g, prediction, result.trials)
    table = "quantity,mc,oracle,sigma_mc,z,flagged\n" + "".join(
        f"{row.quantity},{row.mc_value!r},{row.oracle_value!r},"
        f"{row.sigma!r},{row.z!r},{row.flagged}\n" for row in rows)
    sys.stdout.write(table)
    flagged = [row for row in rows if row.flagged]
    print(f"# {len(flagged)} of {len(rows)} quantities flagged "
          f"(|z| > {FLAG_THRESHOLD:g})")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "compare.csv").write_text(table)
        print(f"# wrote {out / 'compare.csv'}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError(
            f"must be a 64-bit unsigned integer, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser, trials: bool = True) -> None:
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key (repeatable)")
    if trials:
        parser.add_argument("--trials", type=_positive_int, default=None,
                            help="override n_trials")
        parser.add_argument("--seed", type=_seed, default=None,
                            help="override rng_seed")
        parser.add_argument("--workers", type=_positive_int, default=1,
                            help="parallel workers (results identical for any count)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairsim",
        description="Monte Carlo simulator for time-delayed photon-pair "
                    "coincidence experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_preset = sub.add_parser("preset", help="print the reference configuration")
    p_preset.add_argument("--out", default=None, help="write to file instead")
    p_preset.set_defaults(func=_cmd_preset)

    p_run = sub.add_parser("run", help="simulate one run and report correlations")
    _add_common(p_run)
    p_run.add_argument("--out", default=None, help="export directory")
    p_run.add_argument("--keep-events", action="store_true",
                       help="also persist raw click events (needs --out)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="repeat a run over parameter values")
    _add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, help="config field to sweep")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated parameter values")
    p_sweep.add_argument("--out", default=None, help="export directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="analytic prediction for a config")
    _add_common(p_oracle, trials=False)
    p_oracle.add_argument("--out", default=None, help="export directory")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_compare = sub.add_parser("compare",
                               help="simulate and z-score against the oracle")
    _add_common(p_compare)
    p_compare.add_argument("--out", default=None, help="export directory")
    p_compare.set_defaults(func=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "keep_events", False) and args.out is None:
        parser.error("--keep-events needs --out: without it nothing is written")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # Bad user input surfaces as ConfigError or an argparse usage error,
        # so any other ValueError is an internal failure, not the user's.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
