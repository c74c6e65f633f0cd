"""Command-line interface: verify (batch suites), certify, wrad.

Exit codes: 0 when every check passes, 1 when any check fails, 2 for
configuration or input-file problems.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from . import g1gen, serialize, wradius
from .errors import (
    CertificationFailed,
    ConfigError,
    G1RadError,
    IoError,
    ParseError,
    SpectrumOnBoundary,
)
from .runner import (
    ALL_SUITES,
    REPORT_FORMATS,
    TrialConfig,
    load_operator,
    render_report,
    report_json,
    run_suite,
    run_trial,
)


def _parse_dims(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"bad dims list {text!r}") from exc


def _parse_suites(text: str) -> tuple:
    if text.strip() == "all":
        return ALL_SUITES
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_replay(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("--replay expects SUITE:DIM:TRIAL")
    suite = parts[0]
    try:
        dim, trial = int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad replay spec {text!r}") from exc
    if dim < 1 or trial < 0:
        raise ConfigError("replay dim must be >= 1 and trial >= 0")
    return suite, dim, trial


def _write_report(path: str, text: str, mode: str = "w") -> None:
    try:
        with open(path, mode, encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise IoError(f"cannot write report to {path}: {exc}") from exc


def _emit(path: str | None, text: str) -> None:
    """Write a report to stdout, or to path when one is given."""
    if path is None:
        sys.stdout.write(text)
    else:
        _write_report(path, text)
        print(f"report written to {path}", file=sys.stderr)


def _cmd_verify(args) -> int:
    config = TrialConfig(
        master_seed=args.seed,
        dims=_parse_dims(args.dims),
        trials_per_suite=args.trials,
        rho_max=args.rho_max,
        atoms=args.atoms,
        suites=_parse_suites(args.suites),
        report_format=args.format,
    )
    if args.replay is not None:
        suite, dim, trial = _parse_replay(args.replay)
        if suite not in config.suites:
            raise ConfigError(f"replay suite {suite!r} not in the selected suites")
        # the replayed trial's own config, which the size guard checks before any draw
        config = dataclasses.replace(config, suites=(suite,), dims=(dim,))
        report = run_trial(config, suite, dim, trial)
        if config.report_format == "csv":  # the header and the row a batch writes for it
            _emit(args.out, render_report([], [report], "csv", config))
        else:
            _emit(args.out, report_json(report) + "\n")
        return 0 if report.passed else 1

    if args.out is not None:
        # an unwritable path fails before the first trial, not after the run;
        # appending nothing leaves an existing file as it is until then
        _write_report(args.out, "", "a")
    wall0, cpu0 = time.perf_counter(), time.process_time()
    result = run_suite(config)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    for suite in result.suites:
        print(
            f"{suite.suite}: {suite.passed}/{suite.total} passed, "
            f"max ratio {suite.max_ratio:.6f}, trial time {suite.trial_time:.2f}s",
            file=sys.stderr,
        )
    print(f"total: wall {wall:.2f}s, cpu {cpu:.2f}s", file=sys.stderr)
    _emit(args.out, render_report(result.suites, result.details, config.report_format, config))
    all_passed = all(s.passed == s.total for s in result.suites)
    print("RESULT: " + ("PASS" if all_passed else "FAIL"), file=sys.stderr)
    return 0 if all_passed else 1


def _cmd_certify(args) -> int:
    try:
        op = load_operator(args.input, circle_samples=args.samples)
    except CertificationFailed as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 1
    payload = {
        "certificate": float(op.certificate),
        "d": float(op.d),
        "n": op.dim,
        "unitary": op.unitary is not None,
    }
    sys.stdout.write(serialize.dumps(payload) + "\n")
    return 0


def _cmd_wrad(args) -> int:
    matrix = serialize.matrix_from_json(serialize.read_json(args.input))
    try:
        result = wradius.numerical_radius(matrix)
    except OverflowError:
        print(f"error: the numerical radius of {args.input} exceeds the largest double",
              file=sys.stderr)
        return 2
    payload = {
        "value": result.value,
        "theta_star": result.theta_star,
        "grid_points": result.grid_points,
    }
    sys.stdout.write(serialize.dumps(payload) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g1rad",
        description="Randomized verification of numerical-radius inequalities "
                    "for growth-condition operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run inequality suites on seeded random instances")
    verify.add_argument("--suites", default="all",
                        help="comma-separated suite names, or 'all'")
    verify.add_argument("--dims", default=",".join(map(str, TrialConfig.dims)),
                        help="comma-separated dimensions")
    verify.add_argument("--trials", type=int, default=TrialConfig.trials_per_suite,
                        help="trials per (suite, dim)")
    verify.add_argument("--seed", type=int, default=TrialConfig.master_seed, help="master seed")
    verify.add_argument("--rho-max", type=float, default=TrialConfig.rho_max, dest="rho_max",
                        help="spectral radius bound for generated operators")
    verify.add_argument("--atoms", type=int, default=TrialConfig.atoms,
                        help="atoms per generated boundary measure")
    verify.add_argument("--format", choices=REPORT_FORMATS, default=TrialConfig.report_format)
    verify.add_argument("--out", default=None, help="report path (default: stdout)")
    verify.add_argument("--replay", default=None, metavar="SUITE:DIM:TRIAL",
                        help="re-run one trial and write its report")
    verify.set_defaults(func=_cmd_verify)

    certify = sub.add_parser("certify", help="check an operator file against the growth condition")
    certify.add_argument("--input", required=True, help="operator JSON file")
    certify.add_argument("--samples", type=int, default=g1gen.CIRCLE_SAMPLES,
                         help="points per sampling circle")
    certify.set_defaults(func=_cmd_certify)

    wrad = sub.add_parser("wrad", help="print the numerical radius of a matrix file")
    wrad.add_argument("--input", required=True, help="matrix JSON file")
    wrad.set_defaults(func=_cmd_wrad)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, SpectrumOnBoundary, IoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except G1RadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
