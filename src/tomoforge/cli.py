"""Command-line interface.

Every subcommand is a thin wrapper over the library; no numeric logic lives
here. Exit codes: 0 success, 2 input validation failure or a file that
cannot be read or written, 1 numerical failure. A reader that closes
standard output early (``tomoforge enumerate --size 6 | head -1``) ends
the command quietly: nothing on stderr, exit 0. The TOMOFORGE_THRESHOLD
environment variable overrides the default truncation threshold; an
explicit --threshold flag wins over it. Number flags, read-out ids and
TOMOFORGE_THRESHOLD take ASCII numbers without '_', as the files do.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import io as tomoio
from .errors import NumericalError, ValidationError, _ascii_text
from .lsq import (
    DEFAULT_THRESHOLD,
    error_matrix_analysis,
    normal_system,
    psd_project,
    reconstruct,
    relative_error,
)
from .model import (
    N_READOUTS,
    assemble_design,
    matrix_to_params,
    params_to_matrix,
    simulate_readings,
)
from .search import enumerate_minimal_sets, rank_sets_by_conditioning

_ENV_THRESHOLD = "TOMOFORGE_THRESHOLD"


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _number(kind):
    """An argparse type: ``kind`` (int or float) of ASCII text without '_',
    named like ``kind`` so argparse reports "invalid int value: '0_5'"."""
    return functools.wraps(kind)(lambda text: kind(_ascii_text(text)))


def _parse_readout_ids(arg: str) -> list:
    if arg.strip().lower() == "all":
        return list(range(1, N_READOUTS + 1))
    try:
        return [int(_ascii_text(tok)) for tok in arg.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"could not parse read-out ids from {arg!r}") from None


def _resolve_threshold(flag_value) -> float:
    if flag_value is not None:
        value = flag_value
    elif os.environ.get(_ENV_THRESHOLD):
        raw = os.environ[_ENV_THRESHOLD]
        try:
            value = float(_ascii_text(raw))
        except ValueError:
            raise ValidationError(f"{_ENV_THRESHOLD}={raw!r} is not a number") from None
    else:
        value = DEFAULT_THRESHOLD
    return value


def _combination_terms(coeffs) -> str:
    # a built design's combinations are product operators: zeros are exact; a unit vector has a nonzero term
    return " ".join(f"{c:+.4f} x{k + 1}" for k, c in enumerate(coeffs) if c)


def _cmd_analyze(args) -> int:
    ids = _parse_readout_ids(args.readouts)
    threshold = _resolve_threshold(args.threshold)
    design = assemble_design(ids, include_trace=not args.no_trace)
    ns = normal_system(design)
    report = error_matrix_analysis(ns, threshold)
    rank = int(np.count_nonzero(report.eigenvalues))
    statuses = ["ill" if bad else "well" for bad in report.ill_determined]

    if args.format == "csv":
        print("# design")
        print("rows,cols,trace_row,rank")
        print(f"{design.rows},16,{'no' if args.no_trace else 'yes'},{rank}")
        print("# normal_matrix")
        for row in ns.matrix:
            print(",".join(_fmt(v) for v in row))
        print("# directions")
        print("eigenvalue,status," + ",".join(f"x{k}" for k in range(1, 17)))
        for lam, status, combo in zip(report.eigenvalues, statuses, report.combinations):
            print(",".join([_fmt(lam), status] + [_fmt(v) for v in combo]))
        return 0

    print(f"read-outs: {','.join(str(i) for i in ids)} ({len(ids)} of {N_READOUTS})")
    print(f"design: {design.rows} rows x 16 columns (trace row: {'no' if args.no_trace else 'yes'})")
    print(f"rank: {rank} of 16")
    print(f"threshold: {_fmt(threshold)}")
    print("normal matrix:")
    for row in ns.matrix:
        print("  " + " ".join(f"{v:10.6g}" for v in row))
    print(f"eigenvalues (descending): {' '.join(_fmt(v) for v in report.eigenvalues)}")
    print("combinations:")
    for lam, status, combo in zip(report.eigenvalues, statuses, report.combinations):
        print(f"  eigenvalue {_fmt(lam):>12}  {status:>4}  {_combination_terms(combo)}")
    n_ill = int(report.ill_determined.sum())
    print(f"ill-determined combinations: {n_ill}")
    return 0


def _cmd_enumerate(args) -> int:
    reports = enumerate_minimal_sets(args.size)
    if args.rank_by_conditioning:
        reports = rank_sets_by_conditioning(reports)
    if args.format == "csv":
        print("ids,rank,min_eigenvalue")
        for r in reports:
            print(f"{'-'.join(str(i) for i in r.ids)},{r.rank},{_fmt(r.min_eigenvalue)}")
    else:
        print(f"full-rank read-out sets of size {args.size}: {len(reports)}")
        for r in reports:
            ids = ",".join(str(i) for i in r.ids)
            print(f"  {{{ids}}}  min eigenvalue {_fmt(r.min_eigenvalue)}")
    return 0


def _cmd_simulate(args) -> int:
    rho = tomoio.read_density(args.density)
    ids = _parse_readout_ids(args.readouts)
    readings = simulate_readings(rho, ids, noise_sigma=args.noise, seed=args.seed)
    tomoio.write_readings(
        args.out,
        readings,
        metadata={"noise_sigma": args.noise, "seed": args.seed, "source": args.density},
    )
    print(f"wrote {len(readings)} readings to {args.out}")
    return 0


def _cmd_reconstruct(args) -> int:
    readings = tomoio.read_readings(args.readings)
    ids = sorted({r.readout for r in readings})
    threshold = _resolve_threshold(args.threshold)
    prior = None if args.prior == "mixed" else matrix_to_params(tomoio.read_density(args.prior))
    design = assemble_design(ids, readings=readings)
    result = reconstruct(design, threshold=threshold, prior=prior)
    rho = params_to_matrix(result.params)
    if args.psd_project:
        rho = psd_project(rho)
    tomoio.write_density(args.out, rho)
    print(f"read-outs: {','.join(str(i) for i in ids)}")
    print(f"equations: {design.rows}")
    print(f"threshold: {_fmt(threshold)}")
    print(f"chi2: {_fmt(result.chi2)}")
    print(f"trace: {_fmt(float(np.trace(rho).real))}")
    print(f"truncated directions: {len(result.truncated_directions)}")
    for lam, combo in result.truncated_directions:
        print(f"  eigenvalue {_fmt(lam)}  held at prior: {_combination_terms(combo)}")
    print(f"wrote density to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    rho_a = tomoio.read_density(args.a)
    rho_b = tomoio.read_density(args.b)
    delta = relative_error(rho_a, rho_b, norm=args.norm)
    print(f"delta = {_fmt(delta)} ({args.norm} norm, relative to --a)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call.

    Parsing leaves it untouched and every default is immutable, so one call
    cannot change what the next one parses; TOMOFORGE_THRESHOLD is read by
    the commands, not here.
    """
    parser = argparse.ArgumentParser(
        prog="tomoforge",
        description="Read-out design and density-matrix reconstruction for 2-qubit NMR tomography.",
        epilog=(
            "Read-out ids: 1..9 apply II,IX,IY,XI,XX,XY,YI,YX,YY before acquiring the H spin; "
            "10..18 apply the same rotations before acquiring the P spin. "
            f"{_ENV_THRESHOLD} overrides the default truncation threshold ({DEFAULT_THRESHOLD})."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="rank and conditioning report of a read-out set")
    p.add_argument("--readouts", required=True, help="comma-separated ids, or 'all'")
    p.add_argument("--no-trace", action="store_true", help="omit the trace normalization row")
    p.add_argument("--threshold", type=_number(float), default=None, help=f"truncation threshold (default {DEFAULT_THRESHOLD})")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("enumerate", help="exhaustively list full-rank read-out sets of a size")
    p.add_argument("--size", type=_number(int), required=True)
    p.add_argument("--rank-by-conditioning", action="store_true", help="sort by descending smallest eigenvalue")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("simulate", help="simulate peak readings from a density file")
    p.add_argument("--density", required=True)
    p.add_argument("--readouts", required=True, help="comma-separated ids, or 'all'")
    p.add_argument("--noise", type=_number(float), default=0.0, help="Gaussian noise sigma per real/imag part")
    p.add_argument("--seed", type=_number(int), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="reconstruct a density matrix from a readings file")
    p.add_argument("--readings", required=True)
    p.add_argument("--threshold", type=_number(float), default=None, help=f"truncation threshold (default {DEFAULT_THRESHOLD})")
    p.add_argument("--prior", default="mixed", help="'mixed' or a density file for ill-determined combinations")
    p.add_argument("--psd-project", action="store_true", help="clip negative eigenvalues of the result")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("compare", help="relative distance between two density files")
    p.add_argument("--a", required=True, help="first density file (also the denominator)")
    p.add_argument("--b", required=True)
    p.add_argument("--norm", choices=("spectral", "frobenius"), default="spectral")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader stopped reading; what is still buffered goes to devnull,
        # so the flush at shutdown cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
