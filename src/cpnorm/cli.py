"""Command-line interface.

Subcommands: ``gen`` (seeded map files), ``compute`` (power iteration),
``diagnose`` (structural checks and contraction bounds), ``verify``
(power method against the brute-force oracle). All output is canonical
JSON on stdout; warnings go to stderr. Exit codes: 0 success (or PASS or
WARN), 1 verification FAIL, 2 iteration budget exhausted or a run that
settled off a critical point, 3 errors. Calls of ``main`` in one process
share one parser.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .config import require_count, require_tolerance
from .errors import CPNormError
from .fileio import (
    GENERATOR_KINDS,
    build_run_record,
    canonical_json,
    encode_norm_result,
    generate_map,
    load_hermitian,
    load_map,
    load_matrix,
    save_map,
    serialize_map,
    write_trace,
)
from .hilbert import run_diagnostics
from .oracle import cross_validate, oracle_max, require_desk_scale
from .power import IterationStatus, PowerConfig, run_power_method


def _emit(text: str, out_path: str | None) -> None:
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_gen(args) -> int:
    matrix = load_matrix(args.matrix) if args.matrix else None
    mapfile = generate_map(args.n, args.m, args.k, args.seed, kind=args.kind,
                           matrix=matrix)
    if args.out:
        save_map(mapfile, args.out)
    else:
        sys.stdout.write(serialize_map(mapfile))
    return 0


def _cmd_compute(args) -> int:
    mapfile = load_map(args.map)
    phi = mapfile.to_cpmap()
    start = load_hermitian(args.start) if args.start else None
    config = PowerConfig(
        p=args.p,
        q=args.q,
        tol_fixed_point=args.tol,
        tol_objective=args.tol_objective,
        max_iter=args.max_iter,
        start=start,
    )
    result = run_power_method(phi, config)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    record = build_run_record(
        mapfile,
        "compute",
        {"p": float(args.p), "q": float(args.q), "config": config,
         "seed": args.seed},
        result=encode_norm_result(result),
    )
    _emit(canonical_json(record), args.out)
    if args.trace:
        write_trace(args.trace, result.trace)
    return 0 if result.trace.status is IterationStatus.CONVERGED else 2


def _cmd_diagnose(args) -> int:
    mapfile = load_map(args.map)
    phi = mapfile.to_cpmap()
    report = run_diagnostics(phi, args.p, args.q, trials=args.trials,
                             samples=args.samples, seed=args.seed)
    record = build_run_record(
        mapfile,
        "diagnose",
        {"p": float(args.p), "q": float(args.q), "trials": args.trials,
         "samples": args.samples, "seed": args.seed},
        diagnostics=report,
    )
    _emit(canonical_json(record), args.out)
    return 0


def _cmd_verify(args) -> int:
    # the oracle's arguments are checked before the power run, which can take seconds
    require_tolerance(args.tol, "tol", zero_ok=True)
    require_count(args.budget, "budget")
    mapfile = load_map(args.map)
    phi = mapfile.to_cpmap()
    require_desk_scale(phi.input_dim)
    config = PowerConfig(p=args.p, q=args.q, max_iter=3000)
    power = run_power_method(phi, config)
    oracle = oracle_max(phi, args.p, args.q, budget=args.budget, seed=args.seed)
    cv = cross_validate(power, oracle, tol=args.tol)
    record = build_run_record(
        mapfile,
        "verify",
        {"p": float(args.p), "q": float(args.q), "budget": args.budget,
         "tol": args.tol, "seed": args.seed},
        result=encode_norm_result(power),
        oracle=oracle,
        cross_validation=cv,
    )
    _emit(canonical_json(record), args.out)
    for message in cv.messages:
        print(f"{cv.status.lower()}: {message}", file=sys.stderr)
    return 1 if cv.status == "FAIL" else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpnorm",
        description="Schatten p->q norms of completely positive maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded map file")
    gen.add_argument("--n", type=int, default=2)
    gen.add_argument("--m", type=int, default=2)
    gen.add_argument("--k", type=int, default=3)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--kind", choices=GENERATOR_KINDS, default="generic")
    gen.add_argument("--matrix", help="nonnegative matrix file (diagonal_from_matrix)")
    gen.add_argument("--out", help="output path (stdout when omitted)")
    gen.set_defaults(func=_cmd_gen)

    compute = sub.add_parser("compute", help="run the power iteration")
    compute.add_argument("--map", required=True)
    compute.add_argument("--p", type=float, required=True)
    compute.add_argument("--q", type=float, required=True)
    compute.add_argument("--tol", type=float, default=1e-10,
                         help="fixed-point displacement tolerance")
    compute.add_argument("--tol-objective", type=float, default=1e-12,
                         help="relative objective stall tolerance")
    compute.add_argument("--max-iter", type=int, default=1000)
    compute.add_argument("--start", help="start matrix file ([re, im] pairs)")
    compute.add_argument("--seed", type=int, default=0)
    compute.add_argument("--trace", help="write per-iteration rows to this file")
    compute.add_argument("--out", help="also write the record to this file")
    compute.set_defaults(func=_cmd_compute)

    diagnose = sub.add_parser("diagnose", help="structural checks and bounds")
    diagnose.add_argument("--map", required=True)
    diagnose.add_argument("--p", type=float, required=True)
    diagnose.add_argument("--q", type=float, required=True)
    diagnose.add_argument("--trials", type=int, default=64)
    diagnose.add_argument("--samples", type=int, default=64)
    diagnose.add_argument("--seed", type=int, default=0)
    diagnose.add_argument("--out")
    diagnose.set_defaults(func=_cmd_diagnose)

    verify = sub.add_parser("verify", help="cross-check against the oracle")
    verify.add_argument("--map", required=True)
    verify.add_argument("--p", type=float, required=True)
    verify.add_argument("--q", type=float, required=True)
    verify.add_argument("--budget", type=int, default=4000)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tol", type=float, default=1e-4,
                        help="relative agreement tolerance: PASS when "
                             "|oracle - power| <= tol * power")
    verify.add_argument("--out")
    verify.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that every ``main`` call in the process shares, built by
    the first. ``parse_args`` returns a fresh namespace and leaves the
    parser as it was, so no call sees options of an earlier one."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CPNormError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
