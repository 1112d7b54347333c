"""Command-line front end.

Subcommands: `distance` (distance sweeps), `residual` (Moebius approximant
residuals), `verify` (fixed-grid identity suites), `gram` (cache fill and
export). Tables go to standard output and are byte-identical across runs
with the same configuration; progress notes go to standard error.

Exit codes: 0 success, 1 error, 2 solver degradation (a ridge was needed),
64 usage, 65 cache-data problems. CI can therefore gate on degradation
separately from outright failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

from .criterion import (
    BasisKind,
    SolveMethod,
    assemble_gram,
    distance_sweep,
    fill_cutoffs,
    moebius_residual,
    open_store,
)
from .errors import EXIT_DEGRADED, EXIT_ERROR, EXIT_OK, EXIT_USAGE, exit_code, exit_with

DISTANCE_HEADER = "L,basis,d2,a_est,cond,ridge,method"


class _Parser(argparse.ArgumentParser):
    """argparse that reserves exit code 64 for usage problems."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_METHODS = {
    "ls": (SolveMethod.LEAST_SQUARES,),
    "det": (SolveMethod.GRAM_DET_RATIO,),
    "both": (SolveMethod.LEAST_SQUARES, SolveMethod.GRAM_DET_RATIO),
}


def _parse_cutoffs(text: str) -> tuple[range, ...]:
    """Cutoff list syntax: '30', '2,3,10', '2..30', or combinations, as one
    range per token. No range is expanded here, so a huge one fails on its
    store's allocation (`criterion.fill_cutoffs`), not on a list."""
    ranges = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            lo_s, hi_s = token.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo < 1 or hi < lo:
                raise ValueError(f"bad cutoff range {token!r}")
        else:
            lo = hi = int(token)
            if lo < 1:
                raise ValueError(f"cutoff must be >= 1, got {lo}")
        ranges.append(range(lo, hi + 1))
    return tuple(ranges)


def _parse_eps_list(text: str) -> tuple[float, ...]:
    values = tuple(float(tok) for tok in text.split(","))
    if any(e < 0 or not math.isfinite(e) for e in values):
        raise ValueError(f"eps values must be finite and >= 0: {text!r}")
    return values


def _parse_tol(text: str) -> float:
    tol = float(text)
    if tol < 0 or not math.isfinite(tol):
        raise ValueError(f"tol must be finite and >= 0: {text!r}")
    return tol


def _parse_truncation(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError(f"N must be >= 1: {text!r}")
    return n


def _finite(x: float) -> Optional[float]:
    """x, or None (JSON null) for a NaN or an infinity, which JSON cannot hold."""
    return x if math.isfinite(x) else None


# ---------------------------------------------------------------------------
# subcommands


def cmd_distance(args) -> int:
    basis, methods = BasisKind(args.basis), _METHODS[args.method]
    with open_store(args.cache, args.N) as store:
        rows = distance_sweep(fill_cutoffs(args.L, store), basis, methods, store)

    if args.format == "json":
        payload = [{
            "L": r.L, "basis": r.basis.value, "d2": _finite(r.d2), "a_est": _finite(r.a_est),
            "cond": _finite(r.cond_estimate), "ridge": r.ridge_used, "method": r.method.value,
            "degenerate": r.degenerate, "error": r.error,
        } for r in rows]
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(DISTANCE_HEADER)
        for r in rows:
            method = "degenerate" if r.degenerate else r.method.value
            print(f"{r.L},{r.basis.value},{r.d2!r},{r.a_est!r},"
                  f"{r.cond_estimate!r},{r.ridge_used!r},{method}")

    if args.tol is not None:
        # Rows come in (det, ls) pairs, one pair per cutoff.
        for det, ls in zip(rows[::2], rows[1::2]):
            if math.isfinite(det.d2) and abs(det.d2 - ls.d2) > args.tol:
                gap = f"|{det.d2!r} - {ls.d2!r}| > {args.tol!r}"
                print(f"method disagreement at L={det.L}: {gap}", file=sys.stderr)
                return EXIT_ERROR
    if any(r.error for r in rows):
        for r in rows:
            if r.error:
                print(f"L={r.L}: {r.error}", file=sys.stderr)
        return EXIT_ERROR
    if any(r.ridge_used > 0.0 for r in rows):
        return EXIT_DEGRADED
    return EXIT_OK


def cmd_residual(args) -> int:
    with open_store(args.cache, args.N) as store:
        cutoffs = fill_cutoffs(args.L, store)
        values = moebius_residual(cutoffs, args.eps, store)
    pairs = [(L, eps) for L in cutoffs for eps in args.eps]
    rows = [(L, eps, value) for (L, eps), value in zip(pairs, values)]
    if args.format == "json":
        payload = [{"L": L, "eps": eps, "residual": value} for L, eps, value in rows]
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("L,eps,residual")
        for L, eps, value in rows:
            print(f"{L},{eps!r},{value!r}")
    return EXIT_OK


def cmd_verify(args) -> int:
    # Only `verify` runs the transform side, so other commands never load it.
    from . import analytic

    reports = analytic.run_suite(args.suite)
    payload = [r.to_json_dict() for r in reports]
    print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_ERROR


def cmd_gram(args) -> int:
    L = max(r[-1] for r in args.L)
    with open_store(args.cache, args.N) as store:
        loaded = len(store)
        assemble_gram(L, store)
        print(f"{len(store) - loaded} newly computed entries, {len(store)} total", file=sys.stderr)
    if args.export == "csv":
        keys = range(1, L + 1) if args.basis == "all" else BasisKind(args.basis).denominators(L)
        keys = list(keys)
        # The store's kind fixes every entry's error bound and method.
        tail = "0.0,closed" if store.n_trunc is None else f"{1.0 / (store.n_trunc + 1)!r},truncated"
        lines = ["l,m,value,error_bound,method"]
        for p, i in enumerate(keys):
            for j, value in zip(keys[p:], store.values[i, keys[p:]].tolist()):
                lines.append(f"{i},{j},{value!r},{tail}")
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="nblab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--L", type=_parse_cutoffs, default="30",
                       help="cutoff list: '30', '2,5,10', or '2..30'")
        p.add_argument("--N", type=_parse_truncation, default=None,
                       help="use truncated sums at this cutoff instead of closed forms")
        p.add_argument("--cache", type=Path, default=None, help="Gram cache file")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")

    def table_format(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def basis(p, *extra):
        p.add_argument("--basis", choices=(*extra, *(b.value for b in BasisKind)),
                       default="exclude-one")

    p_dist = sub.add_parser("distance", help="distance from the constant sequence to the span")
    common(p_dist)
    table_format(p_dist)
    basis(p_dist)
    p_dist.add_argument("--method", choices=("ls", "det", "both"), default="ls")
    p_dist.add_argument("--tol", type=_parse_tol, default=None,
                        help="with --method both: largest allowed cross-method gap")
    p_dist.set_defaults(fn=cmd_distance)

    p_res = sub.add_parser("residual", help="Moebius approximant residuals")
    common(p_res)
    table_format(p_res)
    p_res.add_argument("--eps", type=_parse_eps_list, default=(0.0,),
                       help="smoothing exponents, comma-separated")
    p_res.set_defaults(fn=cmd_residual)

    p_ver = sub.add_parser("verify", help="run a fixed-grid verification suite")
    p_ver.add_argument("suite", choices=("mellin", "semigroup", "xi", "unitary", "moebius"))
    p_ver.set_defaults(fn=cmd_verify)

    p_gram = sub.add_parser("gram", help="fill and export the Gram entry cache")
    common(p_gram)
    # `all`, the export keys 1..L, stays while perfbench's set-up runs it.
    basis(p_gram, "all")
    p_gram.add_argument("--export", choices=("csv",), default=None,
                        help="write the basis pairs up to max(L) to standard output")
    p_gram.set_defaults(fn=cmd_gram)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "tol", None) is not None and args.method != "both":
        parser.error(f"argument --tol: not allowed with --method {args.method}")
    return exit_code(args.fn, args)


def console_entry() -> None:
    """Run `main` and exit with its code, through `errors.exit_with`."""
    exit_with(main)


if __name__ == "__main__":
    console_entry()
