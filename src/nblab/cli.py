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
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .arith import sieve_moebius
from .criterion import (
    BasisKind,
    GramStore,
    SolveMethod,
    assemble_gram,
    distance_sweep,
    moebius_residual,
)
from .errors import CacheError, NBLabError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGRADED = 2
EXIT_USAGE = 64
EXIT_DATA = 65

CACHE_DIR_ENV = "NBLAB_CACHE_DIR"
_DEFAULT_CACHE_NAME = "gram-default-weight.nbbg"

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


def _parse_cutoffs(text: str) -> tuple[int, ...]:
    """Cutoff list syntax: '30', '2,3,10', '2..30', or combinations."""
    values: set[int] = set()
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            lo_s, hi_s = token.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo < 1 or hi < lo:
                raise ValueError(f"bad cutoff range {token!r}")
            values.update(range(lo, hi + 1))
        else:
            v = int(token)
            if v < 1:
                raise ValueError(f"cutoff must be >= 1, got {v}")
            values.add(v)
    if not values:
        raise ValueError("empty cutoff list")
    return tuple(sorted(values))


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


def _cache_file(explicit: Optional[str]) -> Optional[Path]:
    if explicit is not None:
        return Path(explicit)
    env_dir = os.environ.get(CACHE_DIR_ENV)
    if env_dir:
        return Path(env_dir) / _DEFAULT_CACHE_NAME
    return None


def _entries_name(n_trunc: Optional[int]) -> str:
    return "closed-form entries" if n_trunc is None else f"entries truncated at N={n_trunc}"


def load_store(path: Optional[Path], n_trunc: Optional[int] = None) -> GramStore:
    """The cache at `path` if there is one, else an empty store for n_trunc.

    A store holds entries of one kind only, so a cache whose N is not
    n_trunc (None for closed form) raises CacheError instead of mixing two.
    """
    if path is None or not path.exists():
        return GramStore(n_trunc=n_trunc)
    store = GramStore.load(path)
    if store.n_trunc != n_trunc:
        raise CacheError(
            f"store holds {_entries_name(store.n_trunc)}, asked for {_entries_name(n_trunc)}"
        )
    return store


def save_store(store: GramStore, path: Optional[Path], loaded: int) -> None:
    """Write the cache only if entries were added since `loaded` or it is missing."""
    if path is not None and (len(store) != loaded or not path.exists()):
        path.parent.mkdir(parents=True, exist_ok=True)
        store.save(path)


# ---------------------------------------------------------------------------
# subcommands


def cmd_distance(args) -> int:
    basis, methods = BasisKind(args.basis), _METHODS[args.method]
    cache_path = _cache_file(args.cache)
    store = load_store(cache_path, args.N)
    loaded = len(store)
    rows = distance_sweep(args.L, basis, methods, store)
    save_store(store, cache_path, loaded)

    if args.format == "json":
        payload = [r.to_json_dict() for r in rows]
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(DISTANCE_HEADER)
        for r in rows:
            print(r.csv_row())

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
    cache_path = _cache_file(args.cache)
    store = load_store(cache_path, args.N)
    loaded = len(store)
    table = sieve_moebius(max(args.L))
    pairs = [(L, eps) for L in args.L for eps in args.eps]
    values = moebius_residual(args.L, args.eps, table, store)
    rows = [(L, eps, value) for (L, eps), value in zip(pairs, values)]
    save_store(store, cache_path, loaded)
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
    basis, cache_path = BasisKind(args.basis), _cache_file(args.cache)
    store = load_store(cache_path, args.N)
    loaded = len(store)
    L = max(args.L)
    assemble_gram(L, store)
    print(f"{len(store) - loaded} newly computed entries, {len(store)} total", file=sys.stderr)
    save_store(store, cache_path, loaded)
    if args.export == "csv":
        sys.stdout.write(store.csv_text(basis.denominators(L)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="nblab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--L", type=_parse_cutoffs, default=(30,),
                       help="cutoff list: '30', '2,5,10', or '2..30'")
        p.add_argument("--N", type=_parse_truncation, default=None,
                       help="use truncated sums at this cutoff instead of closed forms")
        p.add_argument("--cache", default=None,
                       help=f"Gram cache file (default: ${CACHE_DIR_ENV}/{_DEFAULT_CACHE_NAME})")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")

    def table_format(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def basis(p):
        p.add_argument("--basis", choices=("all", "exclude-one", "square-free"),
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
    basis(p_gram)
    p_gram.add_argument("--export", choices=("csv",), default=None,
                        help="write the basis pairs up to max(L) to standard output")
    p_gram.set_defaults(fn=cmd_gram)

    return parser


def exit_code(fn, *args) -> int:
    """fn(*args); a CacheError exits 65 and any other NBLabError 1, on one stderr line."""
    try:
        return fn(*args)
    except CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NBLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "tol", None) is not None and args.method != "both":
        parser.error(f"argument --tol: not allowed with --method {args.method}")
    return exit_code(args.fn, args)


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
