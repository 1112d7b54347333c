"""Exception types, exit codes and the one exit path of `nblab` and the
scripts. Imports only `gc` and `sys`, so a lean script loads nothing more."""

import gc
import sys

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGRADED = 2
EXIT_USAGE = 64
EXIT_DATA = 65


class NBLabError(Exception):
    """Base class for package-specific errors."""


class DomainError(NBLabError, ValueError):
    """Input lies outside the documented domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at (or within guard distance of) a pole."""


class UnstablePointError(DomainError):
    """Evaluation refused near a point where the algorithm loses accuracy."""


class CacheError(NBLabError, IOError):
    """A Gram cache file cannot be read or written, or its data is bad:
    magic, version, length or checksum."""


class ConditioningError(NBLabError, ArithmeticError):
    """Gram system too ill-conditioned even after the ridge ladder."""


def exit_code(fn, *args) -> int:
    """fn(*args); a CacheError exits 65, and any other NBLabError or a
    MemoryError (a cutoff whose store or sieve cannot be allocated) 1, on
    one stderr line."""
    try:
        return fn(*args)
    except CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NBLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        # Python's own allocator raises it with no message; numpy's carry one.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_ERROR


def exit_with(main) -> None:
    """Run `main()` and exit with its code. The collector is frozen first:
    shutdown's full collections then skip the tens of thousands of objects
    the imports made, all still alive, which would take milliseconds each,
    while atexit handlers and the flush of the standard streams still run."""
    code = main()
    gc.freeze()
    raise SystemExit(code)
