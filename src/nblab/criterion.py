"""Distance-to-span engine for the fractional-part basis.

Measures how well the constant sequence is approximated by finite linear
combinations of the fractional-part sequences with denominators up to a
cutoff L. The squared distance d2(L) is computed by two independent routes,
each from one Cholesky factorization G = R^T R of the largest block:

  * LeastSquares: with z = R^{-T} g, d2 = 1 - |z|^2 = 1 - g.c for the
    solution c of the normal equations G c = g;
  * GramDetRatio: the ratio of the bordered Gram determinant (the constant
    sequence, then the basis) to the plain one, from the factors' diagonals.

Because every basis is nested, the leading k entries of z and of the
diagonals give every smaller cutoff too: a sweep is one prefix solve, and
a sweep of both routes reads both from the one factor of G (the
determinant route adds the bordered factor). Each row's condition estimate
comes from the same factor too: one pass of incremental condition
estimation over its columns gives a 2-norm estimate for every leading
block, never above the exact value, in O(k) per column.

Gram entries are floats from the closed form in seqspace (or, with
n_trunc, from truncated sums over the step-function sequences) and live in a
GramStore: a dense symmetric array of every pair of keys up to its top, key
0 the constant sequence and key l the denominator l, of one kind only (its
truncation N, None for closed form, decides every fill and is carried in
the binary cache header). Matrices are slices of it, taken once per command at
its largest cutoff. A Moebius-weighted approximant residual and the
asymptotic diagnostic d2 * log L round out the module.

The sequence with denominator 1 is identically zero and spans nothing, so
no basis holds it: the criterion asks for the constant sequence in the
closed span of the {n/l}, l >= 2 (Bagchi 2006, after Baez-Duarte 2003).
Every other denominator has a positive Gram diagonal.
"""

from __future__ import annotations

import contextlib
import enum
import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from numpy.linalg import LinAlgError

from .arith import sieve_moebius
from .errors import CacheError, ConditioningError, DomainError
from .seqspace import PiecewiseConstant, inner_product_truncated, inner_products_closed
from .specfun import EULER_GAMMA

# Key 0 in a GramStore denotes the constant sequence; positive keys are
# fractional-part denominators.
CONSTANT_KEY = 0

RIDGE_LADDER = (0.0, 1e-14, 1e-12, 1e-10)


def asymptotic_rate_constant() -> float:
    """The conjectured value of lim d2(L) * log L: 2 + (Euler gamma) - log(4 pi).

    Reported alongside sweep diagnostics, never asserted.
    """
    return 2.0 + EULER_GAMMA - math.log(4.0 * math.pi)


# ---------------------------------------------------------------------------
# basis selection


class BasisKind(enum.Enum):
    EXCLUDE_ONE = "exclude-one"
    SQUARE_FREE = "square-free"

    def denominators(self, L: int) -> tuple[int, ...]:
        if L < 1:
            raise DomainError(f"cutoff must be >= 1, got {L}")
        if self is BasisKind.EXCLUDE_ONE:
            return tuple(range(2, L + 1))
        # the square-free keys; the first, l = 1, is the zero sequence
        return tuple(np.flatnonzero(sieve_moebius(L)).tolist()[1:])


# ---------------------------------------------------------------------------
# Gram store and binary cache

_MAGIC = b"NBBG"
_FORMAT_VERSION = 6
_HEADER = struct.Struct("<4sIQQ")
_TRAILER = struct.Struct("<I")

# Key pairs per block of a fill: small enough that a block's temporaries add
# nothing measurable to a process's peak RSS, large enough that numpy's
# per-call overhead is spread over thousands of entries.
_BLOCK_PAIRS = 4096


@contextlib.contextmanager
def _cache_io(verb: str, path) -> Iterator[None]:
    """Raise an OSError from the file system as a CacheError naming `path`."""
    try:
        yield
    except OSError as exc:
        raise CacheError(f"cannot {verb} cache file {path}: {exc}") from exc


class GramStore:
    """Every pairwise inner product of the keys 0..top, in a dense symmetric
    float64 array `values` of side top + 1.

    Key 0 is the constant sequence; key l >= 1 is the fractional-part
    sequence with denominator l. n_trunc fixes every entry's method and
    error bound: None for closed-form ones (bound 0), an int N for sums
    truncated at N (bound 1/(N+1)); every fill computes entries of its kind.
    One pair order serves the fill and the file: the upper triangle, row by
    row. Persists as a little-endian binary file: header {magic "NBBG",
    version u32, N u64 (0 for closed form), side u64}, the entries in that
    order as f64, and a CRC32 trailer over everything before it. A fill swaps
    in its grown array only once it is whole, so a failed fill leaves the
    store as it was.
    """

    def __init__(self, n_trunc: Optional[int] = None):
        if n_trunc is not None and n_trunc < 1:
            raise DomainError(f"n_trunc must be >= 1, got {n_trunc}")
        self.n_trunc = n_trunc
        self.values = np.zeros((0, 0))

    @property
    def top(self) -> int:
        """The largest key held; -1 for an empty store."""
        return self.values.shape[0] - 1

    def __len__(self) -> int:
        """The number of entries held, each pair of keys counted once."""
        side = self.values.shape[0]
        return side * (side + 1) // 2

    def ensure(self, i: int, j: int, compute: Callable[[int, int], float]) -> float:
        """The entry for keys i and j: the held one, or else compute(min, max)."""
        if i < 0 or j < 0:
            raise DomainError(f"store keys must be nonnegative, got ({i}, {j})")
        i, j = min(i, j), max(i, j)
        if j <= self.top:
            return float(self.values[i, j])
        return compute(i, j)

    def grow(self, top: int, entries: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> None:
        """Hold every pair of keys 0..top; entries(a, b) gives the entries of
        the 1-D key arrays a <= b elementwise, all with b above the old top.

        Each new pair goes to `entries` once, in the store's pair order, in
        blocks of about _BLOCK_PAIRS pairs: of rows a0..a1 against the columns
        max(a0, old top + 1)..top, the pairs a <= b, row by row. Each value
        is written to (a, b) and to (b, a).
        """
        old = self.values.shape[0]
        if top < old:
            return
        try:
            values = np.zeros((top + 1, top + 1))
        except ValueError as exc:  # numpy's "array is too big" and the like
            raise MemoryError(f"cannot allocate a store of side {top + 1}: {exc}") from exc
        values[:old, :old] = self.values
        a0 = 0
        while a0 <= top:
            lo = max(a0, old)
            a1 = min(top + 1, a0 + max(1, _BLOCK_PAIRS // (top + 1 - lo)))
            a, b = np.mgrid[a0:a1, lo:top + 1]
            upper = a <= b
            a, b = a[upper], b[upper]
            values[a, b] = values[b, a] = entries(a, b)
            a0 = a1
        self.values = values

    # -- persistence --------------------------------------------------------

    def save(self, path) -> None:
        """Write the cache, `values[i, i:]` for each row i in turn, atomically:
        a sibling temporary file, then os.replace.

        Makes the parent directories. A failed or interrupted save leaves any
        earlier file at `path` whole; a file-system error raises CacheError.
        """
        side = self.values.shape[0]
        blob = bytearray(_HEADER.pack(_MAGIC, _FORMAT_VERSION, self.n_trunc or 0, side))
        for i in range(side):
            blob += self.values[i, i:].astype("<f8", copy=False).tobytes()
        blob += _TRAILER.pack(zlib.crc32(blob))
        path = Path(path)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with _cache_io("write", path):
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                tmp.write_bytes(blob)
                os.replace(tmp, path)
            except BaseException:
                tmp.unlink(missing_ok=True)
                raise

    @classmethod
    def load(cls, path) -> "GramStore":
        """Read a cache: once magic, version, length and CRC have passed, row i
        of the body fills `values[i, i:]` and `values[i:, i]`."""
        with _cache_io("read", path):
            blob = Path(path).read_bytes()
        if len(blob) < _HEADER.size + _TRAILER.size:
            raise CacheError(f"cache file {path} is truncated")
        magic, version, n_trunc, side = _HEADER.unpack_from(blob, 0)
        if magic != _MAGIC:
            raise CacheError(f"cache file {path} has wrong magic {magic!r}")
        if version != _FORMAT_VERSION:
            raise CacheError(
                f"cache file {path} has format version {version}, expected {_FORMAT_VERSION}"
            )
        body_end = _HEADER.size + 8 * (side * (side + 1) // 2)
        if len(blob) != body_end + _TRAILER.size:
            raise CacheError(f"cache file {path} has inconsistent length")
        (crc_stored,) = _TRAILER.unpack_from(blob, body_end)
        if crc_stored != zlib.crc32(blob[:body_end]):
            raise CacheError(f"cache file {path} failed its checksum")
        store = cls(n_trunc=n_trunc or None)
        store.values = np.empty((side, side))
        start = _HEADER.size
        for i in range(side):
            row = np.frombuffer(blob, "<f8", side - i, start)
            store.values[i, i:] = store.values[i:, i] = row
            start += row.nbytes
        return store


def _entries_name(n_trunc: Optional[int]) -> str:
    return "closed-form entries" if n_trunc is None else f"entries truncated at N={n_trunc}"


@contextlib.contextmanager
def open_store(path: Optional[Path], n_trunc: Optional[int] = None) -> Iterator[GramStore]:
    """The cache at `path` as a store of entries for n_trunc, written back
    on a clean exit if entries were added or the file is missing.

    A store holds entries of one kind only, so a cache whose N is not
    n_trunc (None for closed form) raises CacheError instead of mixing two.
    For a missing file the parent directory is made first, so a path that
    cannot be written fails before any work. A body that raises writes
    nothing; with no path, nothing is read or written.
    """
    if path is None:
        yield GramStore(n_trunc=n_trunc)
        return
    exists = path.exists()
    if exists:
        store = GramStore.load(path)
        if store.n_trunc != n_trunc:
            raise CacheError(
                f"store holds {_entries_name(store.n_trunc)}, asked for {_entries_name(n_trunc)}"
            )
    else:
        with _cache_io("write", path):
            path.parent.mkdir(parents=True, exist_ok=True)
        store = GramStore(n_trunc=n_trunc)
    loaded = len(store)
    yield store
    if len(store) != loaded or not exists:
        store.save(path)


def assemble_gram(L: int, store: Optional[GramStore] = None) -> GramStore:
    """Grow `store` (a new closed-form one if none is given) to hold every
    pair of keys 0..L, with entries of the kind its n_trunc names.

    The fill is the same for every basis: it covers all keys up to L, so a
    store serves each basis up to its top. Only the pairs with a key above
    the old top are computed, and a call with nothing to add does no other
    work. Each growth copies the held entries into a new array and walks every
    held key, however few keys it adds, so callers fill once, at their
    largest cutoff. Each new pair is computed once, in the store's pair order
    (`GramStore.grow`): closed-form entries (n_trunc None) in blocks of a few
    thousand pairs, one vectorized call per block, each in O(1) once the
    period tables reach L; truncated entries one pair at a time, through
    `GramStore.ensure`, each an O(N) compensated sum. Each entry depends only
    on its own keys, so the result is independent of the order and the batch.
    """
    if L < 1:
        raise DomainError(f"cutoff must be >= 1, got {L}")
    if store is None:
        store = GramStore()
    if L <= store.top:
        return store
    if store.n_trunc is None:
        store.grow(L, inner_products_closed)
        return store

    sequences = [PiecewiseConstant.constant_one()]
    sequences.extend(PiecewiseConstant.fractional_parts(l) for l in range(1, L + 1))

    def truncated(i: int, j: int) -> float:
        return inner_product_truncated(sequences[i], sequences[j], store.n_trunc)

    store.grow(L, lambda a, b: [store.ensure(i, j, truncated)
                                for i, j in zip(a.tolist(), b.tolist())])
    return store


def fill_cutoffs(ranges: Sequence[range], store: GramStore) -> list[int]:
    """The distinct cutoffs in `ranges`, ascending, listed only once `store`
    holds every pair of keys up to the largest: a range too long to list
    fails on the store's allocation first. Empty ranges add nothing."""
    assemble_gram(max(r[-1] for r in ranges if r), store)
    return sorted(set().union(*ranges))


def gram_system(
    L: int,
    basis: BasisKind = BasisKind.EXCLUDE_ONE,
    store: Optional[GramStore] = None,
) -> tuple[tuple[int, ...], np.ndarray]:
    """Return (denominators, B): the bordered Gram block of the constant
    sequence followed by the basis, sliced from the store in one copy.

    G = B[1:, 1:] is the Gram matrix of the basis and g = B[0, 1:] its cross
    inner products with the constant sequence, both views of B. B[0, 0] is
    the constant's squared norm, pinned to exactly 1 (a truncated store holds
    1 - 1/(N+1) there), as the LS route's 1 - |z|^2 and the residual's
    leading 1 take it.

    No basis holds denominator 1, the zero sequence. Each denominator l >= 2
    has a positive diagonal entry (term 1 is 1/l, weighted 1/2, for
    closed-form and truncated entries alike), so G needs no pruning.
    """
    values = assemble_gram(L, store).values
    denoms = basis.denominators(L)
    keys = np.array((CONSTANT_KEY, *denoms), dtype=np.intp)
    B = values[np.ix_(keys, keys)]
    B[0, 0] = 1.0
    return denoms, B


# ---------------------------------------------------------------------------
# distance reports


class SolveMethod(enum.Enum):
    LEAST_SQUARES = "ls"
    GRAM_DET_RATIO = "det"


@dataclass(frozen=True)
class DistanceReport:
    L: int
    basis: BasisKind
    d2: float
    method: SolveMethod
    cond_estimate: float
    ridge_used: float
    a_est: float
    degenerate: bool = False
    error: Optional[str] = None


def _top_eigenpair(s: float, alpha: float, gamma: float) -> tuple[float, float, float]:
    """(sqrt(lambda), c, d): the larger eigenvalue of [[s^2 + alpha^2, alpha
    gamma], [alpha gamma, gamma^2]] and a unit eigenvector of it. (-d, c) is
    the other eigenvector, for the eigenvalue (s gamma)^2 / lambda."""
    a, b = s * s + alpha * alpha, alpha * gamma
    h = 0.5 * (a - gamma * gamma)
    r = math.hypot(h, b)
    # Of the two forms of the eigenvector, the one in which nothing cancels.
    p, q = (h + r, b) if h >= 0.0 else (b, r - h)
    norm = math.hypot(p, q)
    if norm == 0.0:  # a multiple of the identity: any vector will do
        p, norm = 1.0, 1.0
    return math.sqrt(0.5 * (a + gamma * gamma) + r), p / norm, q / norm


def _ice_cond(R: np.ndarray) -> list[float]:
    """2-norm condition estimate of every leading block R_k^T R_k, in one pass
    over the columns of the upper factor R: incremental condition estimation
    (Bischof 1990, SIAM J. Matrix Anal. Appl. 11).

    Two unit vectors x keep |x^T R_k| near the largest and the smallest
    singular value of R_k. Column k, v = R[:k, k] over gamma = R[k, k],
    extends x to (c x, d) with (c, d) an eigenvector of the 2 x 2 matrix
    whose eigenvalues are the two choices of |x^T R_{k+1}|^2
    (`_top_eigenpair`, alpha = x.v). Each estimate is a true |x^T R_k| for
    a unit x, so (s_max / s_min)^2 never exceeds cond_2: it is 1 for an
    identity block and inf from the first zero diagonal entry on. The
    smaller eigenvalue comes as a quotient, not a difference, so it does not
    cancel. Each step is two dots of length k, whose bits do not depend on
    where the operands lie in memory.
    """
    n = R.shape[0]
    x_max, x_min = np.zeros(n), np.zeros(n)
    x_max[0] = x_min[0] = 1.0
    s_max = s_min = abs(float(R[0, 0]))
    cond = [1.0 if s_min else math.inf]
    for k in range(1, n):
        v, gamma = R[:k, k], float(R[k, k])
        s_max, c, d = _top_eigenpair(s_max, float(x_max[:k] @ v), gamma)
        x_max[:k] *= c
        x_max[k] = d
        top, c, d = _top_eigenpair(s_min, float(x_min[:k] @ v), gamma)
        s_min = abs(s_min * gamma) / top if top else 0.0
        x_min[:k] *= -d
        x_min[k] = c
        cond.append((s_max / s_min) ** 2 if s_min else math.inf)
    return cond


def cho_factor(M: np.ndarray) -> np.ndarray:
    """The upper Cholesky factor R of M, with R^T R = M: the transpose of
    numpy's lower factor, an F-ordered view, so each column R[:k, k] is
    contiguous. Raises LinAlgError when M is not positive definite."""
    return np.linalg.cholesky(M).T


def _forward(R: np.ndarray, g: np.ndarray) -> np.ndarray:
    """z with R^T z = g for the upper factor R: forward substitution down the
    columns of R, one dot of length k per entry."""
    z = np.empty(g.size)
    for k in range(g.size):
        z[k] = (g[k] - R[:k, k] @ z[:k]) / R[k, k]
    return z


def _factor_with_ridge(G: np.ndarray):
    """Upper Cholesky factor of G, climbing the ridge ladder on failure.

    Returns (R, ridge_used) with R^T R = G + ridge_used * I; R is zero below
    its diagonal. The ridge is added to the diagonal unscaled; the ladder
    tops out at 1e-10, far below any Gram diagonal here.
    """
    last_exc: Optional[Exception] = None
    for ridge in RIDGE_LADDER:
        try:
            M = G if ridge == 0.0 else G + ridge * np.eye(G.shape[0])
            return cho_factor(M), ridge
        except LinAlgError as exc:
            last_exc = exc
    raise ConditioningError(
        f"Gram factorization failed at every ridge in {RIDGE_LADDER}: {last_exc}")


def _prefix_solve(B: np.ndarray, methods: Sequence[SolveMethod]):
    """(solved, cond) for every leading block of the bordered B = [[1, g^T],
    [g, G]] (`gram_system`), from one factor of its view G.

    solved maps each of `methods` to (d2, ridge) or to the ConditioningError
    of the factor of B: d2[k - 1] is the distance for the leading k columns
    (1 - cumsum(z^2), non-increasing, or from the factors' diagonals), ridge
    the one the whole block needed. cond[k - 1] is the condition estimate of
    G's k-block (`_ice_cond`). The det route adds G's ridge to B's diagonal
    in place, so B is spent once it returns.
    """
    G, g = B[1:, 1:], B[0, 1:]
    R, ridge = _factor_with_ridge(G)
    solved = {}
    if SolveMethod.LEAST_SQUARES in methods:
        z = _forward(R, g)
        solved[SolveMethod.LEAST_SQUARES] = 1.0 - np.cumsum(z * z), ridge
    if SolveMethod.GRAM_DET_RATIO in methods:
        G[np.diag_indices(g.size)] += ridge
        try:
            R_B, ridge_b = _factor_with_ridge(B)
            logdet = np.cumsum(2.0 * np.log(np.diag(R)))
            logdet_b = np.cumsum(2.0 * np.log(np.diag(R_B)))
            solved[SolveMethod.GRAM_DET_RATIO] = (
                np.exp(logdet_b[1:] - logdet), max(ridge, ridge_b))
        except ConditioningError as exc:
            solved[SolveMethod.GRAM_DET_RATIO] = exc
    return solved, _ice_cond(R)


def distance(
    L: int,
    basis: BasisKind = BasisKind.EXCLUDE_ONE,
    method: SolveMethod = SolveMethod.LEAST_SQUARES,
    store: Optional[GramStore] = None,
) -> DistanceReport:
    """Squared distance from the constant sequence to the span at cutoff L.

    The one-row, one-method `distance_sweep`. For L = 1 every basis is
    empty (no basis holds the zero sequence l = 1), the span is {0}, the
    distance is the squared norm of the constant sequence, exactly 1; the
    report is flagged degenerate and no solver runs.
    """
    return distance_sweep([L], basis, (method,), store)[0]


def distance_sweep(
    L_values: Sequence[int],
    basis: BasisKind = BasisKind.EXCLUDE_ONE,
    methods: Sequence[SolveMethod] = (SolveMethod.LEAST_SQUARES,),
    store: Optional[GramStore] = None,
) -> list[DistanceReport]:
    """Distance reports, one per ascending cutoff and method, in (L, method.value) order.

    G is built and factored once, at the largest cutoff, for all the
    methods; each row reads its leading block (so its last bits depend on
    the largest cutoff) and the ridge the largest block needed. A factor
    that fails at every ridge makes error rows, with a NaN distance, of the
    rows that read it: all of them for G's, the det rows for the bordered one.
    """
    L_values = list(L_values)
    if L_values != sorted(L_values):
        raise DomainError("sweep cutoffs must be sorted ascending")
    if not L_values:
        return []
    if L_values[0] < 1:
        raise DomainError(f"cutoff must be >= 1, got {L_values[0]}")
    methods = sorted(set(methods), key=lambda m: m.value)
    denoms, B = gram_system(L_values[-1], basis, store)
    sizes = np.searchsorted(denoms, L_values, side="right").tolist()
    solved = {}
    if denoms:
        try:
            solved, cond = _prefix_solve(B, methods)
        except ConditioningError as exc:
            solved = dict.fromkeys(methods, exc)
    reports = []
    for L, k in zip(L_values, sizes):
        for method in methods:
            result = solved.get(method)
            if k == 0:
                row = dict(d2=1.0, cond_estimate=math.nan, ridge_used=0.0, degenerate=True)
            elif isinstance(result, ConditioningError):
                row = dict(d2=math.nan, cond_estimate=math.inf,
                           ridge_used=RIDGE_LADDER[-1], error=str(result))
            else:
                d2, ridge = result
                row = dict(d2=float(d2[k - 1]), cond_estimate=cond[k - 1], ridge_used=ridge)
            reports.append(DistanceReport(
                L=L, basis=basis, method=method, a_est=row["d2"] * math.log(L), **row,
            ))
    return reports


# ---------------------------------------------------------------------------
# Moebius-weighted approximant


def moebius_residual(
    L_values: Sequence[int],
    eps_values: Sequence[float],
    store: Optional[GramStore] = None,
) -> list[float]:
    """Squared error of the Moebius-smoothed combination, one per (L, eps)
    in L-major order.

    The approximant is v = -sum_{l<=L} mu(l) l^{-eps} (fractional sequence l);
    the sign makes v approach the constant sequence from the floor-sum
    recurrence. Expanded exactly over Gram entries:

        |gamma - v|^2 = 1 + 2 sum_l mu(l) l^{-eps} <gamma, gamma_l>
                          + sum_{l,m} mu(l) mu(m) (l m)^{-eps} <gamma_l, gamma_m>.

    The entries are the square-free Gram system of `gram_system`, of the
    store's kind; its basis leaves out l = 1, the zero sequence. It is sliced
    once, at the largest cutoff, and each value reads its leading block (an
    empty one, exactly 1, for L = 1); mu is sieved once, to the same cutoff.
    Always at least the projection distance at the same cutoff.
    """
    if not L_values:
        return []
    if min(L_values) < 1:
        raise DomainError(f"cutoff must be >= 1, got {min(L_values)}")
    for eps in eps_values:
        if not 0.0 <= eps < math.inf:
            raise DomainError(f"eps must be finite and >= 0, got {eps}")
    # mu(l) = 0 unless l is square-free.
    L_max = max(L_values)
    denoms, B = gram_system(L_max, BasisKind.SQUARE_FREE, store)
    G, g = B[1:, 1:], B[0, 1:]
    mu = sieve_moebius(L_max)
    coeffs = [np.array([float(mu[l]) * l ** (-eps) for l in denoms]) for eps in eps_values]
    values = []
    for k in np.searchsorted(denoms, L_values, side="right").tolist():
        for coeff in coeffs:
            c = coeff[:k]
            values.append(1.0 + 2.0 * float(c @ g[:k]) + float(c @ G[:k, :k] @ c))
    return values
