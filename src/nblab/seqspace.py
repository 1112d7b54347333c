"""Weighted sequence space and its step-function model.

The ambient space is the set of real sequences a = (a_n) with
sum |a_n|^2 w(n) finite, for the one weight w(n) = 1/(n(n+1)) that the
step-function model fixes. The interval (1/(n+1), 1/n] has length exactly
1/(n(n+1)), so reading a step function constant on each such piece at the
points 1/n is a unitary map onto the sequence space. One type,
`PiecewiseConstant`, therefore serves as both the sequence and the step
function. The key players:

  * the constant sequence (1, 1, 1, ...), `PiecewiseConstant.constant_one()`,
  * the fractional-part sequences frac(n/l) for integer l >= 1,
    `PiecewiseConstant.fractional_parts(l)`,
  * indicators of (0, 1/n] and their dilations.

Inner products of the constant and fractional-part sequences are available
through two independent routes: compensated truncated summation up to N of
any two step functions, whose omitted tail weighs exactly 1/(N+1), and a
closed form on Gram store keys (0 the constant, l >= 1 the denominator). The
closed form applies Abel summation, <f, h> = sum_n (c_n - c_{n-1}) / n with
c_n = frac(n/a) frac(n/b), and splits the differences into periodic pieces
with periods a, b, a/g and b/g (g = gcd(a, b)). Each piece is summed with the
regularized identity for a p-periodic f,

    "sum_n f(n)/n" = -(1/p) sum_{r=1..p} f(r) psi(r/p) - mean(f) log p,

which leaves O(a + b) terms per entry. Euler's constant and the log p terms
cancel, so only Vasyunin's cotangent sums are tabulated (`_PeriodTables`);
see `inner_product_closed` for the resulting formula.

Fractional parts are always computed in integer arithmetic, (n mod l)/l,
never by flooring a floating-point quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .summation import compensated_sum


# ---------------------------------------------------------------------------
# the weight


@lru_cache(maxsize=4)
def _default_weight_values(n_trunc: int) -> np.ndarray:
    """w(n) = 1/(n(n+1)) for n = 1..n_trunc; the rest sums to exactly 1/(n_trunc+1)."""
    n = np.arange(1, n_trunc + 1, dtype=np.float64)
    w = 1.0 / (n * (n + 1.0))
    w.flags.writeable = False
    return w


# ---------------------------------------------------------------------------
# inner products


def inner_product_truncated(a: PiecewiseConstant, b: PiecewiseConstant, n_trunc: int) -> float:
    """Partial sum of sum_n a_n b_n w(n) over n <= n_trunc, compensated.

    The omitted tail is at most sup|a| sup|b| / (n_trunc + 1),
    since the tail weight mass telescopes to exactly 1/(n_trunc + 1).
    """
    if n_trunc < 1:
        raise DomainError(f"n_trunc must be >= 1, got {n_trunc}")
    terms = _terms(a, n_trunc) * _terms(b, n_trunc)
    terms *= _default_weight_values(n_trunc)
    return compensated_sum(terms)


@lru_cache(maxsize=2)
def _terms(f: PiecewiseConstant, n_trunc: int) -> np.ndarray:
    # A truncated Gram fill pairs one row key with each other key in turn,
    # so keeping the last two term arrays builds each row key's terms once.
    terms = f.values_upto(n_trunc)
    terms.flags.writeable = False
    return terms


class _PeriodTables:
    """Vasyunin's cotangent sums V(c/p) for every period p <= limit,

        V(c/p) = sum_{1 <= r < p/2} (2{rc/p} - 1) cot(pi r/p),   gcd(c, p) = 1,

    stored flat, period p at offset p(p-1)/2, with log n for n <= limit. In
    the regularized sum R(p, c) = -(1/p) sum_{r=1..p} ((r c mod p)/p) psi(r/p)
    - ((p - 1)/(2p)) log p, pairing r with p - r splits psi about 1/2: Gauss's
    sum gives the even part and -(pi/2) cot(pi x) the odd part, so
    R(p, c) = ((p - 1) gamma + log p)/(2p) + (pi/(2p)) V(c/p). Each V is
    folded so that tan is never taken near pi. The fill reads only these
    slots and V(0/1) = 0; the rest are NaN. Blocks grow on demand, each built
    once and reduced row by row, so no value depends on which fill first
    asked for it. A set of tables never changes: growing builds a new set,
    so a reader keeps tables that cover its periods however fills interleave.
    """

    def __init__(self, limit: int = 0, values=np.zeros(0), logs=np.zeros(1)) -> None:
        self.limit, self.values, self.logs = limit, values, logs

    def ensure(self, limit: int) -> "_PeriodTables":
        """These tables if they reach `limit`, else new ones that do."""
        if limit <= self.limit:
            return self
        blocks = [self.values]
        blocks.extend(self._period(p) for p in range(self.limit + 1, limit + 1))
        logs = [math.log(n) for n in range(self.limit + 1, limit + 1)]
        return _PeriodTables(limit, np.concatenate(blocks), np.concatenate([self.logs, logs]))

    @staticmethod
    def _period(p: int) -> np.ndarray:
        # For gcd(c, p) = 1, (p - c) r mod p = p - (c r mod p), so every term
        # of V((p - c)/p) is the negation of V(c/p)'s and so is the row sum,
        # exactly: only the coprime c <= p/2 are reduced. The reflections are
        # written first, so the self-reflections c = p - c (c = 0 at p = 1,
        # c = 1 at p = 2) end up holding the reduced rows.
        # r * c < p^2/2 fits in int32 for every period below 65536.
        r = np.arange(1, (p + 1) // 2, dtype=np.int32)
        low = np.arange(p // 2 + 1, dtype=np.int32)
        low = low[np.gcd(low, p) == 1]
        rows = ((2 * (np.outer(low, r) % p) - p) / np.tan(np.pi * r / p)).sum(axis=1) / p
        v = np.full(p, np.nan)
        v[-low] = -rows
        v[low] = rows
        return v


_TABLES = _PeriodTables()


def inner_products_closed(a, b) -> np.ndarray:
    """Closed-form <{n/a}, {n/b}> elementwise over the broadcast key arrays a and b.

    Requires 0 <= a <= b elementwise, where key 0 stands for the constant
    sequence: <1, 1> = 1 and <1, {n/b}> = log(b)/b, with log b from the
    same math.log table as every other entry; key 1 is the zero sequence.
    The computation is elementwise (table lookups and exactly rounded
    arithmetic, no reductions), so each value is the same bit pattern
    whether it is computed alone or in any block. A block that holds key 0
    or 1 runs the general formula on them as if they were 2, so that nothing
    divides by zero, and their own values replace its result. See
    `inner_product_closed` for the formula.
    """
    global _TABLES
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    tables = _TABLES = _TABLES.ensure(max(int(b.max(initial=0)), 2))
    V, logs = tables.values, tables.logs
    low = a < 2
    if low.any():
        own = np.where(a == 0, np.where(b == 0, 1.0, logs[b] / np.maximum(b, 1)), 0.0)
        return np.where(low, own, inner_products_closed(np.where(low, 2, a), np.where(low, 2, b)))
    g = np.gcd(a, b)
    a_, b_ = a // g, b // g
    ends = V[a * (a - 1) // 2 + 1] + V[b * (b - 1) // 2 + 1]
    pair = V[a_ * (a_ - 1) // 2 + b_ % a_] + V[b_ * (b_ - 1) // 2 + a_ % b_]
    return (
        ((b - 1) * logs[a] + (a - 1) * logs[b] + math.pi * ends) / (2.0 * a * b)
        - math.pi * pair / (2.0 * a_ * b)
    )


def inner_product_closed(a: int, b: int) -> float:
    """Closed-form inner product of the sequences with Gram store keys a and b.

    Key 0 is the constant sequence and key l >= 1 the sequence {n/l}. With
    g = gcd(a, b), m = lcm(a, b), a' = a/g, b' = b/g and Vasyunin's sums V
    as in `_PeriodTables`, for 2 <= a <= b:

        <{n/a}, {n/b}> = ((b - 1) log a + (a - 1) log b + pi (V(1/a) + V(1/b)))/(2ab)
                         - (pi/(2m)) (V(a'/b') + V(b'/a')).

    It is the Abel-summation formula in the sums R(p, c) of `_PeriodTables`,
    where every gamma term cancels and log a' + log b' - 2 log m =
    -(log a + log b). Against the constant, <1, {n/b}> = log(b)/b;
    <1, 1> = 1, and key 1 is the zero sequence. The entry needs
    the O(a' + b') terms of V(./a') and V(./b'); these are tabulated once
    per period (p^2/2 terms for period p, O(L^3) for every period up to a
    cutoff L), after which each entry costs O(1). The pair is put in ascending
    order first, so the value is exactly symmetric.
    """
    lo, hi = sorted((a, b))
    if lo < 0:
        raise DomainError(f"keys must be nonnegative, got ({a}, {b})")
    return float(inner_products_closed(lo, hi))


# ---------------------------------------------------------------------------
# step functions on (0, 1]


@dataclass(frozen=True)
class PiecewiseConstant:
    """A function on (0, 1] constant on each dyadic-harmonic piece.

    Piece n is the interval (1/(n+1), 1/n]. The first len(head) pieces carry
    the explicit values in `head`; beyond them the values repeat the `tail`
    pattern cyclically, so the tail holds at least one value.
    """

    head: tuple[float, ...]
    tail: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if not self.tail:
            raise DomainError("tail must hold at least one value")

    @classmethod
    def constant_one(cls) -> "PiecewiseConstant":
        """The constant function 1 on (0, 1]."""
        return cls(head=(), tail=(1.0,))

    @classmethod
    def indicator(cls, n: int) -> "PiecewiseConstant":
        """Indicator of (0, 1/n]: zero on the first n-1 pieces, then one."""
        if n < 1:
            raise DomainError(f"indicator index must be >= 1, got {n}")
        return cls(head=(0.0,) * (n - 1), tail=(1.0,))

    @classmethod
    def fractional_parts(cls, l: int) -> "PiecewiseConstant":
        """The step model of frac(n/l): piece n carries (n mod l)/l."""
        if l < 1:
            raise DomainError(f"denominator must be >= 1, got {l}")
        return cls(head=(), tail=tuple(((np.arange(1, l + 1) % l) / float(l)).tolist()))

    def value_at_piece(self, n: int) -> float:
        if n < 1:
            raise DomainError(f"piece index must be >= 1, got {n}")
        if n <= len(self.head):
            return self.head[n - 1]
        return self.tail[(n - len(self.head) - 1) % len(self.tail)]

    def values_upto(self, n_trunc: int) -> np.ndarray:
        h = min(len(self.head), n_trunc)
        if n_trunc == h:
            return np.array(self.head[:h], dtype=np.float64)
        # One buffer: the head, then whole periods of the read part of the
        # tail (all of it unless n_trunc ends inside its first period),
        # broadcast row by row; the result is its first n_trunc entries.
        p = min(len(self.tail), n_trunc - h)
        out = np.empty(h + -(-(n_trunc - h) // p) * p)
        out[:h] = self.head[:h]
        out[h:].reshape(-1, p)[:] = self.tail[:p]
        return out[:n_trunc]


def dilate(m: int, f: PiecewiseConstant) -> PiecewiseConstant:
    """Compress a step function into (0, 1/m] and rescale: x -> sqrt(m) f(mx).

    The result is again a step function on the standard pieces: piece n of
    the output reads piece floor(n/m) of the input (zero for n < m), scaled
    by sqrt(m). Norms are preserved exactly. A periodic input tail of period
    p becomes a periodic output tail of period m*p.
    """
    if m < 1:
        raise DomainError(f"dilation factor must be >= 1, got {m}")
    if m == 1:
        return f
    root = math.sqrt(m)
    h = len(f.head)
    new_head = tuple(
        0.0 if n < m else root * f.value_at_piece(n // m)
        for n in range(1, m * (h + 1))
    )
    p = len(f.tail)
    start = m * (h + 1)
    new_tail = tuple(root * f.value_at_piece(n // m) for n in range(start, start + m * p))
    return PiecewiseConstant(head=new_head, tail=new_tail)
