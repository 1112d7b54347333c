"""Special functions: digamma, complex log-gamma, zeta, and xi.

All evaluators are double precision with documented accuracy targets:

    digamma      relative error <= 1e-13 on (0, 1e6]
    log_gamma    relative error of exp(log_gamma) <= 1e-12 for |s| <= 100,
                 Re s >= -1 (principal branch)
    zeta         relative error <= 1e-10 for Re s >= 1/4, |Im s| <= 60
    xi           relative error <= 1e-9 on the window Re s in [-2, 3]

zeta uses an accelerated alternating (eta) series whose coefficients are
built in exact integer arithmetic; the term count comes from the scheme's
published error estimate (digits ~ 1.31*D + 0.9*|t|) with a four-digit
safety margin folded into D. The deflated product (s-1)*zeta(s) divides the
same eta sum by (1 - 2^(1-s))/(s-1) = log 2 * expm1(x)/x, x = (1-s) log 2,
which has no cancellation anywhere, so downstream formulas can cross the
pole: measured within 1e-15 absolute of 40-digit mpmath on |s - 1| <= 2e-3,
and within 2.3e-14 relative, the eta series' own error, on a far grid.
zeta itself is that product over s - 1, so it keeps full relative accuracy
right up to the pole guard.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, PoleError, UnstablePointError

# Euler's constant, gamma = -psi(1), correctly rounded.
EULER_GAMMA = 0.5772156649015329

_LN2 = math.log(2.0)
_LN_PI = math.log(math.pi)
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

# ---------------------------------------------------------------------------
# domains


def finite_complex(s) -> complex:
    """Coerce to complex and reject non-finite components."""
    z = complex(s)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite complex input {z!r}")
    return z


# ---------------------------------------------------------------------------
# digamma

# Shift every argument upward by this much before applying the asymptotic
# series; the series is truncated after the 1/x^12 term.
_PSI_SHIFT = 8.0

# B_{2k}/(2k) for the asymptotic tail, alternating signs folded in below.
_PSI_C = (
    1.0 / 12.0,
    1.0 / 120.0,
    1.0 / 252.0,
    1.0 / 240.0,
    1.0 / 132.0,
    691.0 / 32760.0,
)


def digamma_array(x: np.ndarray) -> np.ndarray:
    """Vectorized digamma for positive float arrays.

    The recurrence psi(x) = psi(x + 8) - sum_{j<8} 1/(x+j) holds for every
    x > 0, so the shift is applied unconditionally; this keeps the kernel
    branch-free. The Gram tables no longer call it; it stays only as a
    boundary that the benchmark wraps.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size and (not np.isfinite(x).all() or (x <= 0.0).any()):
        raise PoleError("digamma_array: arguments must be positive and finite")
    y = x + _PSI_SHIFT
    u = 1.0 / y
    u2 = u * u
    tail = np.full_like(y, _PSI_C[5])
    for c in (_PSI_C[4], _PSI_C[3], _PSI_C[2], _PSI_C[1], _PSI_C[0]):
        tail = c - u2 * tail
    value = np.log(y) - 0.5 * u - u2 * tail
    for j in range(int(_PSI_SHIFT)):
        value -= 1.0 / (x + j)
    return value


# ---------------------------------------------------------------------------
# log-gamma

_LG_SHIFT = 16.0

# B_{2k} / (2k (2k-1)) for Stirling's series, k = 1..8.
_LG_C = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)


def log_gamma(s) -> complex:
    """Principal-branch log Gamma.

    The argument is shifted right until Re w >= 16, Stirling's series is
    applied there, and the principal logs of the shifted factors are
    subtracted back out. On the negative real axis (between the poles) the
    value is the limit from above.
    """
    z = finite_complex(s)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise PoleError(f"log_gamma: pole at nonpositive integer {z.real}")
    acc_re: list[float] = []
    acc_im: list[float] = []
    w = z
    while w.real < _LG_SHIFT:
        lw = cmath.log(w)
        acc_re.append(-lw.real)
        acc_im.append(-lw.imag)
        w += 1.0
    v = 1.0 / w
    v2 = v * v
    tail = complex(_LG_C[7])
    for c in (_LG_C[6], _LG_C[5], _LG_C[4], _LG_C[3], _LG_C[2], _LG_C[1], _LG_C[0]):
        tail = c + v2 * tail
    value = (w - 0.5) * cmath.log(w) - w + _HALF_LN_2PI + v * tail
    if acc_re:
        value += complex(math.fsum(acc_re), math.fsum(acc_im))
    return value


# ---------------------------------------------------------------------------
# zeta

# Target digits for the eta acceleration: 13 working digits plus a 4-digit
# safety margin. Term count n ~ 1.31*digits + 0.9*|t|, padded and rounded up.
_ZETA_DIGITS = 13 + 4
_POLE_RADIUS = 1e-8
_T_CAP = 300.0


def _eta_coefficients(n: int) -> tuple[float, ...]:
    """Normalized acceleration coefficients c_k = (d_n - d_k)/d_n, exact.

    d_k = n * sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!), where each summand is
    n 4^i C(n+i, 2i)/(n+i). Scaled by M = lcm(n..2n), every d_k is an integer,
    and each c_k is one correctly rounded int/int division.
    """
    m = math.lcm(*range(n, 2 * n + 1))
    term = 0
    d = []
    for i in range(n + 1):
        term += n * 4**i * math.comb(n + i, 2 * i) * (m // (n + i))
        d.append(term)
    dn = d[-1]
    return tuple((dn - dk) / dn for dk in d[:-1])


def _eta_term_count(t_abs: float) -> int:
    n = math.ceil(1.31 * _ZETA_DIGITS + 0.9 * t_abs) + 8
    return (n + 3) & ~3


def _cexprel(x: complex) -> complex:
    """(exp(x) - 1)/x without cancellation for small |x|, and 1 at x = 0."""
    if abs(x) > 0.25:
        return (cmath.exp(x) - 1.0) / x
    total = term = 1.0 + 0j
    for n in range(2, 19):
        term *= x / n
        total += term
    return total


@lru_cache(maxsize=64)
def _eta_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The signed coefficients (-1)^k c_k and log(k + 1), k < n, as arrays."""
    signed = np.array(_eta_coefficients(n))
    signed[1::2] *= -1.0
    logs = np.array([math.log(k + 1) for k in range(n)])
    signed.flags.writeable = logs.flags.writeable = False
    return signed, logs


def _eta(z: complex) -> complex:
    """Dirichlet eta(z) = (1 - 2^(1-z)) zeta(z) by the accelerated series.

    Applies the domain guards zeta and zeta_deflated share: Re z >= 0,
    |Im z| <= 300, and UnstablePointError within 1e-8 of the zeros
    1 + 2 pi i k / ln 2, k != 0, of the divisor 1 - 2^(1-z).
    """
    # 0.0 == -0.0 and both hash alike, so the signs go into the key: a
    # cached value is returned only for a z whose zeros carry the same signs.
    return _eta_at(z, math.copysign(1.0, z.real), math.copysign(1.0, z.imag))


@lru_cache(maxsize=1024)
def _eta_at(z: complex, re_sign: float, im_sign: float) -> complex:
    if z.real < 0.0:
        raise DomainError(f"zeta: Re s must be >= 0, got {z.real}")
    if abs(z.imag) > _T_CAP:
        raise DomainError(f"zeta: |Im s| capped at {_T_CAP}, got {z.imag}")
    if abs(z.real - 1.0) <= _POLE_RADIUS:
        k = round(z.imag * _LN2 / (2.0 * math.pi))
        if k != 0 and abs(z - complex(1.0, 2.0 * math.pi * k / _LN2)) <= _POLE_RADIUS:
            raise UnstablePointError("zeta: within 1e-8 of a zero of 1 - 2^(1-s)")
    signed, logs = _eta_tables(_eta_term_count(abs(z.imag)))
    # One operand of each product has a zero imaginary part, so numpy's
    # complex product rounds as Python's does; with numpy's complex exp the
    # terms are those of the scalar loop bit for bit, which the tests check
    # against that loop.
    terms = signed * np.exp(-z * logs)
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


def zeta(s) -> complex:
    """Riemann zeta on Re s >= 0 via the accelerated alternating series.

    Evaluated as zeta_deflated(s) / (s - 1), so the divisor 1 - 2^(1-s)
    never cancels near the pole. Raises PoleError within 1e-8 of s = 1 and
    UnstablePointError within 1e-8 of the other zeros of that divisor, which
    sit at s = 1 + 2 pi i k / ln 2.
    """
    z = finite_complex(s)
    if abs(z - 1.0) <= _POLE_RADIUS:
        raise PoleError("zeta: pole at s = 1")
    return zeta_deflated(z) / (z - 1.0)


def zeta_deflated(s) -> complex:
    """(s - 1) * zeta(s), finite and analytic through s = 1.

    eta(s) / (log 2 * expm1(x)/x) with x = (1 - s) log 2, so eta(1)/log 2
    at s = 1: the divisor is 1 - 2^(1-s) over s - 1 without cancellation.
    Same domain and UnstablePointError guard as zeta, but no pole.
    """
    z = finite_complex(s)
    return _eta(z) / (_LN2 * _cexprel((1.0 - z) * _LN2))


# ---------------------------------------------------------------------------
# completed zeta and xi

_XI_WINDOW = (-2.0, 3.0)


def xi(s) -> complex:
    """The xi function s(1-s) pi^(-s/2) Gamma(s/2) zeta(s) on Re s in [-2, 3].

    Evaluated in the pole-free factorization
        xi(s) = -2 pi^(-s/2) Gamma(s/2 + 1) * (s-1) zeta(s),
    which fills the removable points s = 0 and s = 1 with their limits
    (xi(0) = xi(1) = -1). Arguments left of the zeta domain (Re s < 0) are
    reflected through the functional equation xi(s) = xi(1-s); everywhere
    else the product is evaluated directly.
    """
    z = finite_complex(s)
    if not _XI_WINDOW[0] <= z.real <= _XI_WINDOW[1]:
        raise DomainError(f"xi: Re s = {z.real} outside window {_XI_WINDOW}")
    if z.real < 0.0:
        z = 1.0 - z
    return -2.0 * cmath.exp(log_gamma(0.5 * z + 1.0) - 0.5 * z * _LN_PI) * zeta_deflated(z)


# Violations are only flagged beyond this relative slack, so honest float
# noise on equal magnitudes does not read as a counterexample.
_XI_REL_TOL = 1e-9


def xi_inequality_check(grid, eps: float) -> tuple[int, float]:
    """Compare |xi(s)| against |xi(s + eps)| over a grid in Re s >= 1/2.

    Args:
        grid: Iterable of complex points, all with Re s >= 1/2.
        eps: Rightward shift, 0 < eps < 1/2.

    Returns:
        (violations, max_deficit): the count of points where |xi(s)| exceeds
        |xi(s + eps)| beyond numerical tolerance, and the largest excess (0.0 if none).
        A NaN on either side counts as a violation, and makes max_deficit NaN.
    """
    if not 0.0 < eps < 0.5:
        raise DomainError(f"xi_inequality_check: eps must be in (0, 1/2), got {eps}")
    deficits = []
    for raw in grid:
        z = finite_complex(raw)
        if z.real < 0.5:
            raise DomainError(f"xi_inequality_check: grid point {z} has Re s < 1/2")
        a = abs(xi(z))
        b = abs(xi(z + eps))
        if not a <= b + _XI_REL_TOL * max(a, b):
            deficits.append(a - b)
    return len(deficits), float(np.max(deficits, initial=0.0))
