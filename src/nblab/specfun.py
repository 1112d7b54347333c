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
safety margin folded into D. Near s = 1 the product (s-1)*zeta(s) is served
from a locally computed Taylor expansion so downstream formulas can cross
the pole without cancellation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
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

# Shift arguments below this threshold upward before applying the
# asymptotic series; the series is truncated after the 1/x^12 term.
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


def digamma(x: float) -> float:
    """Real digamma psi(x) for x > 0.

    Upward recurrence psi(x) = psi(x+1) - 1/x until the argument clears the
    shift threshold, then the Stirling-type asymptotic series.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"digamma: non-finite argument {x!r}")
    if x <= 0.0:
        raise PoleError(f"digamma: argument must be positive, got {x}")
    shifts = []
    while x < _PSI_SHIFT:
        shifts.append(1.0 / x)
        x += 1.0
    u = 1.0 / x
    u2 = u * u
    tail = _PSI_C[5]
    for c in (_PSI_C[4], _PSI_C[3], _PSI_C[2], _PSI_C[1], _PSI_C[0]):
        tail = c - u2 * tail
    value = math.log(x) - 0.5 * u - u2 * tail
    if shifts:
        value -= math.fsum(shifts)
    return value


def digamma_array(x: np.ndarray) -> np.ndarray:
    """Vectorized digamma for positive float arrays (same algorithm).

    The recurrence psi(x) = psi(x + 8) - sum_{j<8} 1/(x+j) holds for every
    x > 0, so the shift is applied unconditionally; this keeps the kernel
    branch-free.
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


@lru_cache(maxsize=64)
def _eta_coefficients(n: int) -> tuple[float, ...]:
    """Normalized acceleration coefficients c_k = (d_n - d_k)/d_n, exact.

    d_k = n * sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!), computed in exact
    rational arithmetic and rounded once at the end.
    """
    term = Fraction(0)
    d = []
    for i in range(n + 1):
        term += Fraction(
            n * math.factorial(n + i - 1) * 4**i,
            math.factorial(n - i) * math.factorial(2 * i),
        )
        d.append(term)
    dn = d[-1]
    return tuple(float((dn - dk) / dn) for dk in d[:-1])


def _eta_term_count(t_abs: float) -> int:
    n = math.ceil(1.31 * _ZETA_DIGITS + 0.9 * t_abs) + 8
    return (n + 3) & ~3


def zeta(s) -> complex:
    """Riemann zeta on Re s >= 0 via the accelerated alternating series.

    Raises PoleError within 1e-8 of s = 1 and UnstablePointError within
    1e-8 of the other zeros of the denominator 1 - 2^(1-s), which sit at
    s = 1 + 2 pi i k / ln 2.
    """
    z = finite_complex(s)
    if z.real < 0.0:
        raise DomainError(f"zeta: Re s must be >= 0, got {z.real}")
    if abs(z.imag) > _T_CAP:
        raise DomainError(f"zeta: |Im s| capped at {_T_CAP}, got {z.imag}")
    if abs(z - 1.0) <= _POLE_RADIUS:
        raise PoleError("zeta: pole at s = 1")
    if abs(z.real - 1.0) <= _POLE_RADIUS:
        k = round(z.imag * _LN2 / (2.0 * math.pi))
        if k != 0 and abs(z - complex(1.0, 2.0 * math.pi * k / _LN2)) <= _POLE_RADIUS:
            raise UnstablePointError("zeta: within 1e-8 of a zero of 1 - 2^(1-s)")
    coeffs = _eta_coefficients(_eta_term_count(abs(z.imag)))
    re: list[float] = []
    im: list[float] = []
    sign = 1.0
    for k, c in enumerate(coeffs):
        term = sign * c * cmath.exp(-z * math.log(k + 1))
        re.append(term.real)
        im.append(term.imag)
        sign = -sign
    eta = complex(math.fsum(re), math.fsum(im))
    return eta / (1.0 - cmath.exp((1.0 - z) * _LN2))


# ---------------------------------------------------------------------------
# the deflated pole factor (s-1) * zeta(s)

_DEFLATE_RADIUS = 1e-3
_TAYLOR_SAMPLE_RADIUS = 0.1
_TAYLOR_TERMS = 14
_taylor_cache: list[float] = []


def _deflated_taylor() -> list[float]:
    """Taylor coefficients of q(s) = (s-1) zeta(s) at s = 1.

    Recovered from the zeta evaluator itself by a discrete Cauchy integral
    over a circle of radius 0.1 around the pole. q is real-analytic, so the
    coefficients are real; the leading ones are 1 and Euler's constant.
    """
    if _taylor_cache:
        return _taylor_cache
    m = 64
    samples = []
    for j in range(m):
        w = _TAYLOR_SAMPLE_RADIUS * cmath.exp(2.0 * math.pi * 1j * j / m)
        sj = 1.0 + w
        samples.append((sj - 1.0) * zeta(sj))
    coeffs = []
    for k in range(_TAYLOR_TERMS):
        acc_re = []
        for j, q in enumerate(samples):
            rot = cmath.exp(-2.0 * math.pi * 1j * j * k / m)
            acc_re.append((q * rot).real)
        coeffs.append(math.fsum(acc_re) / (m * _TAYLOR_SAMPLE_RADIUS**k))
    _taylor_cache.extend(coeffs)
    return _taylor_cache


def zeta_deflated(s) -> complex:
    """(s - 1) * zeta(s), finite and smooth through s = 1.

    Inside |s - 1| < 1e-3 the value comes from the Taylor expansion; outside,
    from the direct product.
    """
    z = finite_complex(s)
    w = z - 1.0
    if abs(w) >= _DEFLATE_RADIUS:
        return w * zeta(z)
    value = 0j
    for c in reversed(_deflated_taylor()):
        value = c + w * value
    return value


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


@dataclass(frozen=True)
class XiComparison:
    """One grid point of the shifted-modulus comparison."""

    s: complex
    xi_abs: float
    shifted_abs: float
    margin: float  # shifted_abs - xi_abs; negative means a violation


@dataclass(frozen=True)
class XiInequalityReport:
    eps: float
    violations: tuple[XiComparison, ...] = ()

    @property
    def max_deficit(self) -> float:
        """Largest amount by which |xi(s)| exceeded |xi(s+eps)| (0 if none)."""
        if not self.violations:
            return 0.0
        return max(-v.margin for v in self.violations)


# Violations are only flagged beyond this relative slack, so honest float
# noise on equal magnitudes does not read as a counterexample.
_XI_REL_TOL = 1e-9


def xi_inequality_check(grid, eps: float) -> XiInequalityReport:
    """Compare |xi(s)| against |xi(s + eps)| over a grid in Re s >= 1/2.

    Args:
        grid: Iterable of complex points, all with Re s >= 1/2.
        eps: Rightward shift, 0 < eps < 1/2.

    Returns:
        XiInequalityReport listing the violations of |xi(s)| <= |xi(s + eps)|
        beyond numerical tolerance.
    """
    if not 0.0 < eps < 0.5:
        raise DomainError(f"xi_inequality_check: eps must be in (0, 1/2), got {eps}")
    violations = []
    for raw in grid:
        z = finite_complex(raw)
        if z.real < 0.5:
            raise DomainError(f"xi_inequality_check: grid point {z} has Re s < 1/2")
        a = abs(xi(z))
        b = abs(xi(z + eps))
        cmp = XiComparison(s=z, xi_abs=a, shifted_abs=b, margin=b - a)
        if a > b + _XI_REL_TOL * max(a, b):
            violations.append(cmp)
    return XiInequalityReport(eps=eps, violations=tuple(violations))
