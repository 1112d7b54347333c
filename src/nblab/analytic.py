"""Numerical verification of the analytic identities behind the criterion.

Everything here evaluates both sides of an identity on a fixed grid and
reports the worst residual:

  * the Mellin transform of the fractional-part kernels, integrated
    piecewise in closed form with a certified truncation bound, against
    the zeta-based closed form;
  * Moebius-smoothed partial transforms, evaluated for every cutoff and
    point of a sweep in one call, against their fixed-smoothing limit, and
    the two algebraically equal assembly orders against each other;
  * the scaling semigroup: the inner function mu^(s-1/2), its unit modulus
    on the critical line, and the multiplication identity it induces on
    the kernel transforms;
  * the completed-zeta growth inequality along horizontal shifts.

Grids are fixed, versioned constants so that reports are reproducible
run-to-run; every sweep is a pure function of (grid, parameters).
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .arith import MoebiusTable, sieve_moebius, verify_recurrence
from .errors import DomainError, PoleError, UnstablePointError
from .seqspace import PiecewiseConstant, dilate, inner_product_truncated
from .specfun import (
    _cexprel,
    finite_complex,
    xi,
    xi_inequality_check,
    zeta,
    zeta_deflated,
)
from .summation import compensated_sum, prefix_fsums

# ---------------------------------------------------------------------------
# fixed evaluation grids


@dataclass(frozen=True)
class EvaluationGrid:
    """A named, versioned tuple of sample points; ids appear in reports."""

    grid_id: str
    points: tuple[complex, ...]


def _mesh(sigmas: Sequence[float], ts: Sequence[float]) -> tuple[complex, ...]:
    return tuple(complex(sg, t) for sg in sigmas for t in ts)


# 16 points with sigma in [0.6, 3], |t| <= 10 for the Mellin identity.
MELLIN_GRID = EvaluationGrid(
    "mellin-16pt-v1", _mesh((0.6, 1.1, 2.0, 3.0), (-10.0, -2.5, 2.5, 10.0))
)

# 20 points for the multiplication identity; includes s = 1 on purpose,
# where the transforms switch to their deflated branch.
SEMIGROUP_GRID = EvaluationGrid(
    "semigroup-20pt-v1", _mesh((0.6, 1.0, 1.6, 2.5), (-8.0, -1.0, 0.0, 4.0, 10.0))
)

# 50 points straddling the critical line for the reflection residual.
XI_REFLECTION_GRID = EvaluationGrid(
    "xi-reflection-50pt-v1",
    _mesh(
        (0.1, 0.3, 0.5, 0.7, 0.9),
        (0.0, 3.3, 6.6, 9.9, 13.2, 16.5, 19.8, 23.1, 26.4, 29.7),
    ),
)

# Default grid for the shift inequality: closed right half of the strip,
# shifts stay inside the evaluation window.
XI_SHIFT_GRID = EvaluationGrid(
    "xi-shift-42pt-v1",
    _mesh((0.5, 0.6, 0.75, 0.9, 1.2, 1.5, 2.0), (0.0, 1.0, 2.5, 5.0, 8.0, 12.0)),
)

# Critical-line grid for smoothing-limit convergence experiments.
CRITICAL_LINE_GRID = EvaluationGrid(
    "critline-101pt-v1", tuple(complex(0.5, t) for t in np.linspace(-20.0, 20.0, 101))
)

UNITARY_SEED = 20260815


# ---------------------------------------------------------------------------
# kernels and their exact Mellin integrals


@dataclass(frozen=True)
class BoundedValue:
    """A computed complex value plus a certified bound on its truncation error."""

    value: complex
    error_bound: float


def pieces_for_tolerance(lam: float, sigma: float, tol: float) -> int:
    """Smallest piece count whose omitted-tail bound (lam/(K+1))^sigma / sigma
    falls below tol."""
    if sigma <= 0.0:
        raise DomainError(f"tolerance planning needs sigma > 0, got {sigma}")
    if tol <= 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    if lam == 0.0:
        return 1
    need = lam * (sigma * tol) ** (-1.0 / sigma) - 1.0
    return max(1, math.ceil(need))


# Bernoulli B_{2k}/(2k)! for the Euler-Maclaurin correction terms, k = 1..4.
_EM_COEFF = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)
# |B_10/10!| for the remainder estimate.
_EM_NEXT = 5.0 / 66.0 / 3628800.0

_EXPLICIT_PIECES = 4096
# Tail bound that `verify_claim` plans every piece count for.
_CLAIM_TAIL_TOL = 2e-9


@lru_cache(maxsize=64)
def _power_sum(s: complex, k_max: int) -> complex:
    """sum_{k=1}^{k_max} k^(-s), compensated; k_max stays <= _EXPLICIT_PIECES.

    Memoized: it does not depend on the kernel scale, so a Mellin check over
    several scales and both kernels of `mellin_exact` repeats each (s, k_max).
    """
    k = np.arange(1, k_max + 1, dtype=np.float64)
    terms = np.exp(-s * np.log(k))
    return complex(
        compensated_sum(terms.real), compensated_sum(terms.imag)
    )


def _cpow(base: float, expo: complex) -> complex:
    return cmath.exp(expo * math.log(base))


def _frac_scaled_transform(lam: float, s: complex, pieces: int) -> BoundedValue:
    """Integral over (0, 1] of {lam/x} x^(s-1), cut off after `pieces` pieces.

    The integrand is lam/x - k on (lam/(k+1), lam/k] and lam/x on (lam, 1],
    so every piece integrates in closed form, and the head plus the first
    4096 pieces telescope to

        lam (1 - (lam/A)^(s-1)) / (s-1) - lam^s (PS - K0 A^(-s)) / s,

    with K0 explicit pieces, A = K0+1, PS = sum_{k<=K0} k^(-s). Pieces
    K0 < k <= `pieces` reduce the same way to one power sum over
    (A+1..pieces+1), evaluated by Euler-Maclaurin; the B^(1-s) integral
    terms of the two groupings cancel exactly and are never computed, so
    piece counts of 1e14 and beyond cost nothing and overflow nothing.
    The certified bound covers the omitted (0, lam/(pieces+1)] tail plus
    the EM remainder.
    """
    if lam == 0.0:
        return BoundedValue(0j, 0.0)
    sigma = s.real
    k_explicit = min(pieces, _EXPLICIT_PIECES)
    a_edge = float(k_explicit + 1)
    lam_s = _cpow(lam, s)
    value = lam * (1.0 - _cpow(lam / a_edge, s - 1.0)) / (s - 1.0)
    value -= lam_s * (_power_sum(s, k_explicit) - k_explicit * _cpow(a_edge, -s)) / s
    em_err = 0.0
    if pieces > k_explicit:
        b_edge = float(pieces + 1)
        remainder = (_cpow(a_edge, 1.0 - s) - _cpow(a_edge + 1.0, 1.0 - s)) / (s * (s - 1.0))
        remainder -= (_cpow(a_edge + 1.0, -s) + _cpow(b_edge, -s)) / (2.0 * s)
        poch = s
        for k, coeff in enumerate(_EM_COEFF, start=1):
            remainder -= (
                coeff * poch
                * (_cpow(a_edge + 1.0, -s - (2 * k - 1)) - _cpow(b_edge, -s - (2 * k - 1)))
                / s
            )
            poch *= (s + (2 * k - 1)) * (s + 2 * k)
        # poch is now the order-9 falling product; bound the first omitted
        # EM term with a safety factor of 2.
        em_err = 2.0 * _EM_NEXT * abs(poch) * (a_edge + 1.0) ** (-sigma - 9.0)
        value += lam_s * remainder
    tail = (lam / (pieces + 1.0)) ** sigma / sigma
    return BoundedValue(value, tail + abs(lam_s) * em_err / abs(s))


def mellin_exact(lam: float, s: complex, pieces: int) -> BoundedValue:
    """Piecewise-exact Mellin integral over (0, 1] of the combined kernel
    {lam/x} - lam {1/x}, whose transform has no pole at s = 1.

    Requires 0 <= lam <= 1, Re s > 0 and s != 1; `pieces` counts how many
    fractional-part pieces are integrated before the certified tail bound
    takes over.
    """
    if not (0.0 <= lam <= 1.0):
        raise DomainError(f"kernel scale must be in [0, 1], got {lam}")
    z = finite_complex(s)
    if z.real <= 0.0:
        raise DomainError(f"Mellin integral requires Re s > 0, got {z}")
    if z == 1.0:
        raise PoleError("Mellin integral is not defined at s = 1")
    if pieces < 1:
        raise DomainError(f"piece count must be >= 1, got {pieces}")
    part = _frac_scaled_transform(lam, z, pieces)
    whole = _frac_scaled_transform(1.0, z, pieces)
    return BoundedValue(
        part.value - lam * whole.value,
        part.error_bound + lam * whole.error_bound,
    )


# ---------------------------------------------------------------------------
# closed-form transforms


def combined_kernel_transform(lam: float, s: complex) -> complex:
    """(lam^s - lam) zeta(s) / s: minus the Mellin transform of the combined
    kernel, analytic across s = 1 where it takes the value lam*log(lam).

    Evaluated as lam * log(lam) * (expm1(x)/x) * (s-1)zeta(s) / s with
    x = (s-1) log(lam): no factor cancels, and expm1(x)/x is 1 at x = 0.
    """
    z = finite_complex(s)
    if not (0.0 <= lam <= 1.0):
        raise DomainError(f"kernel scale must be in [0, 1], got {lam}")
    if lam == 0.0:
        return 0j
    log_lam = math.log(lam)
    ratio = log_lam * _cexprel((z - 1.0) * log_lam)
    return lam * ratio * zeta_deflated(z) / z


def reciprocal_kernel_transform(l: int, s: complex) -> complex:
    """(l^-s - l^-1) zeta(s) / s for integer l >= 1: the transform attached
    to the fractional-part sequence with denominator l."""
    if l < 1:
        raise DomainError(f"denominator must be >= 1, got {l}")
    return combined_kernel_transform(1.0 / l, s)


def scale_inner_function(mu: float, s: complex) -> complex:
    """mu^(s - 1/2): unit modulus on the critical line, multiplicative in mu."""
    if not (0.0 < mu <= 1.0):
        raise DomainError(f"scale must be in (0, 1], got {mu}")
    return _cpow(mu, finite_complex(s) - 0.5)


def moebius_partial_transform(
    cutoffs: Sequence[int], eps: float, points: Sequence[complex], table: MoebiusTable
) -> np.ndarray:
    """(zeta(s)/s) (sum_{l<=L} mu(l) l^(-s-eps) - sum_{l<=L} mu(l) l^(-1-eps))
    for every cutoff L in `cutoffs` and point s in `points`, as a complex128
    array of shape (len(cutoffs), len(points)).

    Algebraically equal to sum_{l<=L} mu(l) l^(-eps) times the reciprocal
    kernel transforms; the two assembly orders are compared in tests.

    The terms over square-free l up to the largest cutoff are evaluated once
    per point by complex128 numpy ufuncs; the s-free sum at s = 1 is taken
    once for all cutoffs. `summation.prefix_fsums` sums every cutoff's prefix
    in one vectorized pass: error-free extraction splits the terms into
    parts whose prefix sums numpy adds exactly, and math.fsum of those few
    exact floats rounds each prefix's exact sum correctly. Every cell is
    bit-identical to the per-term loop `oracles.moebius_partial_transform_loop`
    at that one (L, s), whatever else shares the call: numpy's float64 log
    and exp are SIMD routines that differ from libm in the last bit, while
    its complex128 ones agree with math/cmath, and a correctly rounded sum
    does not depend on how the exact sum was reached.
    """
    if len(cutoffs) == 0:
        raise DomainError("need at least one cutoff")
    for L in cutoffs:
        if L < 1:
            raise DomainError(f"cutoff must be >= 1, got {L}")
        if L > table.limit:
            raise DomainError(f"cutoff {L} exceeds sieve limit {table.limit}")
    if not 0.0 < eps < math.inf:
        raise DomainError(f"smoothing must be positive and finite, got {eps}")
    l = np.flatnonzero(table.mu[: max(cutoffs) + 1])
    ends = np.searchsorted(l, cutoffs, side="right")
    mu_l = table.mu[l].astype(np.float64)
    log_l = np.log(l.astype(np.complex128)).real
    weights = mu_l * np.exp((-(1.0 + eps) * log_l).astype(np.complex128)).real
    at_one = prefix_fsums(weights, ends)
    out = np.empty((len(cutoffs), len(points)), dtype=np.complex128)
    for j, s in enumerate(points):
        z = finite_complex(s)
        scale = zeta(z) / z
        terms = mu_l * np.exp(-(z + eps) * log_l)
        sums = zip(prefix_fsums(terms.real, ends), prefix_fsums(terms.imag, ends), at_one)
        out[:, j] = [scale * (complex(re, im) - one) for re, im, one in sums]
    return out


def moebius_limit_transform(eps: float, s: complex) -> complex:
    """(zeta(s)/s) (1/zeta(s+eps) - 1/zeta(1+eps)) for fixed smoothing eps > 0.

    Refuses points where zeta(s+eps) is too close to zero for the reciprocal
    to be trustworthy.
    """
    if not 0.0 < eps < math.inf:
        raise DomainError(f"smoothing must be positive and finite, got {eps}")
    z = finite_complex(s)
    if z.real < 0.5:
        raise DomainError(f"limit transform is evaluated on Re s >= 1/2, got {z}")
    # 1/zeta(w) as (w - 1) / ((s - 1) zeta(s)) at s = w, which also holds at
    # the pole; z - 1 is exact on Re z in [1/2, 2], so w - 1 is rounded once.
    w, w_1 = z + eps, (z - 1.0) + eps
    deflated = zeta_deflated(w)
    if abs(deflated) <= 1e-8 * abs(w_1):
        raise UnstablePointError(
            f"zeta({w}) = {deflated / w_1} is too close to zero for a stable reciprocal"
        )
    recip = w_1 / deflated
    # 1/zeta(1 + eps) as eps / ((s - 1) zeta(s)) at s = 1 + eps: no pole guard to trip.
    return zeta(z) / z * (recip - eps / zeta_deflated(1.0 + eps))


# ---------------------------------------------------------------------------
# identity checks


def verify_claim(lam: float, grid: Sequence[complex]) -> float:
    """Worst residual of (Mellin of combined kernel) + closed-form transform.

    The two sides are computed by wholly different routes: piecewise
    integration with a certified tail on one side, the zeta product on the
    other. Grid points need Re s > 1/2 for the piece counts to stay sane.
    """
    worst = 0.0
    for s in grid:
        z = finite_complex(s)
        if z.real <= 0.5 or z == 1.0:
            raise DomainError(f"claim grid needs Re s > 1/2 and s != 1, got {z}")
        pieces = pieces_for_tolerance(1.0, z.real, _CLAIM_TAIL_TOL)
        got = mellin_exact(lam, z, pieces)
        residual = abs(got.value + combined_kernel_transform(lam, z))
        worst = max(worst, residual)
    return worst


def semigroup_identity_check(
    lam: float, mu: float, grid: Sequence[complex]
) -> float:
    """Worst residual of the multiplication identity on the transforms:

        mu^(s-1/2) T(lam) = mu^(-1/2) (T(lam*mu) - lam T(mu)),

    where T is the combined kernel transform, which checks lam."""
    if not (0.0 < mu <= 1.0):
        raise DomainError(f"scale must be in (0, 1], got {mu}")
    inv_root = 1.0 / math.sqrt(mu)
    worst = 0.0
    for s in grid:
        lhs = scale_inner_function(mu, s) * combined_kernel_transform(lam, s)
        rhs = inv_root * (
            combined_kernel_transform(lam * mu, s)
            - lam * combined_kernel_transform(mu, s)
        )
        worst = max(worst, abs(lhs - rhs))
    return worst


def inner_function_check(mu: float, t_grid: Sequence[float]) -> float:
    """Worst deviation of |mu^(it)| from 1 on the critical line (mu checked per point)."""
    worst = 0.0
    for t in t_grid:
        worst = max(worst, abs(abs(scale_inner_function(mu, complex(0.5, t))) - 1.0))
    return worst


def inner_product_rule_check(
    mu_a: float, mu_b: float, grid: Sequence[complex]
) -> float:
    """Worst residual of the product law mu_a^(s-1/2) mu_b^(s-1/2) =
    (mu_a mu_b)^(s-1/2)."""
    worst = 0.0
    for s in grid:
        lhs = scale_inner_function(mu_a, s) * scale_inner_function(mu_b, s)
        rhs = scale_inner_function(mu_a * mu_b, s)
        worst = max(worst, abs(lhs - rhs))
    return worst


def xi_reflection_check(grid: Sequence[complex]) -> float:
    """Worst |xi(s) - xi(1-s)| / max(1, |xi(s)|) over the grid."""
    worst = 0.0
    for s in grid:
        a = xi(s)
        b = xi(1.0 - s)
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    return worst


# ---------------------------------------------------------------------------
# verification suites


@dataclass(frozen=True)
class VerificationReport:
    check: str
    parameters: dict
    grid_id: str
    max_residual: float
    budget: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "parameters": self.parameters,
            "grid_id": self.grid_id,
            "max_residual": self.max_residual,
            "budget": self.budget,
            "pass": self.passed,
        }


def _report(check, parameters, grid_id, residual, budget) -> VerificationReport:
    return VerificationReport(
        check=check,
        parameters=parameters,
        grid_id=grid_id,
        max_residual=residual,
        budget=budget,
        passed=residual <= budget,
    )


def suite_mellin() -> list[VerificationReport]:
    reports = []
    for lam in (0.5, 1.0 / 3.0, 0.2, 0.7):
        residual = verify_claim(lam, MELLIN_GRID.points)
        reports.append(
            _report("mellin-transform-identity", {"lam": lam}, MELLIN_GRID.grid_id,
                    residual, 1e-8)
        )
    return reports


def suite_semigroup() -> list[VerificationReport]:
    reports = []
    for lam, mu in ((0.5, 1.0 / 3.0), (1.0, 0.5), (0.3, 1.0), (0.25, 0.4), (0.7, 0.9)):
        residual = semigroup_identity_check(lam, mu, SEMIGROUP_GRID.points)
        reports.append(
            _report("multiplication-identity", {"lam": lam, "mu": mu},
                    SEMIGROUP_GRID.grid_id, residual, 1e-10)
        )
    return reports


def suite_xi() -> list[VerificationReport]:
    reports = [
        _report("reflection-symmetry", {}, XI_REFLECTION_GRID.grid_id,
                xi_reflection_check(XI_REFLECTION_GRID.points), 1e-8)
    ]
    for eps in (0.1, 0.25):
        violations, max_deficit = xi_inequality_check(XI_SHIFT_GRID.points, eps)
        reports.append(
            _report("shift-inequality", {"eps": eps, "violations": violations},
                    XI_SHIFT_GRID.grid_id, max_deficit, 0.0)
        )
    return reports


def suite_unitary() -> list[VerificationReport]:
    rng = random.Random(UNITARY_SEED)
    worst_norm = 0.0
    for _ in range(100):
        n_pieces = rng.randrange(1, 120)
        head = tuple(rng.uniform(-2.0, 2.0) for _ in range(n_pieces))
        f = PiecewiseConstant(head=head, tail=(0.0,))
        # The sequence side weighs term n by 1/(n(n+1)); the function side
        # integrates f^2 over each piece (1/(n+1), 1/n] from its endpoints.
        sequence = inner_product_truncated(f, f, n_pieces)
        function = math.fsum(
            f.value_at_piece(n) ** 2 * (1 / n - 1 / (n + 1)) for n in range(1, n_pieces + 1)
        )
        worst_norm = max(worst_norm, abs(sequence - function))
    reports = [
        _report("sequence-map-preserves-norm", {"functions": 100, "seed": UNITARY_SEED},
                "random-step-v2", worst_norm, 1e-14)
    ]

    worst_ind = 0.0
    for m in range(1, 11):
        for n in range(1, 11):
            got = dilate(m, PiecewiseConstant.indicator(n)).values_upto(2 * m * n + 1)
            p = np.arange(1, 2 * m * n + 2)
            expect = np.where(p >= m * n, math.sqrt(m), 0.0)
            worst_ind = max(worst_ind, float(np.max(np.abs(got - expect))))
    reports.append(
        _report("dilation-of-indicators", {"max_m": 10, "max_n": 10},
                "indicator-lattice-v1", worst_ind, 0.0)
    )

    # dilation of the fractional-part model: sqrt(m) ({n/(lm)} - {n/m}/l),
    # checked against exact integer arithmetic.
    worst_frac = 0.0
    n = np.arange(1, 1001)
    for m in range(1, 11):
        for l in range(1, 11):
            got = dilate(m, PiecewiseConstant.fractional_parts(l)).values_upto(1000)
            expect = math.sqrt(m) * ((n % (l * m)) / (l * m) - (n % m) / m / l)
            worst_frac = max(worst_frac, float(np.max(np.abs(got - expect))))
    reports.append(
        _report("dilation-of-fractional-parts", {"max_m": 10, "max_l": 10, "pieces": 1000},
                "fractional-lattice-v1", worst_frac, 1e-12)
    )

    t_grid = tuple(float(t) for t in range(-10, 11))
    worst_mod = max(inner_function_check(mu, t_grid) for mu in (1.0, 0.5, 0.125, 0.9))
    reports.append(
        _report("inner-function-unit-modulus", {"scales": [1.0, 0.5, 0.125, 0.9]},
                "tgrid-21pt-v1", worst_mod, 1e-14)
    )
    worst_prod = max(
        inner_product_rule_check(a, b, SEMIGROUP_GRID.points)
        for a, b in ((0.5, 0.4), (0.25, 0.5), (1.0, 0.7))
    )
    reports.append(
        _report("inner-function-product-rule", {"pairs": [[0.5, 0.4], [0.25, 0.5], [1.0, 0.7]]},
                SEMIGROUP_GRID.grid_id, worst_prod, 1e-14)
    )
    return reports


def suite_moebius() -> list[VerificationReport]:
    from .criterion import BasisKind, GramStore, distance, moebius_residual

    table = sieve_moebius(10_000)
    ok = verify_recurrence(table, 10_000)
    reports = [
        _report("divisor-sum-recurrence", {"n_max": 10_000},
                "integers-v1", 0.0 if ok else 1.0, 0.0)
    ]

    worst_assembly = 0.0
    points = (complex(0.5, 10.0), complex(0.8, -4.0), complex(2.0, 1.0))
    for L, eps in ((50, 0.1), (100, 0.3)):
        row = moebius_partial_transform((L,), eps, points, table)[0].tolist()
        for s, direct in zip(points, row):
            re_t, im_t = [], []
            for l in range(1, L + 1):
                if table.mu[l] == 0:
                    continue
                term = int(table.mu[l]) * l ** (-eps) * reciprocal_kernel_transform(l, s)
                re_t.append(term.real)
                im_t.append(term.imag)
            by_terms = complex(math.fsum(re_t), math.fsum(im_t))
            worst_assembly = max(worst_assembly, abs(direct - by_terms))
    reports.append(
        _report("smoothed-partial-assembly", {"cutoffs": [50, 100]},
                "assembly-6pt-v1", worst_assembly, 1e-12)
    )

    store = GramStore()
    cutoffs, smoothings = (2, 10, 30), (0.0, 0.1, 0.5)
    residuals = moebius_residual(cutoffs, smoothings, table, store)
    worst_gap = 0.0
    for i, L in enumerate(cutoffs):
        d2 = distance(L, BasisKind.ALL, store=store).d2
        for res in residuals[i * len(smoothings):(i + 1) * len(smoothings)]:
            worst_gap = max(worst_gap, d2 - res)
    reports.append(
        _report("residual-dominates-distance", {"cutoffs": [2, 10, 30], "eps": [0.0, 0.1, 0.5]},
                "residual-grid-v1", worst_gap, 1e-10)
    )
    return reports


SUITES = {
    "mellin": suite_mellin,
    "semigroup": suite_semigroup,
    "xi": suite_xi,
    "unitary": suite_unitary,
    "moebius": suite_moebius,
}


def run_suite(name: str) -> list[VerificationReport]:
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()
