"""Numerical verification of the analytic identities behind the criterion.

Everything here evaluates both sides of an identity on a fixed grid and
reports the worst residual:

  * the Mellin transform of the combined fractional-part kernel, its
    pieces summed in closed form to infinity, against the zeta-based
    closed form: two evaluations of zeta(s)/s, each scaled by
    (lam - lam^s);
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
from typing import Iterable, Sequence

import numpy as np

from .arith import sieve_moebius, verify_recurrence
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


# Bernoulli B_{2k}/(2k)! for the Euler-Maclaurin correction terms, k = 1..4.
_EM_COEFF = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)
# |B_10/10!| for the remainder estimate.
_EM_NEXT = 5.0 / 66.0 / 3628800.0

# Dirichlet terms summed one by one before Euler-Maclaurin takes the tail.
_EXPLICIT_PIECES = 4096


def _power_sum(s: complex) -> complex:
    """sum_{k=1}^{_EXPLICIT_PIECES} k^(-s), compensated."""
    k = np.arange(1, _EXPLICIT_PIECES + 1, dtype=np.float64)
    terms = np.exp(-s * np.log(k))
    return complex(
        compensated_sum(terms.real), compensated_sum(terms.imag)
    )


def _cpow(base: float, expo: complex) -> complex:
    return cmath.exp(expo * math.log(base))


@lru_cache(maxsize=64)
def _zeta_em(s: complex) -> BoundedValue:
    """zeta(s) for Re s > 0, s != 1: the first 4096 Dirichlet terms, then the
    Euler-Maclaurin tail at N = 4097,

        N^(1-s)/(s-1) + N^(-s)/2 + sum_{k=1..4} B_2k/(2k)! s(s+1)...(s+2k-2) N^(-s-2k+1).

    The bound is the first omitted (B_10) term times |s + 9| / (sigma + 9),
    which bounds the remainder for sigma > -9 (Edwards, Riemann's Zeta
    Function, 6.4); a fixed factor such as 2 falls short at large |t|.
    Memoized: a Mellin check reads each point once per kernel scale.
    """
    n = _EXPLICIT_PIECES + 1.0
    value = _power_sum(s) + _cpow(n, 1.0 - s) / (s - 1.0) + _cpow(n, -s) / 2.0
    poch = s
    for k, coeff in enumerate(_EM_COEFF, start=1):
        value += coeff * poch * _cpow(n, -s - (2 * k - 1))
        poch *= (s + (2 * k - 1)) * (s + 2 * k)
    # poch is now s (s+1) ... (s+8), the factor of the first omitted term.
    omitted = _EM_NEXT * abs(poch) * n ** (-s.real - 9.0)
    return BoundedValue(value, abs(s + 9.0) / (s.real + 9.0) * omitted)


def mellin_exact(lam: float, s: complex) -> BoundedValue:
    """Mellin integral over (0, 1] of the combined kernel {lam/x} - lam {1/x},
    summed over all its pieces: (lam - lam^s) zeta(s) / s.

    On (lam/(k+1), lam/k] the integrand of {lam/x} is lam/x - k, and on
    (lam, 1] it is lam/x, so for Re s > 1 the pieces telescope to
    lam/(s-1) - lam^s sum_k k^(-s) / s. The lam/(s-1) terms of the two
    kernels cancel, and the bounded kernel's transform continues the rest
    to Re s > 0. zeta is `_zeta_em`, the Dirichlet series with an
    Euler-Maclaurin tail; the bound is its remainder bound times
    |lam - lam^s| / |s|.

    Requires 0 <= lam <= 1, Re s > 0 and s != 1.
    """
    if not (0.0 <= lam <= 1.0):
        raise DomainError(f"kernel scale must be in [0, 1], got {lam}")
    z = finite_complex(s)
    if z.real <= 0.0:
        raise DomainError(f"Mellin integral requires Re s > 0, got {z}")
    if z == 1.0:
        raise PoleError("Mellin integral is not defined at s = 1")
    if lam == 0.0:
        return BoundedValue(0j, 0.0)
    scale = (lam - _cpow(lam, z)) / z
    zeta_em = _zeta_em(z)
    return BoundedValue(scale * zeta_em.value, abs(scale) * zeta_em.error_bound)


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


def scale_inner_function(mu: float, s: complex) -> complex:
    """mu^(s - 1/2): unit modulus on the critical line, multiplicative in mu."""
    if not (0.0 < mu <= 1.0):
        raise DomainError(f"scale must be in (0, 1], got {mu}")
    return _cpow(mu, finite_complex(s) - 0.5)


def moebius_partial_transform(
    cutoffs: Sequence[int], eps: float, points: Sequence[complex]
) -> np.ndarray:
    """(zeta(s)/s) (sum_{l<=L} mu(l) l^(-s-eps) - sum_{l<=L} mu(l) l^(-1-eps))
    for every cutoff L in `cutoffs` and point s in `points`, as a complex128
    array of shape (len(cutoffs), len(points)).

    Algebraically equal to sum_{l<=L} mu(l) l^(-eps) times the kernel
    transforms `combined_kernel_transform(1/l, s)`; the two assembly orders
    are compared in tests.

    mu is sieved once, to the largest cutoff. The terms over square-free l
    up to it are evaluated once per point by complex128 numpy ufuncs; the
    s-free sum at s = 1 is taken once for all cutoffs.
    `summation.prefix_fsums` sums every cutoff's prefix in one vectorized
    pass: error-free extraction splits the terms into parts whose prefix
    sums numpy adds exactly, and math.fsum of those few exact floats rounds
    each prefix's exact sum correctly. Every cell is
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
    if not 0.0 < eps < math.inf:
        raise DomainError(f"smoothing must be positive and finite, got {eps}")
    mu = sieve_moebius(max(cutoffs))
    l = np.flatnonzero(mu)
    ends = np.searchsorted(l, cutoffs, side="right")
    mu_l = mu[l].astype(np.float64)
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


def worst(residuals: Iterable[float]) -> float:
    """The largest residual, 0.0 for none, and NaN if any is NaN: max() would
    drop a NaN, and with it the failure of the point it came from."""
    return float(np.max(np.fromiter(residuals, float), initial=0.0))


def verify_claim(lam: float, grid: Sequence[complex]) -> float:
    """Worst residual of (Mellin of combined kernel) + closed-form transform.

    Both sides are zeta(s)/s times the same power factor; they reach zeta
    by different routes: the Dirichlet series with an Euler-Maclaurin tail
    in `mellin_exact`, the accelerated eta series in
    `combined_kernel_transform`.
    """
    return worst(
        abs(mellin_exact(lam, s).value + combined_kernel_transform(lam, s)) for s in grid
    )


def semigroup_identity_check(
    lam: float, mu: float, grid: Sequence[complex]
) -> float:
    """Worst residual of the multiplication identity on the transforms:

        mu^(s-1/2) T(lam) = mu^(-1/2) (T(lam*mu) - lam T(mu)),

    where T is the combined kernel transform, which checks lam."""
    if not (0.0 < mu <= 1.0):
        raise DomainError(f"scale must be in (0, 1], got {mu}")
    inv_root = 1.0 / math.sqrt(mu)
    residuals = []
    for s in grid:
        lhs = scale_inner_function(mu, s) * combined_kernel_transform(lam, s)
        rhs = inv_root * (
            combined_kernel_transform(lam * mu, s)
            - lam * combined_kernel_transform(mu, s)
        )
        residuals.append(abs(lhs - rhs))
    return worst(residuals)


def inner_function_check(mu: float, t_grid: Sequence[float]) -> float:
    """Worst deviation of |mu^(it)| from 1 on the critical line (mu checked per point)."""
    return worst(abs(abs(scale_inner_function(mu, complex(0.5, t))) - 1.0) for t in t_grid)


def inner_product_rule_check(
    mu_a: float, mu_b: float, grid: Sequence[complex]
) -> float:
    """Worst residual of the product law mu_a^(s-1/2) mu_b^(s-1/2) =
    (mu_a mu_b)^(s-1/2)."""
    return worst(
        abs(scale_inner_function(mu_a, s) * scale_inner_function(mu_b, s)
            - scale_inner_function(mu_a * mu_b, s))
        for s in grid
    )


def xi_reflection_check(grid: Sequence[complex]) -> float:
    """Worst |xi(s) - xi(1-s)| / max(1, |xi(s)|) over the grid."""
    residuals = []
    for s in grid:
        a = xi(s)
        residuals.append(abs(a - xi(1.0 - s)) / max(1.0, abs(a)))
    return worst(residuals)


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
            # JSON has no NaN: a residual that is not finite prints as null.
            "max_residual": self.max_residual if math.isfinite(self.max_residual) else None,
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
    norm_gaps = []
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
        norm_gaps.append(abs(sequence - function))
    reports = [
        _report("sequence-map-preserves-norm", {"functions": 100, "seed": UNITARY_SEED},
                "random-step-v2", worst(norm_gaps), 1e-14)
    ]

    ind_gaps = []
    for m in range(1, 11):
        for n in range(1, 11):
            got = dilate(m, PiecewiseConstant.indicator(n)).values_upto(2 * m * n + 1)
            p = np.arange(1, 2 * m * n + 2)
            expect = np.where(p >= m * n, math.sqrt(m), 0.0)
            ind_gaps.append(float(np.max(np.abs(got - expect))))
    reports.append(
        _report("dilation-of-indicators", {"max_m": 10, "max_n": 10},
                "indicator-lattice-v1", worst(ind_gaps), 0.0)
    )

    # dilation of the fractional-part model: sqrt(m) ({n/(lm)} - {n/m}/l),
    # checked against exact integer arithmetic.
    frac_gaps = []
    n = np.arange(1, 1001)
    for m in range(1, 11):
        for l in range(1, 11):
            got = dilate(m, PiecewiseConstant.fractional_parts(l)).values_upto(1000)
            expect = math.sqrt(m) * ((n % (l * m)) / (l * m) - (n % m) / m / l)
            frac_gaps.append(float(np.max(np.abs(got - expect))))
    reports.append(
        _report("dilation-of-fractional-parts", {"max_m": 10, "max_l": 10, "pieces": 1000},
                "fractional-lattice-v1", worst(frac_gaps), 1e-12)
    )

    t_grid = tuple(float(t) for t in range(-10, 11))
    worst_mod = worst(inner_function_check(mu, t_grid) for mu in (1.0, 0.5, 0.125, 0.9))
    reports.append(
        _report("inner-function-unit-modulus", {"scales": [1.0, 0.5, 0.125, 0.9]},
                "tgrid-21pt-v1", worst_mod, 1e-14)
    )
    worst_prod = worst(
        inner_product_rule_check(a, b, SEMIGROUP_GRID.points)
        for a, b in ((0.5, 0.4), (0.25, 0.5), (1.0, 0.7))
    )
    reports.append(
        _report("inner-function-product-rule", {"pairs": [[0.5, 0.4], [0.25, 0.5], [1.0, 0.7]]},
                SEMIGROUP_GRID.grid_id, worst_prod, 1e-14)
    )
    return reports


def suite_moebius() -> list[VerificationReport]:
    from .criterion import GramStore, distance, moebius_residual

    mu = sieve_moebius(10_000)
    ok = verify_recurrence(mu)
    reports = [
        _report("divisor-sum-recurrence", {"n_max": 10_000},
                "integers-v1", 0.0 if ok else 1.0, 0.0)
    ]

    assembly_gaps = []
    points = (complex(0.5, 10.0), complex(0.8, -4.0), complex(2.0, 1.0))
    for L, eps in ((50, 0.1), (100, 0.3)):
        row = moebius_partial_transform((L,), eps, points)[0].tolist()
        for s, direct in zip(points, row):
            re_t, im_t = [], []
            for l in range(1, L + 1):
                if mu[l] == 0:
                    continue
                term = int(mu[l]) * l ** (-eps) * combined_kernel_transform(1.0 / l, s)
                re_t.append(term.real)
                im_t.append(term.imag)
            by_terms = complex(math.fsum(re_t), math.fsum(im_t))
            assembly_gaps.append(abs(direct - by_terms))
    reports.append(
        _report("smoothed-partial-assembly", {"cutoffs": [50, 100]},
                "assembly-6pt-v1", worst(assembly_gaps), 1e-12)
    )

    store = GramStore()
    cutoffs, smoothings = (2, 10, 30), (0.0, 0.1, 0.5)
    residuals = moebius_residual(cutoffs, smoothings, store)
    gaps = []
    for i, L in enumerate(cutoffs):
        d2 = distance(L, store=store).d2
        gaps += [d2 - res for res in residuals[i * len(smoothings):(i + 1) * len(smoothings)]]
    reports.append(
        _report("residual-dominates-distance", {"cutoffs": [2, 10, 30], "eps": [0.0, 0.1, 0.5]},
                "residual-grid-v1", worst(gaps), 1e-10)
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
