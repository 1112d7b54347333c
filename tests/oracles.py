"""Independent oracles the tests freeze expected values against.

Everything here deliberately uses different algorithms than the package:
a linear smallest-prime-factor sieve instead of numpy slices by the primes
up to sqrt(limit), alternating-series acceleration instead of
binomial-transform eta sums, brute-force truncated sums instead of closed
forms, coordinate descent instead of Cholesky solves, one math.fsum per
prefix instead of extracted prefix sums, a term-by-term loop instead of
one vectorized exp for the eta series, a fresh factorization per cutoff
instead of one prefix solve per sweep, LAPACK's symmetric eigensolver for
each step of the incremental condition estimate instead of closed-form
2 x 2 eigenpairs, psi sums by scipy's digamma instead of the package's
folded cotangent sums, every cotangent row reduced instead of half of them
negated into the rest, Fractions of factorials instead of lcm-scaled
integers for the eta coefficients, an LU solve instead of its Cholesky
factor, and per-piece antiderivatives instead of telescoped Euler-Maclaurin
remainders.
mpmath supplies arbitrary precision where a float oracle would be circular.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.special import digamma

from nblab.criterion import RIDGE_LADDER, SolveMethod
from nblab.errors import DomainError
from nblab.specfun import _eta_coefficients, _eta_term_count, finite_complex, zeta


def alternating_sum(term, n: int = 48) -> float:
    """Cohen/Rodriguez Villegas/Zagier acceleration of sum_k (-1)^k term(k).

    Error decays like (3 + sqrt 8)^-n, so n=48 is far below float epsilon.
    """
    d = (3.0 + 2.0 * math.sqrt(2.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b, c, s = -1.0, -d, 0.0
    for k in range(n):
        c = b - c
        s += c * term(k)
        b *= 2.0 * (k + n) * (k - n) / ((2 * k + 1) * (k + 1.0))
    return s / d


def ln2_alternating() -> float:
    """log 2 = sum_{k>=0} (-1)^k / (k+1), accelerated; avoids math.log."""
    return alternating_sum(lambda k: 1.0 / (k + 1.0))


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1 in ascending order, by trial division."""
    if n < 1:
        raise DomainError(f"divisors: n must be >= 1, got {n}")
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def sieve_moebius_linear(limit: int) -> np.ndarray:
    """mu[0..limit] (mu[0] = 0) by a linear sieve over smallest prime factors.

    The package sieves with numpy slices by the primes up to sqrt(limit);
    this Python loop visits each composite once, through its smallest prime.
    """
    if limit < 1:
        raise DomainError(f"sieve_moebius_linear: limit must be >= 1, got {limit}")
    mu = [0] * (limit + 1)
    spf = [0] * (limit + 1)
    mu[1] = 1
    primes: list[int] = []
    for i in range(2, limit + 1):
        if spf[i] == 0:
            spf[i] = i
            mu[i] = -1
            primes.append(i)
        si = spf[i]
        for p in primes:
            ip = i * p
            if p > si or ip > limit:
                break
            spf[ip] = p
            # p == spf[i] means p^2 | ip, killing the Moebius value.
            mu[ip] = 0 if p == si else -mu[i]
    return np.array(mu, dtype=np.int8)


def zeta_highprec(s, dps: int = 40) -> complex:
    with mp.workdps(dps):
        return complex(mp.zeta(mp.mpc(s)))


def zeta_deflated_highprec(s, dps: int = 40) -> complex:
    """(s - 1) zeta(s), with its limit 1 at s = 1."""
    with mp.workdps(dps):
        z = mp.mpc(s)
        return complex(1.0) if z == 1 else complex((z - 1) * mp.zeta(z))


def combined_kernel_highprec(lam: float, s, dps: int = 40) -> complex:
    """(lam^s - lam) zeta(s) / s, with its limit lam log lam at s = 1."""
    with mp.workdps(dps):
        z, l = mp.mpc(s), mp.mpf(lam)
        if z == 1:
            return complex(l * mp.log(l))
        return complex((mp.power(l, z) - l) * mp.zeta(z) / z)


def moebius_limit_highprec(eps: float, s, dps: int = 40) -> complex:
    """(zeta(s)/s) (1/zeta(s+eps) - 1/zeta(1+eps)), with 1/zeta = 0 at the pole."""
    with mp.workdps(dps):
        z, w = mp.mpc(s), mp.mpc(s) + mp.mpf(eps)
        recip = 0 if w == 1 else 1 / mp.zeta(w)
        return complex(mp.zeta(z) / z * (recip - 1 / mp.zeta(1 + mp.mpf(eps))))


def euler_gamma_highprec(dps: int = 40) -> float:
    with mp.workdps(dps):
        return float(mp.euler)


def digamma_highprec(x: float, dps: int = 40) -> float:
    with mp.workdps(dps):
        return float(mp.digamma(x))


def period_entry_highprec(p: int, c: int, dps: int = 40) -> float:
    """R(p, c) of `period_table_psi` as a direct psi sum at dps digits."""
    with mp.workdps(dps):
        terms = (mp.mpf(r * c % p) / p * mp.digamma(mp.mpf(r) / p) for r in range(1, p + 1))
        return float(-mp.fsum(terms) / p - mp.mpf(p - 1) / (2 * p) * mp.log(p))


def xi_highprec(s, dps: int = 40) -> complex:
    """s(1-s) pi^(-s/2) Gamma(s/2) zeta(s), computed at high precision."""
    with mp.workdps(dps):
        z = mp.mpc(s)
        if z == 0 or z == 1:
            return complex(-1.0)
        val = z * (1 - z) * mp.power(mp.pi, -z / 2) * mp.gamma(z / 2) * mp.zeta(z)
        return complex(val)


def residue_class_weight_bruteforce(period: int, r: int, terms: int = 2_000_000) -> float:
    """sum_{k>=0} 1/((k*period+r)(k*period+r+1)) by direct summation.

    The tail beyond `terms` is bounded by 1/(period*(terms*period+r)); callers
    should allow for it.
    """
    k = np.arange(terms, dtype=np.float64)
    n = k * period + r
    return float(np.sum(1.0 / (n * (n + 1.0))))


def truncated_gram(denoms, n_trunc: int, chunk: int = 1 << 21):
    """Gram matrix and constant-side vector from raw truncated sums.

    Builds {n/l} values directly with numpy and accumulates
    sum_n a_n b_n / (n(n+1)) in float64, never touching the package's closed
    forms. Truncation error per entry is below 1/(n_trunc+1).
    """
    denoms = list(denoms)
    k = len(denoms)
    G = np.zeros((k, k))
    g = np.zeros(k)
    for start in range(1, n_trunc + 1, chunk):
        n = np.arange(start, min(start + chunk, n_trunc + 1), dtype=np.int64)
        w = 1.0 / (n.astype(np.float64) * (n + 1.0))
        vals = [((n % l).astype(np.float64) / l) for l in denoms]
        for p in range(k):
            g[p] += float(np.sum(vals[p] * w))
            for q in range(p, k):
                G[p, q] += float(np.sum(vals[p] * vals[q] * w))
    for p in range(k):
        for q in range(p + 1, k):
            G[q, p] = G[p, q]
    return G, g


def coordinate_descent_d2(G, g, sweeps: int = 4000) -> float:
    """min_c 1 - 2 c.g + c.G.c by cyclic exact line searches.

    Slow but solver-free: each coordinate update is a scalar division, so the
    result cannot inherit a factorization bug from the package.
    """
    k = len(g)
    c = np.zeros(k)
    for _ in range(sweeps):
        for i in range(k):
            r = g[i] - (G[i] @ c) + G[i, i] * c[i]
            c[i] = r / G[i, i]
    return float(1.0 - 2.0 * (c @ g) + c @ G @ c)


def ice_cond_eigh(R) -> list[float]:
    """Incremental 2-norm condition estimates of R_k^T R_k for every leading
    block R_k of an upper factor R, each 2 x 2 step by `np.linalg.eigh`.

    Row 0 of X is a unit vector with |x^T R_k| = s_max, row 1 one with
    |x^T R_k| = s_min. Column k, v over gamma, extends each x to (c x, d),
    with (c, d) the top (for s_max) or bottom (for s_min) eigenvector of
    [[s^2 + alpha^2, alpha gamma], [alpha gamma, gamma^2]], alpha = x.v;
    both steps go through one batched eigh. Entry k - 1 is
    (s_max / s_min)^2 for R_k.
    """
    n = R.shape[0]
    X = np.zeros((2, n))
    X[:, 0] = 1.0
    s_max = s_min = abs(float(R[0, 0]))
    conds = [1.0 if s_min else math.inf]
    for k in range(1, n):
        gamma = float(R[k, k])
        a_max, a_min = (X[:, :k] @ R[:k, k]).tolist()
        w, V = np.linalg.eigh([
            [[s_max**2 + a_max**2, a_max * gamma], [a_max * gamma, gamma**2]],
            [[s_min**2 + a_min**2, a_min * gamma], [a_min * gamma, gamma**2]],
        ])
        # eigh sorts eigenvalues ascending: column 1 for s_max, 0 for s_min.
        X[0, :k] *= V[0, 0, 1]
        X[0, k] = V[0, 1, 1]
        X[1, :k] *= V[1, 0, 0]
        X[1, k] = V[1, 1, 0]
        s_max, s_min = math.sqrt(w[0, 1]), math.sqrt(max(w[1, 0], 0.0))
        conds.append((s_max / s_min) ** 2 if s_min else math.inf)
    return conds


def per_row_distance(denoms, G, g) -> dict:
    """d2, cond, ridge, pruned and degenerate for the whole system (denoms, G, g),
    solved on its own: prune zero and duplicate columns, factor the pruned
    block (climbing RIDGE_LADDER), then cho_solve for least squares and the
    log-determinant ratio of the basis bordered by the constant last; cond
    by `ice_cond_eigh` on the block's factor. d2 and ridge map each
    SolveMethod to its value; the factor and cond serve both.

    The package reads every cutoff of a sweep from one factor of the largest
    block; this factors each cutoff's block on its own.
    """
    keep, pruned, seen = [], [], set()
    for p, l in enumerate(denoms):
        fingerprint = G[p].tobytes() + g[p : p + 1].tobytes()
        if G[p, p] == 0.0 or fingerprint in seen:
            pruned.append(l)
        else:
            seen.add(fingerprint)
            keep.append(p)
    if not keep:
        return dict(d2=dict.fromkeys(SolveMethod, 1.0), cond=math.nan,
                    ridge=dict.fromkeys(SolveMethod, 0.0), pruned=tuple(pruned), degenerate=True)

    def factor(M):
        for ridge in RIDGE_LADDER:
            try:
                return cho_factor(M + ridge * np.eye(len(M)), check_finite=False), ridge
            except LinAlgError:
                continue
        raise LinAlgError(f"no ridge in {RIDGE_LADDER} factors the block")

    def logdet(cho):
        return 2.0 * float(np.sum(np.log(np.diag(cho[0]))))

    Gp, gp = G[np.ix_(keep, keep)], g[keep]
    cho, ridge = factor(Gp)
    cond = ice_cond_eigh(cho[0])[-1]
    k = len(keep)
    bordered = np.ones((k + 1, k + 1))
    bordered[:k, :k] = Gp + ridge * np.eye(k)
    bordered[:k, k] = bordered[k, :k] = gp
    cho_b, ridge_b = factor(bordered)
    d2 = {
        SolveMethod.LEAST_SQUARES: 1.0 - float(gp @ cho_solve(cho, gp, check_finite=False)),
        SolveMethod.GRAM_DET_RATIO: math.exp(logdet(cho_b) - logdet(cho)),
    }
    ridges = {SolveMethod.LEAST_SQUARES: ridge, SolveMethod.GRAM_DET_RATIO: max(ridge, ridge_b)}
    return dict(d2=d2, cond=cond, ridge=ridges, pruned=tuple(pruned), degenerate=False)


def period_table_psi(p: int) -> np.ndarray:
    """The regularized periodic sums R(p, c), c = 0..p-1, by the O(p^2) psi route:

        R(p, c) = -(1/p) sum_{r=1..p} ((r c mod p)/p) psi(r/p) - ((p - 1)/(2p)) log p,

    with scipy's digamma over every residue, where the package folds the
    coprime slots into Vasyunin cotangent sums over r < p/2. Every slot is
    finite, coprime or not.
    """
    r = np.arange(1, p + 1, dtype=np.int64)
    residues = np.outer(np.arange(p, dtype=np.int64), r) % p
    sums = (residues * digamma(r / p)).sum(axis=1)
    return -sums / (p * p) - ((p - 1) / (2.0 * p)) * math.log(p)


def period_table_cot_rows(p: int) -> np.ndarray:
    """Vasyunin's sums V(c/p), c = 0..p-1, from the folded cotangent sum
    reduced on every row c,

        V(c/p) = sum_{1 <= r < p/2} (2{rc/p} - 1) cot(pi r/p),

    with NaN where gcd(c, p) > 1. The package reduces only the coprime
    c <= p/2 and negates them into V((p - c)/p); both must agree bit for bit.
    """
    r, c = np.arange(1, (p + 1) // 2, dtype=np.int32), np.arange(p, dtype=np.int32)
    values = ((2 * (np.outer(c, r) % p) - p) / np.tan(np.pi * r / p)).sum(axis=1) / p
    values[np.gcd(c, p) > 1] = np.nan
    return values


def residue_class_entry(a: int | None, b: int) -> float:
    """<{n/a}, {n/b}> (or <1, {n/b}> when a is None) by lcm residue classes.

    The series is grouped by residue class r = 1..P modulo P = lcm(a, b)
    (P = b against the constant); class r carries the weight
    (psi((r+1)/P) - psi(r/P)) / P from scipy's digamma, and the P terms are
    added with math.fsum. Cost O(P), against the package's O(a + b) Abel
    summation; denominator 1 gives the zero sequence.
    """
    period = b if a is None else math.lcm(a, b)
    r = np.arange(1, period + 1, dtype=np.int64)
    psi = digamma(np.arange(1, period + 2, dtype=np.float64) / period)
    weight = (psi[1:] - psi[:-1]) / period
    left = 1.0 if a is None else (r % a) / a
    return math.fsum(left * ((r % b) / b) * weight)


def residue_class_gram_d2(L: int) -> float:
    """Exclude-one squared distance at cutoff L, rebuilt from scratch.

    Entries come from `residue_class_entry`, then the normal equations go
    through a general LU solve. Neither the package's special functions nor
    its Cholesky path is involved.
    """
    denoms = list(range(2, L + 1))
    k = len(denoms)
    G = np.empty((k, k))
    for p, a in enumerate(denoms):
        for q in range(p, k):
            G[p, q] = G[q, p] = residue_class_entry(a, denoms[q])
    g = np.array([residue_class_entry(None, a) for a in denoms])
    return float(1.0 - g @ np.linalg.solve(G, g))


def mellin_piecewise_prefix(lam: float, s, pieces_list, dps: int = 30) -> list[complex]:
    """`mellin_piecewise_highprec` at every count in `pieces_list`, in one pass.

    The pieces are added in ascending k, as for a single count, so each
    returned value is the running total after that many pieces. Each
    breakpoint takes one `mp.power`, x^(s-1), and x^s = x * x^(s-1); piece
    k+1's upper end lam/(k+1) is piece k's lower end, so its powers are reused.
    """
    with mp.workdps(dps):
        z = mp.mpc(s)
        lam_mp = mp.mpf(lam)
        lam_over, inv_z = lam_mp / (z - 1), 1 / z

        def powers(x):
            below = mp.power(x, z - 1)
            return x, below, x * below

        def antider(pw, k):
            return lam_over * pw[1] - k * inv_z * pw[2]

        total = mp.mpc(0)
        if lam_mp < 1:
            total += antider(powers(mp.mpf(1)), 0) - antider(powers(lam_mp), 0)
        wanted = set(pieces_list)
        found = {p: complex(total) for p in wanted if p < 1}
        below = None
        for k in range(1, max(pieces_list, default=0) + 1):
            hi = min(lam_mp / k, mp.mpf(1))
            lo = lam_mp / (k + 1)
            if hi > lo:
                above = below if below is not None and below[0] == hi else powers(hi)
                below = powers(lo)
                total += antider(above, k) - antider(below, k)
            if k in wanted:
                found[k] = complex(total)
        return [found[p] for p in pieces_list]


def mellin_piecewise_highprec(lam: float, s, pieces: int, dps: int = 30):
    """integral over (lam/(pieces+1), 1] of x^(s-1) frac(lam/x) dx.

    Evaluates each piece with its own antiderivative at working precision:
    on (lam/(k+1), lam/k), frac(lam/x) = lam/x - k, so the piece integral is
    lam (x^(s-1))/(s-1) - k x^s / s between the clipped endpoints. No
    telescoping, no Euler-Maclaurin: a genuinely different summation route.
    """
    return mellin_piecewise_prefix(lam, s, [pieces], dps)[0]


def mellin_limit_highprec(lam: float, s, dps: int = 30):
    """lam/(s-1) - lam^s zeta(s)/s, valid for Re s > 1: the analytic value of
    the full integral of x^(s-1) frac(lam/x)."""
    with mp.workdps(dps):
        z = mp.mpc(s)
        lam_mp = mp.mpf(lam)
        return complex(lam_mp / (z - 1) - mp.power(lam_mp, z) * mp.zeta(z) / z)


def moebius_partial_transform_loop(L: int, eps: float, s, mu) -> complex:
    """(zeta(s)/s) (sum_{l<=L} mu(l) l^(-s-eps) - sum_{l<=L} mu(l) l^(-1-eps))
    by a Python loop over l with libm's log and exp, one term at a time.

    The package evaluates the same terms with numpy ufuncs; the two must
    agree bit for bit. mu holds the Moebius values of 0..L at least.
    """
    if L < 1:
        raise DomainError(f"cutoff must be >= 1, got {L}")
    if eps <= 0.0:
        raise DomainError(f"smoothing must be positive, got {eps}")
    z = finite_complex(s)
    zs = zeta(z)
    re_a, im_a, re_b = [], [], []
    for l in range(1, L + 1):
        mu_l = int(mu[l])
        if mu_l == 0:
            continue
        log_l = math.log(l)
        term = mu_l * cmath.exp(-(z + eps) * log_l)
        re_a.append(term.real)
        im_a.append(term.imag)
        re_b.append(mu_l * math.exp(-(1.0 + eps) * log_l))
    dirichlet = complex(math.fsum(re_a), math.fsum(im_a))
    at_one = math.fsum(re_b)
    return zs / z * (dirichlet - at_one)


def eta_coefficients_fraction(n: int) -> tuple[float, ...]:
    """c_k = (d_n - d_k)/d_n with d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!),
    summed as Fractions of factorials and rounded once by Fraction's float.

    The package scales every d_k by lcm(n..2n) and divides integers instead;
    both round the same rational once, so they must agree bit for bit.
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


# The package builds each coefficient list once, inside its cached tables;
# the loop asks for them point by point, so it keeps its own copies.
_eta_coefficients_memo = lru_cache(maxsize=None)(_eta_coefficients)


def eta_loop(z: complex) -> complex:
    """Dirichlet eta(z) by the package's accelerated series, summed by a
    Python loop with libm's log and cmath's exp, one term at a time.

    The package evaluates the same terms with numpy ufuncs; the two must
    agree bit for bit. No domain guards.
    """
    coeffs = _eta_coefficients_memo(_eta_term_count(abs(z.imag)))
    re: list[float] = []
    im: list[float] = []
    sign = 1.0
    for k, c in enumerate(coeffs):
        term = sign * c * cmath.exp(-z * math.log(k + 1))
        re.append(term.real)
        im.append(term.imag)
        sign = -sign
    return complex(math.fsum(re), math.fsum(im))


def dilation_indicator_residual_loop(max_m: int = 10, max_n: int = 10) -> float:
    """Worst |dilate(m, 1_(0, 1/n]) - sqrt(m) 1_(0, 1/(mn)]| over pieces
    1..2mn+1, read one piece at a time through `value_at_piece`.

    The package's unitary suite compares whole `values_upto` arrays against
    numpy-built expectations; the two must report the same residual.
    """
    from nblab.seqspace import PiecewiseConstant, dilate

    worst = 0.0
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            got = dilate(m, PiecewiseConstant.indicator(n))
            want = math.sqrt(m)
            for p in range(1, 2 * m * n + 2):
                expect = want if p >= m * n else 0.0
                worst = max(worst, abs(got.value_at_piece(p) - expect))
    return worst


def dilation_fractional_residual_loop(
    max_m: int = 10, max_l: int = 10, pieces: int = 1000
) -> float:
    """Worst deviation of dilate(m, {n/l}) from sqrt(m) ({n/(lm)} - {n/m}/l),
    piece by piece through `value_at_piece`, with the expectation in Python
    integer arithmetic."""
    from nblab.seqspace import PiecewiseConstant, dilate

    worst = 0.0
    for m in range(1, max_m + 1):
        for l in range(1, max_l + 1):
            got = dilate(m, PiecewiseConstant.fractional_parts(l))
            root = math.sqrt(m)
            for n in range(1, pieces + 1):
                expect = root * ((n % (l * m)) / (l * m) - (n % m) / m / l)
                worst = max(worst, abs(got.value_at_piece(n) - expect))
    return worst


# Frozen reference values. Each is reproducible from the oracle functions
# above; they are pinned as literals so a regression in mpmath or numpy
# cannot silently move the goalposts.
LN2 = 0.6931471805599453            # ln2_alternating()
EULER_GAMMA = 0.5772156649015329    # euler_gamma_highprec()
ZETA2 = 1.6449340668482264          # pi**2 / 6
D2_L2 = 0.3068528194400547          # 1 - LN2, distance at cutoff 2
MOEBIUS_RESIDUAL_L2 = 0.480139614580041    # 1 - LN2 + LN2 / 4
ASYMPTOTIC_RATE = 0.04619141793224207      # 2 + EULER_GAMMA - log(4 pi)
# Exclude-one squared distance at cutoffs 10, 50, 100:
# residue_class_gram_d2(L).
D2_EXCL = {
    10: 0.023852553318882808,
    50: 0.011886970418532594,
    100: 0.010201919284469008,
}
# `scripts/hline_convergence.py --cutoffs 10,100,1000,10000,30000` at eps
# 0.1: the CSV row (L, sup gap, mean gap) for each cutoff. Refrozen when zeta
# became (s - 1) zeta(s) over s - 1: the mean gaps moved by at most 4.5e-16
# relative from the rows that the per-term loop (10..1000) and the one-point
# transform (10000, 30000) printed before the transform was batched.
HLINE_ROWS = {
    10: "10,0.4802959597059715,0.06284127134621938",
    100: "100,0.5082258484522062,0.051829527547980855",
    1000: "1000,0.19012838533697352,0.029714720014262702",
    10_000: "10000,0.24084485847792614,0.026463040922970093",
    30_000: "30000,0.11503763483775264,0.018610030163156332",
}
# Worst residuals of the unitary suite's dilation checks, as the per-piece
# loops above report them.
DILATION_INDICATOR_RESIDUAL = 0.0
DILATION_FRACTIONAL_RESIDUAL = 4.440892098500626e-16
# 30-digit Mellin piece sums, pinned because mpmath takes seconds over each
# one's 4000 or more pieces. MELLIN_PIECEWISE_4000[lam, s] is
# mellin_piecewise_highprec(lam, s, 4000); MELLIN_PREFIX_HALF_2[pieces] is
# mellin_piecewise_prefix(0.5, 2.0, (4096, 4097, 8000, 20000)) at that count.
MELLIN_PIECEWISE_4000 = {
    (1.0, 2.0): complex(0.17753295095999747, 0.0),
    (1.0, 2.5 + 3.0j): complex(0.011947580021437832, -0.0813497921948263),
    (1.0, 1.2 - 4.0j): complex(-0.04599527015469474, 0.08997456472965061),
    (0.5, 2.0): complex(0.29438323773999936, 0.0),
    (0.5, 2.5 + 3.0j): complex(0.10572916932980929, -0.13054544987735708),
    (0.5, 1.2 - 4.0j): complex(0.05499520045647933, 0.1802228602198204),
    (1 / 3, 2.0): complex(0.24194810566222194, 0.0),
    (1 / 3, 2.5 + 3.0j): complex(0.05031249174339608, -0.10183216306093566),
    (1 / 3, 1.2 - 4.0j): complex(-0.03146846335636012, 0.11131905249446294),
    (1.0, 1.8 + 2.0j): complex(0.050071491047033206, -0.1276142568063401),
    (0.5, 1.8 + 2.0j): complex(0.16541710045136657, -0.16499449149725726),
    (0.7, 1.8 + 2.0j): complex(0.1764897127099489, -0.1388578897133654),
}
MELLIN_PREFIX_HALF_2 = {
    4096: complex(0.2943832379208027, 0.0),
    4097: complex(0.29438323792261945, 0.0),
    8000: complex(0.29438324066769395, 0.0),
    20000: complex(0.2943832414877399, 0.0),
}
