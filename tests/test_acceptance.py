"""Acceptance gate: eleven numbered criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines for
passing criteria too). Tolerances are pinned here, not imported, so a drive-by
edit to library defaults cannot silently loosen the gate.
"""

import math
import time

import oracles
from nblab.analytic import (
    MELLIN_GRID,
    XI_REFLECTION_GRID,
    XI_SHIFT_GRID,
    run_suite,
    verify_claim,
    xi_reflection_check,
)
from nblab.arith import verify_recurrence
from nblab.criterion import (
    BasisKind,
    GramStore,
    SolveMethod,
    asymptotic_rate_constant,
    distance,
    distance_sweep,
    moebius_residual,
)
from nblab.seqspace import inner_product_closed
from nblab.specfun import xi, xi_inequality_check, zeta

EXCL = BasisKind.EXCLUDE_ONE
SQFREE = BasisKind.SQUARE_FREE


def _line(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{tag}] criterion {num:02d}: {name}{suffix}")
    return ok


def test_01_closed_form_distance():
    t0 = time.perf_counter()
    closed = distance(2, EXCL).d2
    n_trunc = 1_000_000
    truncated = distance(2, EXCL, store=GramStore(n_trunc)).d2
    elapsed = time.perf_counter() - t0
    err_closed = abs(closed - oracles.D2_L2)
    err_trunc = abs(truncated - oracles.D2_L2)
    ok = (
        err_closed < 1e-10
        and err_trunc < 1.0 / (n_trunc + 1) + 1e-10
        and elapsed < 1.0
    )
    _line(1, "closed-form distance at cutoff 2",
          ok, f"closed err {err_closed:.2e}, truncated err {err_trunc:.2e}, {elapsed:.2f}s")
    assert err_closed < 1e-10
    assert err_trunc < 1.0 / (n_trunc + 1) + 1e-10
    assert elapsed < 1.0


def test_02_gram_entry_golden_values():
    # Store keys: 0 is the constant sequence, 2 the sequence {n/2}.
    ln2 = oracles.ln2_alternating()
    unit = inner_product_closed(0, 0)
    g2 = inner_product_closed(0, 2)
    g22 = inner_product_closed(2, 2)
    ok = (
        unit == 1.0
        and abs(g2 - ln2 / 2.0) < 1e-12
        and abs(g22 - ln2 / 4.0) < 1e-12
    )
    _line(2, "Gram entry golden values", ok,
          f"errors {abs(g2 - ln2 / 2):.2e}, {abs(g22 - ln2 / 4):.2e}")
    assert unit == 1.0
    assert abs(g2 - ln2 / 2.0) < 1e-12
    assert abs(g22 - ln2 / 4.0) < 1e-12


def test_03_method_cross_validation(shared_store):
    t0 = time.perf_counter()
    worst = 0.0
    for L in range(1, 31):
        ls = distance(L, EXCL, SolveMethod.LEAST_SQUARES, shared_store).d2
        det = distance(L, EXCL, SolveMethod.GRAM_DET_RATIO, shared_store).d2
        worst = max(worst, abs(ls - det))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 30.0
    _line(3, "solver methods agree through cutoff 30", ok,
          f"worst gap {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed < 30.0


def test_04_brute_force_oracle(shared_store):
    denoms6 = EXCL.denominators(6)
    G6, g6 = oracles.truncated_gram(denoms6, 2_000_000)
    worst = 0.0
    for L in (3, 4, 5, 6):
        k = L - 1
        ref = oracles.coordinate_descent_d2(G6[:k, :k], g6[:k])
        got = distance(L, EXCL, store=shared_store).d2
        worst = max(worst, abs(got - ref))
    ok = worst < 1e-6
    _line(4, "coordinate-descent oracle matches engine", ok, f"worst {worst:.2e}")
    assert worst < 1e-6


def test_05_monotonicity_and_bounds(shared_store):
    cutoffs = list(range(2, 101))
    full = distance_sweep(cutoffs, EXCL, store=shared_store)
    sq = distance_sweep(cutoffs, SQFREE, store=shared_store)
    in_bounds = all(0.0 <= r.d2 <= 1.0 for r in full)
    monotone = all(b.d2 <= a.d2 + 1e-12 for a, b in zip(full, full[1:]))
    dominated = all(s.d2 >= f.d2 - 1e-12 for f, s in zip(full, sq))
    ok = in_bounds and monotone and dominated
    _line(5, "bounds, monotonicity, square-free dominance over 2..100", ok,
          f"bounds {in_bounds}, monotone {monotone}, dominance {dominated}")
    assert in_bounds
    assert monotone
    assert dominated


def test_06_moebius_residual_dominance(shared_store):
    worst_gap = math.inf
    cutoffs, smoothings = (2, 10, 50, 100), (0.0, 0.1, 0.5)
    residuals = iter(moebius_residual(cutoffs, smoothings, shared_store))
    for L in cutoffs:
        d2 = distance(L, EXCL, store=shared_store).d2
        for eps in smoothings:
            worst_gap = min(worst_gap, next(residuals) - d2)
    (golden,) = moebius_residual([2], [0.0], shared_store)
    golden_err = abs(golden - oracles.MOEBIUS_RESIDUAL_L2)
    ok = worst_gap >= -1e-10 and golden_err < 1e-10
    _line(6, "Moebius residual dominates the distance", ok,
          f"min slack {worst_gap:.2e}, golden err {golden_err:.2e}")
    assert worst_gap >= -1e-10
    assert golden_err < 1e-10


def test_07_moebius_recurrence(mu):
    ok = verify_recurrence(mu)
    _line(7, "divisor-sum recurrence exact through 10000", ok)
    assert ok


def test_08_transform_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for lam in (0.5, 1.0 / 3.0, 0.2, 0.7):
        worst = max(worst, verify_claim(lam, MELLIN_GRID.points))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _line(8, "kernel transform identity on the 16-point grid", ok,
          f"max residual {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_09_special_functions():
    zeta2_err = abs(zeta(2.0) - oracles.zeta_highprec(2.0))
    xi0_err = abs(xi(0.0) + 1.0)
    reflection = xi_reflection_check(XI_REFLECTION_GRID.points)
    violations = sum(
        xi_inequality_check(XI_SHIFT_GRID.points, eps)[0]
        for eps in (0.1, 0.25)
    )
    ok = (
        zeta2_err < 1e-12
        and xi0_err < 1e-9
        and reflection <= 1e-8
        and violations == 0
    )
    _line(9, "special-function spot checks and inequalities", ok,
          f"zeta2 {zeta2_err:.1e}, xi0 {xi0_err:.1e}, "
          f"reflection {reflection:.1e}, violations {violations}")
    assert zeta2_err < 1e-12
    assert xi0_err < 1e-9
    assert reflection <= 1e-8
    assert violations == 0


def test_10_unitary_semigroup_structure():
    budgets = {
        "sequence-map-preserves-norm": 1e-14,
        "dilation-of-indicators": 0.0,
        "dilation-of-fractional-parts": 1e-12,
        "inner-function-unit-modulus": 1e-10,
        "inner-function-product-rule": 1e-10,
    }
    reports = {r.check: r for r in run_suite("unitary")}
    sem = max(r.max_residual for r in run_suite("semigroup"))
    ok = all(
        reports[name].max_residual <= budget for name, budget in budgets.items()
    ) and sem <= 1e-10
    detail = ", ".join(
        f"{name} {reports[name].max_residual:.1e}" for name in budgets
    )
    _line(10, "unitary map and dilation semigroup identities", ok,
          detail + f", multiplication {sem:.1e}")
    for name, budget in budgets.items():
        assert reports[name].max_residual <= budget, name
    assert sem <= 1e-10


def test_11_convergence_direction(shared_store):
    cutoffs = [10, 50, 100, 300]
    rows = distance_sweep(cutoffs, EXCL, (SolveMethod.LEAST_SQUARES,), shared_store)
    dets = distance_sweep(cutoffs, EXCL, (SolveMethod.GRAM_DET_RATIO,), shared_store)
    d2 = [r.d2 for r in rows]
    a_est = [r.a_est for r in rows]
    limit = asymptotic_rate_constant()
    d2_decreasing = all(b < a for a, b in zip(d2, d2[1:]))
    oracle_err = max(abs(r.d2 - oracles.D2_EXCL[r.L]) for r in rows[:3])
    ls_det_gap = max(abs(r.d2 - q.d2) for r, q in zip(rows, dets))
    gaps = [a - limit for a in a_est]
    approaching = abs(gaps[-1]) < abs(gaps[0])
    table = "; ".join(
        f"L={L}: d2={v:.8f}, rate-C={gap:+.2e}" for L, v, gap in zip(cutoffs, d2, gaps)
    )
    ok = d2_decreasing and oracle_err < 1e-9 and ls_det_gap < 1e-8 and approaching
    _line(11, "convergence direction of the distance sweep", ok,
          f"{table}; C={limit:.7f}; oracle err {oracle_err:.1e}, "
          f"worst LS-det gap {ls_det_gap:.1e}")
    assert d2_decreasing, f"squared distance not strictly decreasing: {d2}"
    assert oracle_err < 1e-9, f"rows leave the residue-class oracle by {oracle_err:.2e}"
    assert ls_det_gap < 1e-8, f"least squares and det ratio differ by {ls_det_gap:.2e}"
    # Only the limit is conjectured: check the rate's direction, not monotonicity.
    assert approaching, (
        "rate d2 * log L is no closer to the conjectured limit at L=300 than at "
        f"L=10: gaps {', '.join(f'{g:+.3e}' for g in gaps)} (C = {limit:.8f})"
    )
