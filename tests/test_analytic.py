import cmath
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import child_env
from nblab import analytic, criterion, seqspace, specfun
from nblab.arith import sieve_moebius
from nblab.analytic import (
    CRITICAL_LINE_GRID,
    MELLIN_GRID,
    SEMIGROUP_GRID,
    XI_REFLECTION_GRID,
    XI_SHIFT_GRID,
    combined_kernel_transform,
    inner_function_check,
    inner_product_rule_check,
    mellin_exact,
    moebius_limit_transform,
    moebius_partial_transform,
    run_suite,
    scale_inner_function,
    semigroup_identity_check,
    verify_claim,
    xi_reflection_check,
)
from nblab.errors import DomainError, PoleError
from nblab.specfun import xi_inequality_check, zeta


class TestGridsAreFrozen:
    """The versioned grids are part of the reproducibility contract."""

    def test_ids_and_sizes(self):
        assert MELLIN_GRID.grid_id == "mellin-16pt-v1"
        assert len(MELLIN_GRID.points) == 16
        assert SEMIGROUP_GRID.grid_id == "semigroup-20pt-v1"
        assert len(SEMIGROUP_GRID.points) == 20
        assert XI_REFLECTION_GRID.grid_id == "xi-reflection-50pt-v1"
        assert len(XI_REFLECTION_GRID.points) == 50
        assert XI_SHIFT_GRID.grid_id == "xi-shift-42pt-v1"
        assert len(XI_SHIFT_GRID.points) == 42
        assert CRITICAL_LINE_GRID.grid_id == "critline-101pt-v1"
        assert len(CRITICAL_LINE_GRID.points) == 101

    def test_mellin_grid_in_claim_domain(self):
        for s in MELLIN_GRID.points:
            assert s.real > 0.0 and s != 1.0

    def test_semigroup_grid_touches_the_pole_point(self):
        # the semigroup identity is checked through s = 1 on purpose: the
        # deflated evaluation must be smooth there
        assert any(s == 1.0 for s in SEMIGROUP_GRID.points)

    def test_critical_line_grid(self):
        assert all(s.real == 0.5 for s in CRITICAL_LINE_GRID.points)
        ts = [s.imag for s in CRITICAL_LINE_GRID.points]
        assert ts[0] == -20.0 and ts[-1] == 20.0


class TestMellinExact:
    """`mellin_exact` is (lam - lam^s) zeta(s) / s with zeta from the
    Dirichlet series and an Euler-Maclaurin tail at N = 4097."""

    @pytest.mark.parametrize("lam", [1.0, 0.7, 0.5, 1 / 3, 0.05])
    def test_matches_highprec_within_bound(self, lam):
        # Rounding allowance on top of the remainder bound: each term
        # k^(-s) = exp(-s log k) carries a relative error of about
        # eps |s| log k, and partial sums of size N^(1-sigma) cancel down to
        # zeta(s). So the allowance is
        # 8 eps (1 + |s| log N) (|expect| + |lam - lam^s| N^(1-sigma) / |s|).
        n = 4097
        for sigma in (0.1, 0.6, 1.1, 2.0, 3.0):
            for t in (0.0, 2.5, -2.5, 10.0, -10.0, 300.0, -300.0):
                s = complex(sigma, t)
                got = mellin_exact(lam, s)
                expect = -oracles.combined_kernel_highprec(lam, s)
                scale = abs(lam - lam ** s) / abs(s)
                allowance = (8 * 2.0 ** -52 * (1 + abs(s) * math.log(n))
                             * (abs(expect) + scale * n ** (1 - sigma)))
                assert abs(got.value - expect) <= got.error_bound + allowance, s

    def test_bound_holds_at_large_t(self):
        # Past |t| of about 10^4 the Euler-Maclaurin remainder outgrows twice
        # its first omitted term; the factor |s + 9| / (sigma + 9) covers it.
        for s in (0.6 + 20000j, 0.6 + 30000j, 0.3 + 25000j, 2 + 20000j, 3 + 25000j):
            got = mellin_exact(0.5, s)
            err = abs(got.value + oracles.combined_kernel_highprec(0.5, s, dps=50))
            assert err <= got.error_bound, s
            if s.imag == 20000:
                twice_first_omitted = 2 * got.error_bound * (s.real + 9) / abs(s + 9)
                assert err > twice_first_omitted, s

    def test_zero_scale_kernel(self):
        combined = mellin_exact(0.0, 2.0)
        assert (combined.value, combined.error_bound) == (0.0, 0.0)

    def test_rejects_left_half_plane_and_pole(self):
        with pytest.raises(DomainError):
            mellin_exact(0.5, -0.5)
        with pytest.raises(PoleError):
            mellin_exact(0.5, 1.0)
        for lam in (-0.1, 1.5):
            with pytest.raises(DomainError):
                mellin_exact(lam, 2.0)


class TestCombinedTransform:
    def test_closed_form_for_sigma_gt_one(self):
        # lam (lam^(s-1) - 1) zeta(s) / s, checked against mpmath parts
        for lam in (0.5, 0.25, 0.9):
            for s in (2.0, 1.5 + 3.0j):
                z = complex(s)
                expect = (
                    lam
                    * (lam ** (z - 1) - 1.0)
                    * oracles.zeta_highprec(z)
                    / z
                )
                assert abs(combined_kernel_transform(lam, z) - expect) < 1e-12

    def test_value_at_one_is_lam_log_lam(self):
        for lam in (0.5, 1 / 3, 0.9, 0.1):
            got = combined_kernel_transform(lam, 1.0)
            assert abs(got - lam * math.log(lam)) < 1e-12

    def test_subnormal_offset_from_one(self):
        # (z - 1) * log(lam) rounds as a subnormal; the ratio must not
        for lam in (0.5, 0.1):
            got = combined_kernel_transform(lam, 1.0 + 1e-320j)
            assert abs(got.real - lam * math.log(lam)) < 1e-15

    def test_smooth_through_the_pole(self):
        lam = 0.4
        center = combined_kernel_transform(lam, 1.0)
        for h in (1e-7, 1e-5, 1e-4):
            for direction in (1.0, -1.0, 1.0j):
                nearby = combined_kernel_transform(lam, 1.0 + h * direction)
                assert abs(nearby - center) < 1e-3
        # and points 2e-3 from the pole are finite too
        for s in (1.0 + 2e-3, 1.0 - 2e-3 + 0.5e-3j):
            direct = combined_kernel_transform(0.4, s)
            assert cmath.isfinite(direct)

    @pytest.mark.parametrize("lam", [0.5, 0.25, 0.1])
    def test_near_pole_against_highprec(self, lam):
        # just either side of 1e-3 from the pole, where (s-1)*zeta(s) cancels
        for s in (0.998, 0.9989, 1.0011, 1.002):
            expect = oracles.combined_kernel_highprec(lam, s)
            assert abs(combined_kernel_transform(lam, s) - expect) < 2e-15 * abs(expect)

    def test_unit_scale_vanishes(self):
        assert combined_kernel_transform(1.0, 2.5 + 2.0j) == 0.0

    def test_claim_residual_small_on_grid(self):
        for lam in (0.5, 1 / 3, 0.2, 0.7):
            assert verify_claim(lam, MELLIN_GRID.points) <= 1e-8

    def test_claim_rejects_bad_grid(self):
        for s in (0.0 + 1.0j, -0.5 + 2.0j):
            with pytest.raises(DomainError):
                verify_claim(0.5, [2.0, s])
        with pytest.raises(PoleError):
            verify_claim(0.5, [2.0, 1.0])


class TestSemigroupStructure:
    def test_identity_on_grid(self):
        for lam, mu in ((0.5, 1 / 3), (1.0, 0.5), (0.25, 0.4)):
            assert semigroup_identity_check(lam, mu, SEMIGROUP_GRID.points) < 1e-10

    def test_scale_inner_function_modulus(self):
        for mu in (1.0, 0.5, 0.125):
            for t in (0.0, 1.0, 25.0):
                val = scale_inner_function(mu, 0.5 + t * 1j)
                assert abs(abs(val) - 1.0) < 1e-14

    def test_scale_product_rule(self):
        for mu_a, mu_b in ((0.5, 0.4), (0.25, 0.5)):
            assert inner_product_rule_check(mu_a, mu_b, SEMIGROUP_GRID.points) < 1e-14
        assert inner_function_check(0.5, [0.0, 2.0, 8.0]) < 1e-14

    def test_rejects_scale_outside_unit_interval(self):
        with pytest.raises(DomainError):
            scale_inner_function(1.5, 0.5)
        with pytest.raises(DomainError):
            scale_inner_function(0.0, 0.5)


class TestMoebiusTransforms:
    def test_partial_matches_direct_sum(self):
        mu = sieve_moebius(30)
        s = 0.8 + 3.0j
        eps = 0.2
        zs = oracles.zeta_highprec(s)
        direct = (zs / s) * sum(
            int(mu[l]) * (l ** (-(s + eps)) - l ** (-(1.0 + eps)))
            for l in range(1, 31)
        )
        got = moebius_partial_transform((30,), eps, (s,))
        assert got.shape == (1, 1)
        assert abs(got[0, 0] - direct) < 1e-11

    def test_limit_value(self):
        s = 0.9 + 4.0j
        eps = 0.3
        z = oracles.zeta_highprec(s)
        expect = (z / s) * (
            1.0 / oracles.zeta_highprec(s + eps) - 1.0 / oracles.zeta_highprec(1.0 + eps)
        )
        assert abs(moebius_limit_transform(eps, s) - expect) < 1e-10

    @pytest.mark.parametrize("eps, s", [(0.1, 0.9), (0.5, 0.5)])
    def test_limit_where_shift_hits_the_pole(self, eps, s):
        # 1/zeta(s + eps) -> 0 as s + eps -> 1; the limit stays finite
        expect = oracles.moebius_limit_highprec(eps, s)
        assert abs(moebius_limit_transform(eps, s) - expect) < 1e-12 * abs(expect)

    @pytest.mark.parametrize("eps", [1e-9, 1e-12])
    def test_limit_for_small_smoothing(self, eps):
        # 1 + eps sits inside zeta's 1e-8 pole guard; 1/zeta(1 + eps) is
        # eps / ((s - 1) zeta(s)) there. Measured: 1.2e-15 relative at worst.
        points = CRITICAL_LINE_GRID.points[::10] + (2.0, 0.9 + 2.0j, 0.7)
        for s in points:
            expect = oracles.moebius_limit_highprec(eps, s)
            assert abs(moebius_limit_transform(eps, s) - expect) <= 1e-14 * abs(expect), s

    def test_limit_next_to_the_pole(self):
        # s + eps = 1 up to rounding: zeta(s) sits 1e-6 from its pole and
        # 1/zeta(s + eps) is about 1e-17, so both need full relative accuracy
        # there and w - 1 must be rounded once.
        eps, s = 1e-6, 1.0 - 1e-6
        expect = oracles.moebius_limit_highprec(eps, s)
        assert abs(moebius_limit_transform(eps, s) - expect) <= 1e-14 * abs(expect)

    def test_partial_converges_to_limit(self):
        s = 0.9 + 2.0j
        eps = 0.4
        lim = moebius_limit_transform(eps, s)
        gaps = abs(moebius_partial_transform((10, 100, 4000), eps, (s,))[:, 0] - lim)
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 2e-2

    @pytest.mark.parametrize("eps", [0.1, 0.3])
    def test_partial_bit_identical_to_loop(self, eps, mu):
        extra = (0.5 + 10.0j, 0.8 - 4.0j, 2.0 + 1.0j)
        cutoffs = (1, 2, 10, 100, 1000, 4000)
        points = CRITICAL_LINE_GRID.points + extra
        got = moebius_partial_transform(cutoffs, eps, points)
        assert got.shape == (6, 104) and got.dtype == np.complex128
        for i, L in enumerate(cutoffs):
            for j, s in enumerate(points):
                assert got[i, j] == oracles.moebius_partial_transform_loop(L, eps, s, mu), (L, s)
        # l = 9170 is the first square-free l whose float64 numpy log differs
        # from libm's in the last bit
        got = moebius_partial_transform((10_000,), eps, extra)
        for j, s in enumerate(extra):
            assert got[0, j] == oracles.moebius_partial_transform_loop(10_000, eps, s, mu), s

    def test_partial_cell_independent_of_batch(self):
        # a cell's bits depend only on its own (L, s), not on the cutoffs
        # and points that share the call, their order or repeats
        eps = 0.2
        cutoffs = (7, 3000, 1, 250, 3000, 30)
        points = (0.5 + 14.0j, 2.0 - 1.0j, 0.5 + 14.0j, 0.7 + 0.0j)
        whole = moebius_partial_transform(cutoffs, eps, points)
        for i, L in enumerate(cutoffs):
            for j, s in enumerate(points):
                assert whole[i, j] == moebius_partial_transform((L,), eps, (s,))[0, 0]
        assert np.array_equal(whole[1], whole[4])
        assert np.array_equal(whole[:, 0], whole[:, 2])
        swapped = moebius_partial_transform(cutoffs[::-1], eps, points[::-1])
        assert np.array_equal(swapped, whole[::-1, ::-1])

    def test_guards(self):
        with pytest.raises(DomainError):
            moebius_partial_transform((10,), -0.1, (2.0,))
        with pytest.raises(DomainError):
            moebius_partial_transform((10,), 0.0, (2.0,))
        for eps in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="smoothing"):
                moebius_partial_transform((10,), eps, (2.0,))
            with pytest.raises(DomainError, match="smoothing"):
                moebius_limit_transform(eps, 2.0)
        with pytest.raises(DomainError):
            moebius_partial_transform((), 0.1, (2.0,))
        with pytest.raises(DomainError):
            moebius_partial_transform((5, 0), 0.1, (2.0,))
        with pytest.raises(DomainError):
            moebius_limit_transform(0.2, 0.3 + 1.0j)  # left of the strip
        with pytest.raises(DomainError):
            moebius_limit_transform(0.0, 2.0)


class TestXiChecks:
    def test_reflection_on_grid(self):
        assert xi_reflection_check(XI_REFLECTION_GRID.points) <= 1e-8

    def test_shift_report(self):
        for eps in (0.1, 0.25):
            assert xi_inequality_check(list(XI_SHIFT_GRID.points), eps) == (0, 0.0)


class TestSuites:
    @pytest.mark.parametrize("name", ["mellin", "semigroup", "xi", "unitary", "moebius"])
    def test_suite_passes(self, name):
        reports = run_suite(name)
        assert reports, name
        for r in reports:
            assert r.passed, (name, r.check, r.max_residual, r.budget)
            assert r.max_residual <= r.budget
            d = r.to_json_dict()
            assert d["pass"] is True
            assert d["check"] == r.check

    def test_dilation_residuals_match_per_piece_oracle(self):
        reports = {r.check: r.max_residual for r in run_suite("unitary")}
        got = (reports["dilation-of-indicators"], reports["dilation-of-fractional-parts"])
        want = (oracles.dilation_indicator_residual_loop(),
                oracles.dilation_fractional_residual_loop())
        assert got == want
        assert want == (oracles.DILATION_INDICATOR_RESIDUAL,
                        oracles.DILATION_FRACTIONAL_RESIDUAL)

    def test_assembly_residual_matches_scalar_loop(self, mu):
        # the batched direct side reports the same bits as one scalar loop
        # call per (cutoff, point)
        worst = 0.0
        for s in (0.5 + 10.0j, 0.8 - 4.0j, 2.0 + 1.0j):
            for L, eps in ((50, 0.1), (100, 0.3)):
                direct = oracles.moebius_partial_transform_loop(L, eps, s, mu)
                terms = [int(mu[l]) * l ** (-eps) * combined_kernel_transform(1.0 / l, s)
                         for l in range(1, L + 1) if mu[l]]
                by_terms = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
                worst = max(worst, abs(direct - by_terms))
        reports = {r.check: r.max_residual for r in run_suite("moebius")}
        assert reports["smoothed-partial-assembly"] == worst

    def test_norm_check_catches_a_shifted_sequence(self, monkeypatch):
        # The sequence side of the norm check reads values_upto, the function
        # side value_at_piece: values_upto one piece late must fail it. The
        # uncached term builder keeps the shifted terms out of the shared cache.
        values_upto = seqspace.PiecewiseConstant.values_upto
        monkeypatch.setattr(seqspace, "_terms", seqspace._terms.__wrapped__)
        monkeypatch.setattr(seqspace.PiecewiseConstant, "values_upto",
                            lambda f, n: values_upto(f, n + 1)[1:])
        reports = {r.check: r for r in run_suite("unitary")}
        assert not reports["sequence-map-preserves-norm"].passed

    def test_dilation_checks_catch_a_dilate_one_piece_late(self, monkeypatch):
        # A dilate whose piece n reads piece n // m + 1 of its input, one
        # piece late, built piece by piece: both dilation checks must fail
        # and the other three unitary checks, which never dilate, pass.
        def late(m, f):
            root, h = math.sqrt(m), m * (len(f.head) + 1)

            def piece(n):
                return 0.0 if n < m else root * f.value_at_piece(n // m + 1)

            return seqspace.PiecewiseConstant(
                head=[piece(n) for n in range(1, h)],
                tail=[piece(n) for n in range(h, h + m * len(f.tail))])

        monkeypatch.setattr(analytic, "dilate", late)
        reports = run_suite("unitary")
        assert len(reports) == 5
        assert [r.check for r in reports if not r.passed] == [
            "dilation-of-indicators", "dilation-of-fractional-parts"]

    def test_recurrence_check_catches_a_flipped_value(self, monkeypatch):
        # mu(6) with the wrong sign breaks the divisor sum at 6 and only
        # there; both sides of the assembly check read the same sieve.
        def flipped(limit):
            mu = sieve_moebius(limit)
            mu[6] *= -1
            return mu

        monkeypatch.setattr(analytic, "sieve_moebius", flipped)
        failed = [r.check for r in run_suite("moebius") if not r.passed]
        assert failed == ["divisor-sum-recurrence"]

    def test_assembly_check_catches_a_dropped_s_free_sum(self, monkeypatch):
        # The partial transform without its s-free sum at s = 1 is no longer
        # the sum of the per-term kernel transforms.
        partial = analytic.moebius_partial_transform

        def without_s_free_sum(cutoffs, eps, points):
            mu = sieve_moebius(max(cutoffs))
            at_one = [sum(int(mu[l]) * l ** (-1.0 - eps) for l in range(1, L + 1))
                      for L in cutoffs]
            scale = [zeta(s) / s for s in points]
            return partial(cutoffs, eps, points) + np.outer(at_one, scale)

        monkeypatch.setattr(analytic, "moebius_partial_transform", without_s_free_sum)
        failed = [r.check for r in run_suite("moebius") if not r.passed]
        assert failed == ["smoothed-partial-assembly"]

    def test_dominance_check_catches_a_doubled_cross_term(self, monkeypatch):
        # Doubling <gamma, gamma_l> in the residual's square-free system
        # doubles its cross term: at L = 2 the residual drops to about -0.21,
        # below d2 = 0.307. The distances read the exclude-one system.
        gram_system = criterion.gram_system

        def doubled_cross(L, basis, store=None):
            denoms, B = gram_system(L, basis, store)
            if basis is criterion.BasisKind.SQUARE_FREE:
                B[0, 1:] *= 2.0
            return denoms, B

        monkeypatch.setattr(criterion, "gram_system", doubled_cross)
        reports = {r.check: r for r in run_suite("moebius")}
        assert [c for c, r in reports.items() if not r.passed] == ["residual-dominates-distance"]
        assert reports["residual-dominates-distance"].max_residual > 0.5

    # Each ingredient of the Mellin check, broken alone, fails all four rows.
    # The memoized zeta is bypassed, so no broken value stays in its cache.

    def test_mellin_check_catches_a_dropped_b2_correction(self, monkeypatch):
        monkeypatch.setattr(analytic, "_zeta_em", analytic._zeta_em.__wrapped__)
        monkeypatch.setattr(analytic, "_EM_COEFF", (0.0, *analytic._EM_COEFF[1:]))
        assert [r.passed for r in run_suite("mellin")] == [False] * 4

    def test_mellin_check_catches_one_dirichlet_term_fewer(self, monkeypatch):
        power_sum = analytic._power_sum
        monkeypatch.setattr(analytic, "_zeta_em", analytic._zeta_em.__wrapped__)
        monkeypatch.setattr(analytic, "_power_sum",
                            lambda s: power_sum(s) - analytic._cpow(4096.0, -s))
        assert [r.passed for r in run_suite("mellin")] == [False] * 4

    def test_mellin_check_catches_a_scaled_eta_zeta(self, monkeypatch):
        zeta_deflated = analytic.zeta_deflated
        monkeypatch.setattr(analytic, "zeta_deflated", lambda s: (1 + 1e-6) * zeta_deflated(s))
        assert [r.passed for r in run_suite("mellin")] == [False] * 4

    # Each ingredient of xi can fail the xi suite.

    def test_xi_check_catches_a_tilted_log_gamma(self, monkeypatch):
        log_gamma = specfun.log_gamma
        monkeypatch.setattr(specfun, "log_gamma", lambda s: log_gamma(s) + 1e-6 * s)
        reports = run_suite("xi")
        assert [(r.check, r.passed) for r in reports] == [
            ("reflection-symmetry", False), ("shift-inequality", True), ("shift-inequality", True)]

    def test_xi_check_catches_a_tilted_zeta(self, monkeypatch):
        zeta_deflated = specfun.zeta_deflated
        monkeypatch.setattr(specfun, "zeta_deflated",
                            lambda s: zeta_deflated(s) * cmath.exp(-3.0 * (s - 0.5)))
        reports = run_suite("xi")
        shifts = [r for r in reports if r.check == "shift-inequality"]
        assert [(r.passed, r.parameters["violations"]) for r in shifts] == [(False, 42)] * 2

    # A NaN residual at one point must fail its check, not vanish into max().

    def test_nan_transform_fails_every_mellin_check(self, monkeypatch):
        transform = analytic.combined_kernel_transform
        poisoned = MELLIN_GRID.points[5]
        monkeypatch.setattr(analytic, "combined_kernel_transform",
                            lambda lam, s: math.nan if s == poisoned else transform(lam, s))
        reports = run_suite("mellin")
        assert [r.passed for r in reports] == [False] * 4
        assert all(math.isnan(r.max_residual) for r in reports)

    def test_nan_xi_fails_reflection(self, monkeypatch):
        xi = analytic.xi
        monkeypatch.setattr(analytic, "xi", lambda s: math.nan if s == 0.3 + 6.6j else xi(s))
        reports = run_suite("xi")
        assert [r.check for r in reports if not r.passed] == ["reflection-symmetry"]
        assert math.isnan(reports[0].max_residual)

    def test_nan_xi_fails_shift_inequality(self, monkeypatch):
        xi = specfun.xi
        monkeypatch.setattr(specfun, "xi", lambda s: math.nan if s == 2.0 + 8.0j else xi(s))
        assert xi_inequality_check([0.5 + 1.0j, 2.0 + 8.0j], 0.1)[0] == 1
        reports = run_suite("xi")
        shifts = [r for r in reports if r.check == "shift-inequality"]
        assert [r.check for r in reports if not r.passed] == ["shift-inequality"] * 2
        assert all(r.parameters["violations"] == 1 and math.isnan(r.max_residual) for r in shifts)

    def test_nan_modulus_fails_unit_modulus(self, monkeypatch):
        inner = analytic.scale_inner_function
        poisoned = (0.5, 0.5 + 3.0j)
        monkeypatch.setattr(analytic, "scale_inner_function",
                            lambda mu, s: math.nan if (mu, s) == poisoned else inner(mu, s))
        reports = run_suite("unitary")
        assert [r.check for r in reports if not r.passed] == ["inner-function-unit-modulus"]

    def test_nan_residual_fails_dominance(self, monkeypatch):
        residual = criterion.moebius_residual
        monkeypatch.setattr(criterion, "moebius_residual",
                            lambda *args: [math.nan, *residual(*args)[1:]])
        reports = run_suite("moebius")
        assert [r.check for r in reports if not r.passed] == ["residual-dominates-distance"]

    def test_unknown_suite_rejected(self):
        with pytest.raises(DomainError):
            run_suite("nope")

    @given(st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=20, deadline=None)
    def test_claim_residual_property(self, lam):
        # the transform identity holds at a generic interior scale, not just
        # at the suite's chosen values
        residual = verify_claim(lam, (0.8 + 2.0j, 2.0 - 1.0j))
        assert residual <= 1e-7


def test_transform_modules_import_without_criterion():
    # The transform side (analytic, arith, seqspace) loads neither the
    # distance engine nor scipy; only the moebius suite imports the engine,
    # lazily, and no nblab module loads scipy.
    code = (
        "import sys, nblab.analytic, nblab.arith, nblab.seqspace; "
        "print(sorted(m for m in ('scipy', 'nblab.criterion') if m in sys.modules))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=600, env=child_env())
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_each_command_loads_only_what_it_runs():
    # numpy.random, fractions and decimal cost a short process memory and
    # import time that its work does not need: a distance sweep loads none of
    # them and no transform-side module, and no suite loads numpy.random or
    # fractions. A module that `import numpy` loads by itself (numpy.random
    # on older numpy) is not held against nblab.
    code = (
        "import sys, contextlib, io\n"
        "import nblab, numpy\n"
        "watch = ('numpy.random', 'fractions', 'decimal', 'nblab.analytic')\n"
        "base = {m for m in watch if m in sys.modules}\n"
        "from nblab import cli\n"
        "def loaded(names):\n"
        "    return sorted(m for m in names if m in sys.modules and m not in base)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['distance', '--L', '2..30', '--method', 'both'])]\n"
        "    after_distance = loaded(watch)\n"
        "    from nblab.analytic import SUITES\n"
        "    codes += [cli.main(['verify', name]) for name in sorted(SUITES)]\n"
        "print(codes, after_distance, loaded(watch[:2]))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=600, env=child_env())
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[0, 0, 0, 0, 0, 0] [] []\n"


def test_cli_runs_without_scipy():
    # The distance engine factors and solves with numpy alone: neither the
    # CLI import, nor a sweep of both methods, nor the suite that calls the
    # engine loads a scipy module. Only the test oracles use scipy.
    code = (
        "import sys, contextlib, io\n"
        "from nblab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['distance', '--L', '2..30', '--method', 'both']),\n"
        "             cli.main(['verify', 'moebius'])]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=600, env=child_env())
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[0, 0] []\n"
