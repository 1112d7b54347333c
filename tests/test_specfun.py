import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nblab import specfun
from nblab.errors import DomainError, PoleError, UnstablePointError
from nblab.specfun import (
    digamma_array,
    finite_complex,
    log_gamma,
    xi,
    xi_inequality_check,
    zeta,
    zeta_deflated,
)
from nblab.analytic import XI_REFLECTION_GRID, XI_SHIFT_GRID


class TestDigamma:
    def test_at_one_is_minus_euler_gamma(self):
        assert abs(digamma_array(1.0) + oracles.EULER_GAMMA) < 5e-14

    def test_at_half(self):
        # psi(1/2) = -gamma - 2 ln 2
        expect = -oracles.EULER_GAMMA - 2.0 * oracles.LN2
        assert abs(digamma_array(0.5) - expect) < 1e-13

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 3.0, 10.0])
    def test_recurrence(self, x):
        assert abs(digamma_array(x + 1.0) - digamma_array(x) - 1.0 / x) < 1e-12

    @given(st.floats(min_value=1e-3, max_value=80.0))
    @settings(max_examples=200, deadline=None)
    def test_recurrence_everywhere(self, x):
        assert abs(digamma_array(x + 1.0) - digamma_array(x) - 1.0 / x) < 1e-11

    def test_against_highprec(self):
        for x in (1e-4, 0.017, 0.3, 1.5, 7.25, 42.0, 1e4):
            assert abs(digamma_array(x) - oracles.digamma_highprec(x)) < 1e-12 * max(
                1.0, abs(oracles.digamma_highprec(x))
            )

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            digamma_array(0.0)
        with pytest.raises(DomainError):
            digamma_array(-2.5)

    def test_array_matches_highprec(self):
        # the whole documented range (0, 1e6], against 40-digit mpmath
        x = np.concatenate(
            [np.geomspace(1e-4, 1e6, 300), np.linspace(0.1, 30.0, 200)]
        )
        got = digamma_array(x)
        expect = np.array([oracles.digamma_highprec(v) for v in x])
        rel = np.abs(got - expect) / np.maximum(1.0, np.abs(expect))
        assert np.max(rel) < 1e-13

    def test_array_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            digamma_array(np.array([1.0, 0.0]))


class TestResidueClassSums:
    """The digamma closed form for sum_k 1/((kP+r)(kP+r+1)) against brute force."""

    @pytest.mark.parametrize("period", [2, 3, 5, 7, 12])
    def test_telescoping_to_brute_force(self, period):
        psi = digamma_array(np.arange(1, period + 2) / period)
        closed = (psi[1:] - psi[:-1]) / period
        terms = 1_000_000
        for r in range(1, period + 1):
            brute = oracles.residue_class_weight_bruteforce(period, r, terms)
            tail = 1.0 / (period * (terms * period + r))
            assert abs(closed[r - 1] - brute) <= tail + 1e-12

    def test_classes_sum_to_weight_total(self):
        # summing over all residue classes recovers sum 1/(n(n+1)) = 1 exactly
        for period in (2, 3, 10, 101):
            psi = digamma_array(np.arange(1, period + 2) / period)
            closed = (psi[1:] - psi[:-1]) / period
            assert abs(math.fsum(closed) - 1.0) < 1e-14


class TestLogGamma:
    def test_factorials(self):
        for n in range(1, 15):
            assert abs(math.exp(log_gamma(n + 1).real) / math.factorial(n) - 1) < 1e-13

    def test_half_integer(self):
        assert abs(cmath.exp(log_gamma(0.5)) - math.sqrt(math.pi)) < 1e-14

    def test_complex_against_highprec(self):
        import mpmath as mp

        for s in (0.5 + 14.1j, 2.0 - 3.0j, 0.25 + 0.1j, 6.0 + 40.0j):
            with mp.workdps(30):
                expect = complex(mp.loggamma(mp.mpc(s)))
            assert abs(log_gamma(s) - expect) < 1e-11 * max(1.0, abs(expect))

    def test_recurrence(self):
        for s in (0.3 + 2.0j, 1.5 - 5.0j):
            lhs = log_gamma(s + 1)
            rhs = log_gamma(s) + cmath.log(s)
            assert abs(lhs - rhs) < 1e-12


class TestZeta:
    def test_zeta2(self):
        assert abs(zeta(2.0) - oracles.ZETA2) < 1e-12

    def test_zeta_at_zero(self):
        assert abs(zeta(0.0) + 0.5) < 1e-12

    def test_conjugate_symmetry(self):
        for s in (0.5 + 10.0j, 2.0 + 3.0j, 0.9 + 25.0j):
            assert abs(zeta(s.conjugate()) - zeta(s).conjugate()) == 0.0

    @pytest.mark.parametrize("s", [2.0, 3.0, 2.5 + 1.0j, 4.0 - 7.0j])
    def test_against_dirichlet_series(self, s):
        # direct sum plus the two-term tail estimate N^(1-s)/(s-1) + N^(-s)/2
        z = complex(s)
        big_n = 200_000
        direct = sum(n**-z for n in range(1, big_n))
        direct += big_n ** (1 - z) / (z - 1) + big_n**-z / 2
        assert abs(zeta(s) - direct) < 1e-6

    def test_against_highprec_grid(self):
        pts = [0.5 + t * 1j for t in (0.0, 3.7, 14.13, 25.0)] + [
            1.1 - 9.0j,
            0.2 + 2.0j,
            3.0 + 0.0j,
        ]
        for s in pts:
            expect = oracles.zeta_highprec(s)
            assert abs(zeta(s) - expect) < 1e-11 * max(1.0, abs(expect))

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            zeta(1.0)

    def test_deflated_smooth_through_pole(self):
        # (s-1) zeta(s) -> 1 at s = 1, and deflation agrees with the direct
        # product away from the pole
        assert abs(zeta_deflated(1.0) - 1.0) < 1e-13
        for s in (1.0 + 1e-9j, 1.0 + 1e-5j, 0.999, 1.0004):
            z = complex(s)
            direct_ok = abs(z - 1.0) > 1e-3
            val = zeta_deflated(z)
            if direct_ok:
                assert abs(val - (z - 1.0) * zeta(z)) < 1e-12
        # and agrees with the direct product just either side of 1e-3 away
        for t in (1e-3 * 1.0001, 1e-3 * 0.9999):
            inner = zeta_deflated(1.0 + t)
            outer = (1.0 + t - 1.0) * zeta(1.0 + t)
            assert abs(inner - outer) < 1e-11

    @pytest.mark.parametrize("s", [0.999, 1.001, 0.998 + 0.0005j, 0.9989, 1.0011, 1.0 + 1e-12])
    def test_deflated_near_pole_against_highprec(self, s):
        # the product (s-1)*zeta(s) cancels here; the eta form must not
        assert abs(zeta_deflated(s) - oracles.zeta_deflated_highprec(s)) < 1e-15

    @pytest.mark.parametrize("k", [1, -1])
    @pytest.mark.parametrize("offset", [0.0, 9e-9, -9e-9j, 6e-9 + 6e-9j])
    def test_unstable_points_raise(self, k, offset):
        # the zeros 1 + 2 pi i k / ln 2 of 1 - 2^(1-s), k != 0
        s = complex(1.0, 2.0 * math.pi * k / oracles.LN2) + offset
        with pytest.raises(UnstablePointError):
            zeta(s)
        with pytest.raises(UnstablePointError):
            zeta_deflated(s)

    def test_bit_identical_to_eta_loop(self, monkeypatch):
        # Re s in [0, 4], |Im s| <= 300, a cluster around the pole, the
        # critical line, and real points whose zero Im s alternates in
        # sign, so memoized values are read across the two signs.
        rng = random.Random(29)
        grid = [complex(rng.uniform(0.0, 4.0), rng.uniform(-300.0, 300.0))
                for _ in range(200)]
        grid += [complex(1.0 + rng.uniform(-1e-6, 1e-6), rng.uniform(-1e-6, 1e-6))
                 for _ in range(100)]
        grid += [complex(0.5, 3.0 * t) for t in range(-100, 101)]
        for x in (0.0, 0.5, 2.0, 3.7):
            grid += [complex(x, 0.0), complex(x, -0.0), complex(x, 0.0)]
        grid = [s for s in grid if abs(s - 1.0) > 1e-8]

        def bits(value):
            return value.real.hex(), value.imag.hex()

        got = [(bits(zeta(s)), bits(zeta_deflated(s))) for s in grid]
        monkeypatch.setattr(specfun, "_eta", oracles.eta_loop)
        want = [(bits(zeta(s)), bits(zeta_deflated(s))) for s in grid]
        assert got == want

    def test_eta_coefficients_match_fraction_oracle(self):
        # Every term count the series uses, |Im s| <= 300: the lcm-scaled
        # integer route rounds the same rationals as the Fraction one.
        counts = sorted({specfun._eta_term_count(t) for t in range(301)})
        for n in counts:
            got = [c.hex() for c in specfun._eta_coefficients(n)]
            assert got == [c.hex() for c in oracles.eta_coefficients_fraction(n)], n

    def test_deflated_derivative_value(self):
        # d/ds [(s-1) zeta(s)] at 1 is the Euler constant
        h = 1e-6
        slope = (zeta_deflated(1 + h) - zeta_deflated(1 - h)) / (2 * h)
        assert abs(slope - oracles.EULER_GAMMA) < 1e-9


class TestXi:
    def test_at_zero_and_one(self):
        assert abs(xi(0.0) + 1.0) < 1e-9
        assert abs(xi(1.0) + 1.0) < 1e-9

    def test_against_highprec(self):
        for s in (2.0, 0.5 + 14.13j, 0.25 + 3.0j, -1.5 + 2.0j, 2.9 - 10.0j):
            expect = oracles.xi_highprec(s)
            assert abs(xi(s) - expect) < 1e-10 * max(1.0, abs(expect))

    def test_rejects_outside_window(self):
        # evaluation is deliberately fenced to the strip the checks need
        with pytest.raises(DomainError):
            xi(4.0 - 10.0j)

    def test_reflection_on_grid(self):
        worst = 0.0
        for s in XI_REFLECTION_GRID.points:
            a, b = xi(s), xi(1.0 - s)
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
        assert worst <= 1e-8

    def test_real_on_critical_line(self):
        for t in (0.0, 5.0, 14.13, 21.02):
            assert abs(xi(0.5 + t * 1j).imag) < 1e-12 * max(1.0, abs(xi(0.5 + t * 1j)))

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            xi(complex("nan"))


class TestXiInequality:
    @pytest.mark.parametrize("eps", [0.1, 0.25])
    def test_no_violations_on_default_grid(self, eps):
        assert xi_inequality_check(XI_SHIFT_GRID.points, eps) == (0, 0.0)

    def test_margin_sign_convention(self, monkeypatch):
        # |1/s| falls as Re s grows, so in place of xi it violates the
        # inequality: one violation, by the positive deficit |xi(s)| -
        # |xi(s + eps)|.
        monkeypatch.setattr(specfun, "xi", lambda z: 1.0 / z)
        s = 0.5 + 2.0j
        violations, deficit = xi_inequality_check([s], 0.25)
        assert violations == 1
        assert deficit == abs(1.0 / s) - abs(1.0 / (s + 0.25))
        assert deficit > 0.0

    def test_rejects_left_of_critical_line(self):
        with pytest.raises(DomainError):
            xi_inequality_check([0.4 + 1.0j], 0.1)

    def test_rejects_bad_eps(self):
        with pytest.raises(DomainError):
            xi_inequality_check([0.6], 0.0)
        with pytest.raises(DomainError):
            xi_inequality_check([0.6], 0.5)


class TestEvalDomain:
    def test_finite_complex_guards(self):
        assert finite_complex(2) == 2.0 + 0.0j
        with pytest.raises(DomainError):
            finite_complex(complex("inf"))
