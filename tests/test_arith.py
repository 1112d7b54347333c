import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nblab.arith import MoebiusTable, sieve_moebius, verify_recurrence
from nblab.errors import DomainError


def _mu_reference(n: int) -> int:
    """Trial-division Moebius, independent of the sieve."""
    if n == 1:
        return 1
    count = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            count += 1
        d += 1
    if n > 1:
        count += 1
    return -1 if count % 2 else 1


class TestSieve:
    def test_small_values(self):
        t = sieve_moebius(30)
        assert t.mu[1] == 1
        assert t.mu[2] == -1
        assert t.mu[4] == 0
        assert t.mu[6] == 1
        assert t.mu[12] == 0
        assert t.mu[30] == -1

    def test_against_trial_division(self):
        t = sieve_moebius(10_000)
        for n in range(1, 10_001):
            assert t.mu[n] == _mu_reference(n), n

    def test_squarefree_flag(self):
        t = sieve_moebius(10_000)
        for n in range(1, 10_001):
            assert bool(t.mu[n] != 0) == (_mu_reference(n) != 0)

    def test_recurrence_exact(self):
        # sum over divisors of mu is the delta at 1
        t = sieve_moebius(10_000)
        assert verify_recurrence(t, 10_000)
        for n in (1, 2, 360, 9973, 10_000):
            total = sum(int(t.mu[d]) for d in oracles.divisors(n))
            assert total == (1 if n == 1 else 0)

    def test_multiplicative_on_coprime_pairs(self):
        t = sieve_moebius(1_000_000)
        rng = random.Random(7)
        done = 0
        while done < 200:
            a = rng.randrange(1, 1000)
            b = rng.randrange(1, 1000)
            if math.gcd(a, b) != 1:
                continue
            assert t.mu[a * b] == t.mu[a] * t.mu[b]
            done += 1

    def test_divisors(self):
        # The trial-division oracle behind test_recurrence_exact.
        assert oracles.divisors(12) == [1, 2, 3, 4, 6, 12]
        assert oracles.divisors(1) == [1]
        assert oracles.divisors(97) == [1, 97]
        assert oracles.divisors(360)[-3:] == [120, 180, 360]

    @pytest.mark.parametrize("limits", [range(1, 401), (100_000,)], ids=["1..400", "1e5"])
    def test_matches_linear_sieve(self, limits):
        # 1..400 covers every limit at and around p^2 and p*q for small primes.
        for limit in limits:
            t = sieve_moebius(limit)
            want = oracles.sieve_moebius_linear(limit)
            assert np.array_equal(t.mu, want), limit
            assert np.array_equal(t.mu != 0, want != 0), limit

    def test_recurrence_small_limits(self):
        for n in range(1, 200):
            assert verify_recurrence(sieve_moebius(n), n), n

    @pytest.mark.parametrize("bad", [6, 9973], ids=["below-root", "above-root"])
    def test_recurrence_catches_a_bad_value(self, bad):
        # 6 <= isqrt(10_000) is checked by the slice adds, the prime 9973
        # above it by the indexed adds.
        t = sieve_moebius(10_000)
        for wrong in {-1, 0, 1} - {int(t.mu[bad])}:
            mu = t.mu.copy()
            mu[bad] = wrong
            assert not verify_recurrence(dataclasses.replace(t, mu=mu), 10_000), wrong

    def test_rejects_bad_limit(self):
        with pytest.raises(DomainError):
            sieve_moebius(0)

    @given(st.integers(min_value=1, max_value=9999))
    @settings(max_examples=300, deadline=None)
    def test_mu_matches_reference_property(self, n):
        t = sieve_moebius(10_000)
        assert t.mu[n] == _mu_reference(n)
