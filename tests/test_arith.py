import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nblab.arith import sieve_moebius, verify_recurrence
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
        mu = sieve_moebius(30)
        assert mu.dtype == np.int8 and mu.shape == (31,)
        assert mu[0] == 0
        assert mu[1] == 1
        assert mu[2] == -1
        assert mu[4] == 0
        assert mu[6] == 1
        assert mu[12] == 0
        assert mu[30] == -1

    def test_against_trial_division(self):
        mu = sieve_moebius(10_000)
        for n in range(1, 10_001):
            assert mu[n] == _mu_reference(n), n

    def test_squarefree_flag(self):
        mu = sieve_moebius(10_000)
        for n in range(1, 10_001):
            assert bool(mu[n] != 0) == (_mu_reference(n) != 0)

    def test_recurrence_exact(self):
        # sum over divisors of mu is the delta at 1
        mu = sieve_moebius(10_000)
        assert verify_recurrence(mu)
        for n in (1, 2, 360, 9973, 10_000):
            total = sum(int(mu[d]) for d in oracles.divisors(n))
            assert total == (1 if n == 1 else 0)

    def test_multiplicative_on_coprime_pairs(self):
        mu = sieve_moebius(1_000_000)
        rng = random.Random(7)
        done = 0
        while done < 200:
            a = rng.randrange(1, 1000)
            b = rng.randrange(1, 1000)
            if math.gcd(a, b) != 1:
                continue
            assert mu[a * b] == mu[a] * mu[b]
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
            mu = sieve_moebius(limit)
            want = oracles.sieve_moebius_linear(limit)
            assert np.array_equal(mu, want), limit
            assert np.array_equal(mu != 0, want != 0), limit

    def test_recurrence_small_limits(self):
        for n in range(1, 200):
            assert verify_recurrence(sieve_moebius(n)), n

    @pytest.mark.parametrize("bad", [6, 9973], ids=["below-root", "above-root"])
    def test_recurrence_catches_a_bad_value(self, bad):
        # 6 <= isqrt(10_000) is checked by the slice adds, the prime 9973
        # above it by the indexed adds.
        mu = sieve_moebius(10_000)
        for wrong in {-1, 0, 1} - {int(mu[bad])}:
            broken = mu.copy()
            broken[bad] = wrong
            assert not verify_recurrence(broken), wrong

    def test_rejects_bad_limit(self):
        with pytest.raises(DomainError):
            sieve_moebius(0)

    @pytest.mark.parametrize("limit", [10**17, 10**19], ids=["1e17", "1e19"])
    def test_unallocatable_limit_raises_memory_error(self, limit):
        # 10^17 asks numpy for 89 PiB, and 10^19 for a shape numpy refuses
        # (a ValueError, raised as a MemoryError). The limit-sized arrays are
        # allocated first, so neither sieves the primes up to sqrt(limit).
        with pytest.raises(MemoryError):
            sieve_moebius(limit)

    @given(st.integers(min_value=1, max_value=9999))
    @settings(max_examples=300, deadline=None)
    def test_mu_matches_reference_property(self, n):
        mu = sieve_moebius(10_000)
        assert mu[n] == _mu_reference(n)
