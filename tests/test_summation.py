import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nblab.summation import prefix_fsums


def _fsums(x, ends):
    return [math.fsum(np.asarray(x, dtype=np.float64)[:e].tolist()) for e in ends]


def _bits(values):
    # float.hex tells -0.0 from 0.0 and compares nan equal to nan.
    return [float(v).hex() for v in values]


def _check(x, ends):
    assert _bits(prefix_fsums(np.asarray(x, dtype=np.float64), ends)) == _bits(_fsums(x, ends))


class TestPrefixFsums:
    def test_wide_exponent_spread(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 500))
            x = rng.standard_normal(n) * np.exp2(rng.integers(-80, 81, n).astype(np.float64))
            x[rng.random(n) < 0.1] = 0.0
            _check(x, rng.integers(0, n + 1, 6).tolist())

    def test_cancellation_to_one_ulp(self):
        x = [1e16, 1.0, -1e16, 1e-16, -1.0, 3e-300]
        _check(x, range(len(x) + 1))

    def test_zeros_and_signed_zeros(self):
        _check([0.0, -0.0, 0.0], [0, 1, 2, 3])
        _check([-0.0], [1])
        _check([1.5, -1.5, -0.0], [1, 2, 3])

    def test_subnormals(self):
        tiny = 5e-324
        _check([tiny, -tiny, 1e-310, -3 * tiny, 2.2250738585072014e-308], range(6))
        _check([tiny] * 7 + [1.0, -1.0], range(10))

    def test_single_element_and_empty_prefixes(self):
        _check([-2.5], [0, 1, 0])
        _check([], [0, 0])
        assert prefix_fsums(np.array([1.0, 2.0]), []) == []

    def test_unsorted_and_duplicate_ends(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(1000) * 10.0 ** rng.integers(-30, 30, 1000)
        ends = [1000, 3, 3, 0, 999, 500, 1, 1000, 17]
        _check(x, ends)
        _check(x, ends[::-1])

    def test_long_series_like_the_transform(self):
        # The Moebius sums: mu(l) l^(-s-eps) for square-free l, about 18,000
        # terms below 30000, with oscillating parts near zero.
        l = np.arange(1, 30_001, dtype=np.float64)
        terms = np.where(l % 4 == 0, 0.0, (-1.0) ** l) * np.exp(-(0.6 + 14.1j) * np.log(l))
        ends = [10, 100, 1000, 10_000, 30_000]
        _check(terms.real.copy(), ends)
        _check(terms.imag, ends)

    def test_non_finite_falls_back_to_fsum(self):
        inf, nan = math.inf, math.nan
        _check([1.0, inf, 2.0], [0, 1, 2, 3])
        _check([1.0, nan], [1, 2])
        _check([-inf, 1e300, 1.0], [3, 1])
        with pytest.raises(ValueError):
            prefix_fsums(np.array([inf, -inf]), [2])

    def test_overflow_scale(self):
        # A grid above 2^1022 falls back to fsum, overflow errors included.
        _check([1e308, -1e308, 1.0], [1, 2, 3])
        _check([1.7e308, 5e-324, -1.7e308], [3, 2])
        with pytest.raises(OverflowError):
            prefix_fsums(np.array([1e308, 1e308, -1e308]), [3])
        # Below the fallback the extraction itself runs close to the limit.
        x = [1e305] * 5 + [-1e305] * 4 + [3.0]
        _check(x, range(11))

    def test_rejects_ends_out_of_range(self):
        with pytest.raises(ValueError):
            prefix_fsums(np.array([1.0, 2.0]), [3])
        with pytest.raises(ValueError):
            prefix_fsums(np.array([1.0, 2.0]), [-1])

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=0, max_size=60),
        st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_fsum_property(self, values, raw_ends):
        ends = [e % (len(values) + 1) for e in raw_ends]
        try:
            want = _fsums(values, ends)
        except OverflowError:
            with pytest.raises(OverflowError):
                prefix_fsums(np.asarray(values, dtype=np.float64), ends)
            return
        got = prefix_fsums(np.asarray(values, dtype=np.float64), ends)
        assert _bits(got) == _bits(want)

    @given(
        st.lists(
            st.tuples(st.integers(min_value=-60, max_value=60), st.floats(min_value=-1.0, max_value=1.0)),
            min_size=1,
            max_size=200,
        ),
        st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_fsum_on_exponent_spreads(self, pairs, raw_ends):
        x = [math.ldexp(m, e) for e, m in pairs]
        _check(x, [e % (len(x) + 1) for e in raw_ends])
