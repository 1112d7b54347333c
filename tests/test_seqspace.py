import math
import struct
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nblab import seqspace
from nblab.errors import DomainError
from nblab.seqspace import (
    PiecewiseConstant,
    dilate,
    inner_product_closed,
    inner_product_truncated,
)

GAMMA = PiecewiseConstant.constant_one()


def seq(l):
    return PiecewiseConstant.fractional_parts(l)


class TestWeightScheme:
    """The one weight, 1/(n(n+1)), seen through the truncated sums."""

    def test_default_values(self):
        # The indicator of piece n picks out the weight of term n alone.
        for n in range(1, 6):
            f = PiecewiseConstant(head=(0.0,) * (n - 1) + (1.0,), tail=(0.0,))
            w = 1.0 / (n * (n + 1.0))
            assert inner_product_truncated(f, f, 5) == w
            assert inner_product_truncated(f, GAMMA, 5) == w

    def test_tail_bound_is_exact_for_default(self):
        # sum_{n>N} 1/(n(n+1)) telescopes to exactly 1/(N+1)
        for n_trunc in (1, 10, 1000):
            r = inner_product_truncated(GAMMA, GAMMA, n_trunc)
            assert abs(r + 1.0 / (n_trunc + 1) - 1.0) <= 1e-15


class TestFractionalSequence:
    """{n/l} as the step function `PiecewiseConstant.fractional_parts(l)`."""

    def test_terms(self):
        s = seq(3)
        assert [s.value_at_piece(n) for n in range(1, 8)] == [
            1 / 3,
            2 / 3,
            0.0,
            1 / 3,
            2 / 3,
            0.0,
            1 / 3,
        ]
        assert GAMMA.value_at_piece(1) == 1.0
        assert GAMMA.value_at_piece(10**9) == 1.0

    def test_periodicity_exact(self):
        for l in (2, 7, 100):
            s = seq(l)
            v = s.values_upto(3 * l)
            assert np.array_equal(v[:l], v[l : 2 * l])
            assert np.array_equal(v[:l], v[2 * l : 3 * l])

    def test_values_upto_matches_terms(self):
        # Shorter than, equal to, and a ragged multiple of the period, bit
        # for bit against the integer-arithmetic terms (n mod l)/l.
        for l in (1, 2, 7, 100, 399, 1000):
            for n_trunc in (1, l - 1, l, 3 * l + 2):
                if n_trunc < 1:
                    continue
                got = seq(l).values_upto(n_trunc)
                want = np.array([(n % l) / l for n in range(1, n_trunc + 1)])
                assert got.tobytes() == want.tobytes(), (l, n_trunc)

    def test_denominator_one_is_zero_sequence(self):
        assert np.all(seq(1).values_upto(50) == 0.0)
        assert max(map(abs, seq(1).tail)) == 0.0

    def test_rejects_bad_denominator(self):
        for l in (0, -3):
            with pytest.raises(DomainError):
                seq(l)


class TestInnerProducts:
    """Closed forms take store keys: 0 the constant sequence, l >= 1 {n/l}."""

    def test_constant_with_itself_is_exactly_one(self):
        r = inner_product_closed(0, 0)
        assert r == 1.0
        assert type(r) is float
        # and with {n/b}, log(b)/b to the bit, in either order
        for b in range(1, 301):
            want = struct.pack("<d", math.log(b) / b)
            assert struct.pack("<d", inner_product_closed(0, b)) == want, b
            assert struct.pack("<d", inner_product_closed(b, 0)) == want, b

    def test_golden_values_against_alternating_series_oracle(self):
        ln2 = oracles.ln2_alternating()
        g2 = inner_product_closed(0, 2)
        g22 = inner_product_closed(2, 2)
        assert abs(g2 - ln2 / 2.0) < 1e-12
        assert abs(g22 - ln2 / 4.0) < 1e-12

    def test_denominator_one_gives_exact_zero(self):
        assert inner_product_closed(0, 1) == 0.0
        assert inner_product_closed(1, 5) == 0.0

    def test_negative_key_rejected(self):
        for a, b in ((-1, 3), (3, -1), (-2, -2)):
            with pytest.raises(DomainError):
                inner_product_closed(a, b)

    def test_symmetry(self):
        assert inner_product_closed(6, 15) == inner_product_closed(15, 6)

    def test_closed_vs_truncated_within_certified_bound(self):
        # The truncated sum misses at most max|a| max|b| / (N + 1), which for
        # fractional parts is below the weight tail 1/(N + 1).
        n_trunc = 200_000
        for l in range(2, 13):
            for m in range(l, 13):
                a, b = seq(l), seq(m)
                closed = inner_product_closed(l, m)
                trunc = inner_product_truncated(a, b, n_trunc)
                # {n/l} is periodic from piece 1, so its tail holds every value.
                bound = max(a.tail) * max(b.tail) / (n_trunc + 1)
                assert bound <= 1.0 / (n_trunc + 1)
                assert abs(closed - trunc) <= bound + 1e-12

    def test_truncated_against_raw_numpy(self):
        n = np.arange(1, 100_001, dtype=np.float64)
        w = 1.0 / (n * (n + 1.0))
        va = (np.arange(1, 100_001) % 4) / 4.0
        vb = (np.arange(1, 100_001) % 6) / 6.0
        raw = float(np.sum(va * vb * w))
        r = inner_product_truncated(seq(4), seq(6), 100_000)
        assert abs(r - raw) < 1e-14

    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=2, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_cauchy_schwarz_property(self, l, m):
        ab = inner_product_closed(l, m)
        aa = inner_product_closed(l, l)
        bb = inner_product_closed(m, m)
        assert ab * ab <= aa * bb * (1.0 + 1e-12)
        assert aa > 0.0


class TestClosedFormAgainstResidueClassOracle:
    """The O(a + b) closed form against the O(lcm) residue-class oracle."""

    def test_every_pair_up_to_40(self):
        worst = 0.0
        for b in range(1, 41):
            got = inner_product_closed(0, b)
            worst = max(worst, abs(got - oracles.residue_class_entry(None, b)))
            for a in range(1, b + 1):
                got = inner_product_closed(a, b)
                worst = max(worst, abs(got - oracles.residue_class_entry(a, b)))
        assert worst <= 1e-14

    def test_concurrent_first_use_matches_serial(self, monkeypatch):
        # Threads that grow the shared period tables at once must read the
        # same bits as one thread growing them pair by pair.
        pairs = [(a, b) for a in range(2, 61) for b in range(a, 61)]
        monkeypatch.setattr(seqspace, "_TABLES", seqspace._PeriodTables())
        serial = [inner_product_closed(a, b) for a, b in pairs]
        monkeypatch.setattr(seqspace, "_TABLES", seqspace._PeriodTables())

        def work(k):
            mine = pairs[k::8] if k % 2 else pairs[k::8][::-1]
            return {(a, b): inner_product_closed(a, b) for a, b in mine}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(work, k) for k in range(8)]
                threaded = {}
                for f in futures:
                    threaded.update(f.result(timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(threaded) == len(pairs)
        for (a, b), value in zip(pairs, serial):
            assert struct.pack("<d", threaded[a, b]) == struct.pack("<d", value), (a, b)

    def test_seeded_sample_up_to_300(self):
        rng = np.random.default_rng(20261018)
        worst = 0.0
        for a, b in rng.integers(1, 301, size=(200, 2)).tolist():
            got = inner_product_closed(a, b)
            worst = max(worst, abs(got - oracles.residue_class_entry(a, b)))
        assert worst <= 1e-14

    def test_seeded_sample_up_to_2000(self):
        # Keys up to 2000 whose lcm, the oracle's period, is at most 3e6.
        # Entries there are of order 1e-3, so 1e-16 is a few units in the
        # last place.
        rng = np.random.default_rng(20261020)
        pairs = []
        while len(pairs) < 10:
            a, b = rng.integers(2, 2001, size=2).tolist()
            if math.lcm(a, b) <= 3_000_000:
                pairs.append((a, b))
        worst = max(abs(inner_product_closed(a, b) - oracles.residue_class_entry(a, b))
                    for a, b in pairs)
        assert worst <= 1e-16


class TestPeriodTables:
    """The folded cotangent tables V(c/p) against the psi route they replaced."""

    @pytest.fixture(scope="class")
    def tables(self):
        return seqspace._PeriodTables().ensure(400)

    @staticmethod
    def block(tables, p):
        return tables.values[p * (p - 1) // 2 : p * (p + 1) // 2]

    @classmethod
    def regularized(cls, tables, p):
        # R(p, c) = ((p - 1) gamma + log p)/(2p) + (pi/(2p)) V(c/p), the
        # regularized periodic sum that the psi oracles compute.
        affine = ((p - 1) * oracles.EULER_GAMMA + math.log(p)) / (2.0 * p)
        return affine + (math.pi / (2.0 * p)) * cls.block(tables, p)

    def test_coprime_slots_match_psi_oracle_to_400(self, tables):
        # Every slot the fill can read, p <= 400, within 2e-14 of the O(p^2)
        # psi sums over scipy's digamma.
        worst = 0.0
        for p in range(1, 401):
            coprime = np.gcd(np.arange(p), p) == 1
            got, want = self.regularized(tables, p)[coprime], oracles.period_table_psi(p)[coprime]
            worst = max(worst, float(np.abs(got - want).max()))
        assert worst <= 2e-14

    def test_seeded_entries_match_highprec_psi_sum(self, tables):
        # 16 seeded coprime slots, p <= 400, within 1e-15 of 40-digit sums.
        rng = np.random.default_rng(20261019)
        worst = 0.0
        for p in rng.integers(2, 401, size=16).tolist():
            c = int(rng.choice(np.flatnonzero(np.gcd(np.arange(p), p) == 1)))
            want = oracles.period_entry_highprec(p, c)
            worst = max(worst, abs(float(self.regularized(tables, p)[c]) - want))
        assert worst <= 1e-15

    def test_only_noncoprime_slots_are_nan(self, tables):
        assert tables.values[0] == 0.0  # V(0/1), read by every a' = 1 entry
        for p in range(1, 401):
            nan = np.isnan(self.block(tables, p))
            assert np.array_equal(nan, np.gcd(np.arange(p), p) > 1), p

    def test_reflected_rows_match_every_row_reduced(self, tables):
        # Only the coprime c <= p/2 are reduced; the rest are their exact
        # negations. Bit for bit, NaN slots included, from p = 1 and p = 2
        # (where c = p - c) to 400.
        for p in range(1, 401):
            got = [v.hex() for v in self.block(tables, p).tolist()]
            assert got == [v.hex() for v in oracles.period_table_cot_rows(p).tolist()], p

    def test_store_filled_to_300_is_finite(self, shared_store):
        assert shared_store.top >= 300
        assert np.isfinite(shared_store.values).all()


class TestPiecewiseConstant:
    def test_constant_one(self):
        f = PiecewiseConstant.constant_one()
        assert f.value_at_piece(1) == 1.0
        assert f.value_at_piece(12345) == 1.0
        assert np.abs(np.concatenate([f.head, f.tail])).max() == 1.0

    def test_indicator(self):
        # indicator of the interval (0, 1/3]: zero before piece 3, one after
        f = PiecewiseConstant.indicator(3)
        assert [f.value_at_piece(n) for n in range(1, 6)] == [0, 0, 1, 1, 1]

    def test_fractional_parts_matches_sequence(self):
        for l in (2, 5, 9):
            f = PiecewiseConstant.fractional_parts(l)
            for n in range(1, 4 * l):
                assert f.value_at_piece(n) == (n % l) / l

    def test_values_upto_tiles_tail(self):
        f = PiecewiseConstant.fractional_parts(3)
        v = f.values_upto(10)
        expect = [(n % 3) / 3.0 for n in range(1, 11)]
        assert np.array_equal(v, np.array(expect))

    def test_values_upto_inside_the_first_period_builds_no_whole_period(self):
        # A truncated entry reads N values of each sequence, so a cut inside
        # a long tail's first period must not build the whole period: 5
        # values of {n/100000} take a few hundred bytes, not 1.6 MB.
        f = PiecewiseConstant.fractional_parts(100_000)
        tracemalloc.start()
        try:
            v = f.values_upto(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.tolist() == [n / 100_000 for n in range(1, 6)]
        assert peak < 10_000

    def test_a_step_function_keeps_eight_bytes_per_value(self):
        # 100,000 float64 values are 0.76 MiB; Python floats in a tuple
        # would retain about four times that.
        tracemalloc.start()
        try:
            f = PiecewiseConstant.fractional_parts(100_000)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(f.tail) == 100_000
        assert retained < 1 << 20

    def test_values_are_read_only_float64_and_equality_is_identity(self):
        f = PiecewiseConstant(head=(1, 2), tail=[0.5])
        assert f.head.dtype == f.tail.dtype == np.float64
        assert not f.head.flags.writeable and not f.tail.flags.writeable
        g = PiecewiseConstant(head=(1, 2), tail=[0.5])
        assert f == f and f != g and len({f, g}) == 2

    def test_empty_tail_rejected(self):
        # Every read past the head indexes the tail modulo its length.
        with pytest.raises(DomainError):
            PiecewiseConstant(head=(1.0,), tail=())
        with pytest.raises(DomainError):
            PiecewiseConstant(head=(), tail=())


class TestNorm:
    """Squared norms as truncated sums <f, f> up to N."""

    def test_indicator_norms(self):
        # squared norm of the (0, 1/n] indicator telescopes to exactly 1/n
        n_big = 100_000
        for n in (1, 2, 10):
            ind = PiecewiseConstant.indicator(n)
            value = inner_product_truncated(ind, ind, n_big)
            expect = 1.0 / n - 1.0 / (n_big + 1)
            assert abs(value - expect) < 1e-12

    def test_constant_one_norm(self):
        n_big = 1_000_000
        value = inner_product_truncated(GAMMA, GAMMA, n_big)
        # telescoping gives value 1 - 1/(N+1); the weight tail covers the rest
        tail = 1.0 / (n_big + 1)
        assert abs(value + tail - 1.0) <= tail
        assert value <= 1.0

    def test_norm_matches_sequence_route(self):
        # against raw numpy sums of {n/6}^2 / (n(n+1)), built without the package
        s = inner_product_truncated(seq(6), seq(6), 50_000)
        G, _ = oracles.truncated_gram([6], 50_000)
        assert s == pytest.approx(G[0, 0], abs=1e-15)


class TestDilation:
    def test_identity(self):
        f = PiecewiseConstant.fractional_parts(4)
        assert dilate(1, f) is f

    def test_indicator_law_exact(self):
        # dilation sends the n-th indicator to sqrt(m) times the (mn)-th
        for m in (2, 3, 7):
            for n in (1, 2, 5):
                lhs = dilate(m, PiecewiseConstant.indicator(n))
                rhs = PiecewiseConstant.indicator(m * n)
                upto = 3 * m * n + 5
                a = lhs.values_upto(upto)
                b = math.sqrt(m) * rhs.values_upto(upto)
                assert np.array_equal(a, b)

    def test_isometry_on_random_steps(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            head = tuple(rng.uniform(-1, 1, size=rng.integers(1, 12)))
            f = PiecewiseConstant(head=head, tail=(0.0,))
            m = int(rng.integers(2, 9))
            n_big = 20_000
            g = dilate(m, f)
            before = inner_product_truncated(f, f, n_big)
            after = inner_product_truncated(g, g, m * n_big + m)
            assert abs(before - after) < 1e-14

    def test_semigroup_composition(self):
        f = PiecewiseConstant.fractional_parts(3)
        a = dilate(2, dilate(5, f))
        b = dilate(10, f)
        n = 600
        assert np.array_equal(a.values_upto(n), b.values_upto(n))

    def test_dilated_fractional_identity(self):
        # T_m applied to the fractional-part function of 1/l lands on
        # sqrt(m) * (frac(n/(lm)) - frac(n/m)/l), checked pointwise
        for l in range(1, 11):
            for m in range(2, 11):
                lhs = dilate(m, PiecewiseConstant.fractional_parts(l))
                root = math.sqrt(m)
                for n in range(1, 1001):
                    expect = root * ((n % (l * m)) / (l * m) - (n % m) / m / l)
                    assert abs(lhs.value_at_piece(n) - expect) < 1e-12
