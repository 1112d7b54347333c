import json
import math
import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

import oracles
from nblab.criterion import (
    CONSTANT_KEY,
    BasisKind,
    GramStore,
    SolveMethod,
    _factor_with_ridge,
    _forward,
    _ice_cond,
    _prefix_solve,
    assemble_gram,
    asymptotic_rate_constant,
    distance,
    distance_sweep,
    gram_system,
    moebius_residual,
)
from nblab import criterion, seqspace
from nblab.errors import CacheError, ConditioningError, DomainError
from nblab.seqspace import PiecewiseConstant, inner_product_closed, inner_product_truncated

EXCL = BasisKind.EXCLUDE_ONE
SQFREE = BasisKind.SQUARE_FREE


def key_sequence(key):
    """The step-function sequence of a store key: 0 the constant, l the {n/l}."""
    if key == CONSTANT_KEY:
        return PiecewiseConstant.constant_one()
    return PiecewiseConstant.fractional_parts(key)


class TestBasisSelection:
    def test_denominators(self):
        # No basis holds l = 1, the zero sequence.
        assert EXCL.denominators(5) == (2, 3, 4, 5)
        assert SQFREE.denominators(12) == (2, 3, 5, 6, 7, 10, 11)
        assert EXCL.denominators(1) == SQFREE.denominators(1) == ()

    def test_two_bases(self):
        assert [b.value for b in BasisKind] == ["exclude-one", "square-free"]
        with pytest.raises(ValueError):
            BasisKind("all")

    def test_rejects_bad_cutoff(self):
        for basis in BasisKind:
            with pytest.raises(DomainError):
                basis.denominators(0)


class TestAssemble:
    def test_single_entry_at_cutoff_one(self):
        store = assemble_gram(1)
        assert len(store) == 3  # keys 0 and 1: <1, 1>, <1, 0> and <0, 0>
        assert store.values.tolist() == [[1.0, 0.0], [0.0, 0.0]]

    def test_pair_count_exclude_one(self):
        store = assemble_gram(10)
        # Every key 0..10, whatever the basis: upper triangle incl. diagonal.
        assert len(store) == 66

    def test_idempotent(self):
        store = assemble_gram(6)
        n = len(store)
        assemble_gram(6, store)
        assert len(store) == n

    def test_file_keeps_the_store_truncation(self, tmp_path):
        # The store's N decides every fill's entries, and its file keeps it.
        truncated = assemble_gram(4, GramStore(20))
        closed = assemble_gram(4)
        for store, n_trunc in ((truncated, 20), (closed, None)):
            p = tmp_path / f"{n_trunc}.nbbg"
            store.save(p)
            assert GramStore.load(p).n_trunc == n_trunc

    def test_truncated_entries_marked(self):
        store = assemble_gram(4, GramStore(50_000))
        assert len(store) == 15

        def refuse(i, j):
            raise AssertionError(f"held entry ({i}, {j}) recomputed")

        assert store.n_trunc == 50_000
        for i in range(5):
            for j in range(5):
                assert store.ensure(i, j, refuse) == store.values[i, j]

    def test_truncated_fill_matches_single_pairs(self):
        # Each entry of a truncated fill is the single-pair product of its two
        # step-function sequences, bit for bit; key 0 is the constant.
        store = assemble_gram(12, GramStore(300))
        for i in range(13):
            for j in range(i, 13):
                single = inner_product_truncated(key_sequence(i), key_sequence(j), 300)
                assert struct.pack("<d", store.values[i, j]) == struct.pack("<d", single), (i, j)

    def test_gram_system_leaves_out_the_zero_sequence(self, shared_store):
        # No basis holds l = 1; every other diagonal is positive, closed-form
        # and truncated alike, so the solver needs no pruning.
        assert gram_system(6, EXCL, shared_store)[0] == (2, 3, 4, 5, 6)
        assert gram_system(6, SQFREE, shared_store)[0] == (2, 3, 5, 6)
        assert gram_system(1, EXCL, GramStore())[1].tolist() == [[1.0]]
        for n_trunc in (None, 1, 20):
            _, B = gram_system(30, EXCL, GramStore(n_trunc))
            assert (np.diag(B) > 0.0).all()


class TestEntryPurity:
    """Closed-form entries are pure functions of (a, b), down to the last bit."""

    @staticmethod
    def _bits(store):
        i, j = np.triu_indices(store.top + 1)
        values = store.values[i, j].tolist()
        return {key: struct.pack("<d", v) for key, v in zip(zip(i.tolist(), j.tolist()), values)}

    def test_fill_in_steps_matches_one_step_and_single_pairs(self, monkeypatch):
        # Fresh period tables for each route, so each grows them its own way.
        monkeypatch.setattr(seqspace, "_TABLES", seqspace._PeriodTables())
        stepped = GramStore()
        gram_system(17, EXCL, stepped)
        gram_system(40, EXCL, stepped)
        monkeypatch.setattr(seqspace, "_TABLES", seqspace._PeriodTables())
        whole = GramStore()
        gram_system(40, EXCL, whole)
        assert self._bits(stepped) == self._bits(whole)
        monkeypatch.setattr(seqspace, "_TABLES", seqspace._PeriodTables())
        for (i, j), bits in self._bits(whole).items():
            single = inner_product_closed(i, j)
            assert struct.pack("<d", single) == bits, (i, j)

    def test_exactly_symmetric(self):
        for a in range(1, 41):
            for b in range(a, 41):
                ab, ba = inner_product_closed(a, b), inner_product_closed(b, a)
                assert struct.pack("<d", ab) == struct.pack("<d", ba), (a, b)


class TestBlockFill:
    """The block fill gives the row-by-row oracle's bits, wherever its block
    edges fall."""

    @staticmethod
    def _same_bits(values, want):
        assert values.shape == want.shape
        assert np.array_equal(values.view(np.int64), want.view(np.int64))
        assert np.array_equal(values.view(np.int64), values.T.view(np.int64))

    @pytest.mark.parametrize("budget", [criterion._BLOCK_PAIRS, 7, 1])
    @pytest.mark.parametrize("top", [1, 2, 37, 300])
    def test_fresh_store(self, top, budget, monkeypatch):
        monkeypatch.setattr(criterion, "_BLOCK_PAIRS", budget)
        self._same_bits(assemble_gram(top).values, oracles.closed_rows_fill(top))

    @pytest.mark.parametrize("budget", [criterion._BLOCK_PAIRS, 7, 1])
    @pytest.mark.parametrize("old", [0, 1, 150, 299])
    def test_grown_store(self, old, budget, monkeypatch):
        monkeypatch.setattr(criterion, "_BLOCK_PAIRS", budget)
        store = GramStore()
        store.grow(old, seqspace.inner_products_closed)
        self._same_bits(store.values, oracles.closed_rows_fill(old))
        assemble_gram(300, store)
        self._same_bits(store.values, oracles.closed_rows_fill(300))

    @pytest.mark.parametrize("budget", [criterion._BLOCK_PAIRS, 7, 1])
    @pytest.mark.parametrize("old, top", [(-1, 1), (-1, 30), (-1, 300), (150, 300)])
    def test_each_new_pair_reaches_the_kernel_once_in_row_order(self, old, top, budget,
                                                                monkeypatch):
        # Every key pair a <= b with b above the old top goes to the entry
        # kernel exactly once, and the calls together list them row by row.
        monkeypatch.setattr(criterion, "_BLOCK_PAIRS", budget)
        store = GramStore()
        store.grow(old, seqspace.inner_products_closed)
        pairs = []

        def counted(a, b):
            a, b = np.broadcast_arrays(a, b)
            pairs.extend(zip(a.ravel().tolist(), b.ravel().tolist()))
            return seqspace.inner_products_closed(a, b)

        monkeypatch.setattr(criterion, "inner_products_closed", counted)
        assemble_gram(top, store)
        want = [(a, b) for a in range(top + 1) for b in range(max(a, old + 1), top + 1)]
        assert len(pairs) == len(want)
        assert pairs == want

    def test_truncated_entries_computed_once_in_row_order(self, monkeypatch):
        # Growing from 3 to 9 in blocks of 5 pairs: the blocks' mirror
        # pairs are not computed again, and the order is the upper
        # triangle's, row by row.
        monkeypatch.setattr(criterion, "_BLOCK_PAIRS", 5)
        store = assemble_gram(3, GramStore(20))
        pairs = []

        def values(f):
            # step functions compare by identity, so compare their values
            return f.head.tolist(), f.tail.tolist()

        def recorded(a, b, n_trunc):
            pairs.append((values(a), values(b)))
            return inner_product_truncated(a, b, n_trunc)

        monkeypatch.setattr(criterion, "inner_product_truncated", recorded)
        assemble_gram(9, store)
        want = [(i, j) for i in range(10) for j in range(max(i, 4), 10)]
        assert pairs == [(values(key_sequence(i)), values(key_sequence(j))) for i, j in want]
        assert store.values.tobytes() == assemble_gram(9, GramStore(20)).values.tobytes()


class TestGramStoreFile:
    def test_roundtrip_bitwise(self, tmp_path):
        store = assemble_gram(12)
        p = tmp_path / "cache.nbbg"
        store.save(p)
        loaded = GramStore.load(p)
        assert (loaded.n_trunc, len(loaded)) == (store.n_trunc, len(store))
        assert loaded.values.tobytes() == store.values.tobytes()
        # saving the loaded store reproduces the file byte for byte
        p2 = tmp_path / "cache2.nbbg"
        loaded.save(p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_crc_corruption_detected(self, tmp_path):
        store = assemble_gram(5)
        p = tmp_path / "cache.nbbg"
        store.save(p)
        raw = bytearray(p.read_bytes())
        raw[25] ^= 0xFF  # flip a byte inside the first entry
        p.write_bytes(bytes(raw))
        with pytest.raises(CacheError):
            GramStore.load(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "cache.nbbg"
        store = assemble_gram(3)
        store.save(p)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"JUNK"
        p.write_bytes(bytes(raw))
        with pytest.raises(CacheError):
            GramStore.load(p)

    def test_bad_version_rejected(self, tmp_path):
        p = tmp_path / "cache.nbbg"
        store = assemble_gram(3)
        store.save(p)
        raw = bytearray(p.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        # keep the trailer honest so the version check itself must fire
        body = bytes(raw[:-4])
        p.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CacheError):
            GramStore.load(p)

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        p = tmp_path / "cache.nbbg"
        assemble_gram(3).save(p)
        old = p.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(criterion.os, "replace", refuse)
        with pytest.raises(OSError):
            assemble_gram(8).save(p)
        assert p.read_bytes() == old
        assert len(GramStore.load(p)) == 10  # keys 0..3
        assert os.listdir(tmp_path) == ["cache.nbbg"]

    def test_truncated_file_rejected(self, tmp_path):
        p = tmp_path / "cache.nbbg"
        store = assemble_gram(3)
        store.save(p)
        p.write_bytes(p.read_bytes()[:-7])
        with pytest.raises(CacheError):
            GramStore.load(p)

    def test_csv_export(self, main_cli):
        store = assemble_gram(3)
        export = main_cli("gram", "--L", "3", "--basis", "all", "--export", "csv")
        lines = export.stdout.splitlines()
        assert lines[0] == "l,m,value,error_bound,method"
        # key 1 is the zero sequence
        assert lines[1] == "1,1,0.0,0.0,closed"
        assert lines[2] == "1,2,0.0,0.0,closed"
        assert lines[4].startswith("2,2,0.17328679513998")
        # one row per stored entry but key 0's, each the store's value
        assert len(lines) == 1 + len(store) - (store.top + 1)
        for line in lines[1:]:
            i, j, value = line.split(",")[:3]
            assert value == repr(float(store.values[int(i), int(j)]))
        # a basis picks its own pairs
        excl = main_cli("gram", "--L", "3", "--export", "csv").stdout.splitlines()
        assert excl[1:] == [line for line in lines[1:] if min(map(int, line.split(",")[:2])) >= 2]


def assert_rows_close(row, d2, cond):
    """A sweep row against another route: |d2 - d2'| <= 1e-12 and cond
    within a relative 1e-10."""
    assert abs(row.d2 - d2) <= 1e-12, (row.L, row.d2, d2)
    assert abs(row.cond_estimate - cond) <= 1e-10 * cond, (row.L, row.cond_estimate, cond)


def _format_file(n_trunc, upper, version=6):
    """A cache file built field by field with struct, as format 6 documents
    it: header {magic, version, N, side}, the upper triangle row by row as
    "<d" values, CRC32 trailer. `upper[i]` lists the entries (i, i),
    (i, i + 1), ... of row i."""
    body = struct.pack("<4sIQQ", b"NBBG", version, n_trunc, len(upper))
    body += b"".join(struct.pack("<d", v) for row in upper for v in row)
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.fixture(scope="module")
def per_row_oracle(shared_store):
    """basis -> {L: `oracles.per_row_distance` of the basis at L}, L = 2..300,
    from the shared store. Each basis is computed once and serves the tests
    of both methods: one factor and one cond per row give both d2."""
    by_basis = {}

    def rows(basis):
        if basis not in by_basis:
            # The oracle prunes zero and duplicate columns on its own; the
            # tests check that no basis gives it one.
            denoms = basis.denominators(300)
            keys = np.asarray(denoms)
            G = shared_store.values[np.ix_(keys, keys)]
            g = shared_store.values[CONSTANT_KEY, keys]
            by_basis[basis] = {}
            for L in range(2, 301):
                k = sum(1 for l in denoms if l <= L)
                by_basis[basis][L] = oracles.per_row_distance(denoms[:k], G[:k, :k], g[:k])
        return by_basis[basis]

    return rows


class TestDenseStore:
    @pytest.mark.parametrize("basis", [EXCL, SQFREE], ids=lambda b: b.value)
    @pytest.mark.parametrize("method", list(SolveMethod), ids=lambda m: m.value)
    def test_sweep_rows_match_per_row_oracle(self, shared_store, per_row_oracle, basis, method):
        # The sweep reads every row from one factor of the L = 300 block; the
        # oracle factors each row's own block. Only the last bits may differ.
        swept = distance_sweep(list(range(2, 301)), basis, (method,), shared_store)
        refs = per_row_oracle(basis)
        for r in swept:
            ref = refs[r.L]
            assert_rows_close(r, ref["d2"][method], ref["cond"])
            assert (ref["pruned"], r.ridge_used, r.degenerate) == (
                (), ref["ridge"][method], ref["degenerate"]), r.L

    @pytest.mark.parametrize("basis", [EXCL, SQFREE], ids=lambda b: b.value)
    @pytest.mark.parametrize("method", list(SolveMethod), ids=lambda m: m.value)
    def test_sweep_rows_match_fresh_distance(self, basis, method):
        # A row of a sweep to 60 and `distance` from a store of its own agree
        # to the oracle's bound, in everything but the last bits.
        cutoffs = list(range(2, 61))
        swept = distance_sweep(cutoffs, basis, (method,), GramStore())
        for r in swept:
            fresh = distance(r.L, basis, method, GramStore())
            assert_rows_close(r, fresh.d2, fresh.cond_estimate)
            assert (r.ridge_used, r.degenerate) == (fresh.ridge_used, fresh.degenerate), r.L

    @pytest.mark.parametrize("n_trunc", [None, 30])
    def test_save_load_save_byte_identical(self, tmp_path, n_trunc):
        store = GramStore(n_trunc=n_trunc)
        gram_system(9, SQFREE, store)
        gram_system(14, EXCL, store)
        first, second = tmp_path / "a.nbbg", tmp_path / "b.nbbg"
        store.save(first)
        GramStore.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("n_trunc", [None, 30])
    def test_square_free_then_all_matches_one_fill(self, n_trunc):
        stepped = GramStore(n_trunc=n_trunc)
        gram_system(9, SQFREE, stepped)
        gram_system(14, EXCL, stepped)
        whole = assemble_gram(14, GramStore(n_trunc))
        assert stepped.values.tobytes() == whole.values.tobytes()

    @pytest.mark.parametrize("n_trunc", [None, 30])
    def test_struct_built_file_loads_to_same_bits(self, tmp_path, n_trunc, main_cli):
        # Each entry from its own single-pair call, not from a fill.
        def entry(i, j):
            if n_trunc is None:
                return inner_product_closed(i, j)
            return inner_product_truncated(key_sequence(i), key_sequence(j), n_trunc)

        top = 7
        results = {(i, j): entry(i, j) for i in range(top + 1) for j in range(i, top + 1)}
        upper = [[results[i, j] for j in range(i, top + 1)] for i in range(top + 1)]
        p = tmp_path / "packed.nbbg"
        p.write_bytes(_format_file(n_trunc or 0, upper))
        loaded = GramStore.load(p)
        assert (loaded.n_trunc, loaded.top, len(loaded)) == (n_trunc, top, len(results))
        # Its export takes each entry's error bound from the loaded file's N.
        N = () if n_trunc is None else ("--N", str(n_trunc))
        export = main_cli("gram", "--L", str(top), "--basis", "all", "--export", "csv",
                          "--cache", str(p), *N).stdout.splitlines()
        bound, kind = (0.0, "closed") if n_trunc is None else (1.0 / (n_trunc + 1), "truncated")
        assert export[1:] == [f"{i},{j},{float(results[i, j])!r},{bound!r},{kind}"
                              for i in range(1, top + 1) for j in range(i, top + 1)]

        def refuse(i, j):
            raise AssertionError(f"held entry ({i}, {j}) recomputed")

        for (i, j), r in results.items():
            for a, b in ((i, j), (j, i)):
                assert struct.pack("<d", loaded.values[a, b]) == struct.pack("<d", r)
                assert struct.pack("<d", loaded.ensure(a, b, refuse)) == struct.pack("<d", r)
        assert loaded.values.tobytes() == assemble_gram(top, GramStore(n_trunc)).values.tobytes()
        again = tmp_path / "again.nbbg"
        loaded.save(again)
        assert again.read_bytes() == p.read_bytes()

    def test_format_five_file_refused(self, tmp_path):
        # Format 5 held entries computed through the gamma and log p terms
        # that cancel out of today's formula; a store grown from one would mix
        # the two kinds of last bits.
        top = 4
        upper = [[inner_product_closed(i, j) for j in range(i, top + 1)] for i in range(top + 1)]
        p = tmp_path / "old.nbbg"
        p.write_bytes(_format_file(0, upper, version=5))
        with pytest.raises(CacheError, match="format version 5"):
            GramStore.load(p)
        p.write_bytes(_format_file(0, upper))
        assert GramStore.load(p).top == top

    def test_grows_without_losing_entries(self):
        store = GramStore()
        assemble_gram(5, store)
        before = store.values[:6, :6].copy()
        assemble_gram(40, store)
        assert store.values.shape == (41, 41)
        assert store.values[:6, :6].tobytes() == before.tobytes()
        assert len(store) == 41 * 42 // 2

    def test_negative_key_rejected(self):
        def refuse(i, j):
            raise AssertionError("a negative key reached compute")

        with pytest.raises(DomainError):
            GramStore().ensure(-1, 2, refuse)
        with pytest.raises(DomainError):
            GramStore().ensure(2, -3, refuse)


class TestDistance:
    def test_closed_form_cutoff_two(self):
        report = distance(2, EXCL)
        assert abs(report.d2 - oracles.D2_L2) < 1e-10
        assert report.ridge_used == 0.0
        assert not report.degenerate

    def test_truncated_cutoff_two(self):
        n_trunc = 1_000_000
        report = distance(2, EXCL, store=GramStore(n_trunc))
        assert abs(report.d2 - oracles.D2_L2) < 1.0 / (n_trunc + 1) + 1e-10

    def test_methods_agree(self, shared_store):
        for L in (5, 17, 30):
            ls = distance(L, EXCL, SolveMethod.LEAST_SQUARES, shared_store)
            det = distance(L, EXCL, SolveMethod.GRAM_DET_RATIO, shared_store)
            assert abs(ls.d2 - det.d2) < 1e-8
            assert ls.method is SolveMethod.LEAST_SQUARES
            assert det.method is SolveMethod.GRAM_DET_RATIO

    def test_coordinate_descent_oracle(self, shared_store):
        for L in (3, 4, 5, 6):
            denoms = EXCL.denominators(L)
            G, g = oracles.truncated_gram(denoms, 2_000_000)
            ref = oracles.coordinate_descent_d2(G, g)
            got = distance(L, EXCL, store=shared_store).d2
            assert abs(got - ref) < 1e-6

    def test_residue_class_oracle_reproduces_frozen_rows(self):
        # D2_EXCL[100] takes about a second more; 10 and 50 tie the literals
        # to the function that froze them.
        for L in (10, 50):
            assert abs(oracles.residue_class_gram_d2(L) - oracles.D2_EXCL[L]) < 1e-13

    def test_degenerate_empty_basis(self):
        report = distance(1, SQFREE)
        assert report.degenerate
        assert report.d2 == 1.0
        assert math.isnan(report.cond_estimate)

    def test_a_est_definition(self, shared_store):
        r = distance(40, EXCL, store=shared_store)
        assert r.a_est == pytest.approx(r.d2 * math.log(40), abs=0)

    def test_csv_row_shape(self, shared_store, main_cli):
        r = distance(3, EXCL, store=shared_store)
        parts = main_cli("distance", "--L", "3").stdout.splitlines()[1].split(",")
        assert len(parts) == 7
        assert parts[0] == "3"
        assert parts[1] == "exclude-one"
        assert parts[6] == "ls"
        assert float(parts[2]) == r.d2

    def test_json_dict_keys(self, main_cli):
        [d] = json.loads(main_cli("distance", "--L", "3", "--format", "json").stdout)
        for key in ("L", "basis", "d2", "a_est", "cond", "ridge", "method"):
            assert key in d


class TestSweep:
    def test_requires_ascending(self):
        with pytest.raises(DomainError):
            distance_sweep([10, 5])

    def test_monotone_and_bounded(self, shared_store):
        # least squares reads 1 - cumsum(z^2): non-increasing bit for bit
        rows = distance_sweep(list(range(2, 101)), EXCL, store=shared_store)
        d2 = [r.d2 for r in rows]
        assert all(0.0 <= v <= 1.0 for v in d2)
        for prev, cur in zip(d2, d2[1:]):
            assert cur <= prev

    def test_squarefree_dominates_full(self, shared_store):
        full = distance_sweep(list(range(2, 101)), EXCL, store=shared_store)
        sq = distance_sweep(list(range(2, 101)), SQFREE, store=shared_store)
        for a, b in zip(full, sq):
            assert b.d2 >= a.d2 - 1e-12

    def test_truncated_store_borders_with_exactly_one(self):
        # A truncated store holds 1 - 1/(N+1) at (0, 0); the bordered block
        # takes the constant's norm as exactly 1, as LS's 1 - |z|^2 does, so
        # the two methods agree (a corner of 1 - 1/51 moves det by 0.0196).
        LS, DET = SolveMethod.LEAST_SQUARES, SolveMethod.GRAM_DET_RATIO
        store = GramStore(n_trunc=50)
        rows = distance_sweep(range(2, 21), EXCL, (LS, DET), store)
        assert abs(store.values[0, 0] - 50.0 / 51.0) < 1e-15
        assert gram_system(20, EXCL, store)[1][0, 0] == 1.0
        for det, ls in zip(rows[::2], rows[1::2]):
            assert (det.method, ls.method, det.L) == (DET, LS, ls.L)
            assert abs(det.d2 - ls.d2) <= 1e-12, det.L


class TestSolverInternals:
    def test_ridge_ladder_on_singular_matrix(self):
        ones = np.ones((2, 2))
        R, ridge = _factor_with_ridge(ones)
        cond = _ice_cond(R)[-1]
        assert ridge > 0.0
        assert math.isfinite(cond)

    def test_conditioning_error_after_ladder(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ConditioningError):
            _factor_with_ridge(indefinite)

    def test_spd_matrix_unchanged(self):
        spd = np.array([[2.0, 0.5], [0.5, 1.0]])
        R, ridge = _factor_with_ridge(spd)
        cond = _ice_cond(R)[-1]
        assert ridge == 0.0
        assert 1.0 <= cond <= np.linalg.cond(spd) * (1.0 + 1e-12)

    def test_forward_pass_exact_on_small_triangle(self):
        # R^T z = g with z = (1, -1, 1/2): every step is exact in binary.
        R = np.array([[2.0, 1.0, 4.0], [0.0, 1.0, 2.0], [0.0, 0.0, 4.0]])
        assert _forward(R, np.array([2.0, 0.0, 4.0])).tolist() == [1.0, -1.0, 0.5]

    def test_forward_pass_matches_lapack_solve(self, shared_store):
        # LAPACK's trtrs through scipy as the oracle, on the factor of the
        # L = 300 exclude-one block. Measured: 2.8e-15 of max |z|.
        _, B = gram_system(300, EXCL, shared_store)
        g = B[0, 1:]
        R, ridge = _factor_with_ridge(B[1:, 1:])
        assert ridge == 0.0 and R.flags.f_contiguous
        ref = solve_triangular(R, g, trans="T", check_finite=False)
        z = _forward(R, g)
        assert np.max(np.abs(z - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_bordered_failure_errors_only_det_rows(self):
        # G = I factors, but B = [[1, 1, .5], [1, 1, 0], [.5, 0, 1]] has
        # determinant -1/4, so the bordered factor fails at every ridge.
        LS, DET = SolveMethod.LEAST_SQUARES, SolveMethod.GRAM_DET_RATIO
        B = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.0], [0.5, 0.0, 1.0]])
        solved, cond = _prefix_solve(B, (LS, DET))
        assert isinstance(solved[DET], ConditioningError)
        d2, ridge = solved[LS]
        assert (d2.tolist(), ridge, cond) == ([0.0, -0.25], 0.0, [1.0, 1.0])
        # The same system as a store: keys 0..3, denominators 2 and 3.
        store = GramStore()
        store.values = np.array([
            [1.0, 0.0, 1.0, 0.5],
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 1.0, 0.0],
            [0.5, 0.0, 0.0, 1.0],
        ])
        rows = distance_sweep([2, 3], EXCL, (LS, DET), store)
        assert [(r.L, r.method) for r in rows] == [(2, DET), (2, LS), (3, DET), (3, LS)]
        for r in rows:
            if r.method is DET:
                assert r.error and math.isnan(r.d2) and r.cond_estimate == math.inf
            else:
                assert r.error is None and r.ridge_used == 0.0 and r.cond_estimate == 1.0

    def test_one_factor_of_g_per_sweep(self, shared_store, monkeypatch):
        calls = []
        original = criterion.cho_factor

        def counting(*args, **kwargs):
            calls.append(args[0].shape[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(criterion, "cho_factor", counting)
        distance_sweep(range(2, 61), EXCL, tuple(SolveMethod), shared_store)
        assert calls == [59, 60]  # G, then the bordered matrix
        calls.clear()
        distance_sweep(range(2, 61), EXCL, (SolveMethod.LEAST_SQUARES,), shared_store)
        assert calls == [59]

    @pytest.mark.parametrize("basis", [EXCL, SQFREE], ids=lambda b: b.value)
    def test_both_methods_match_single_method_sweeps(self, shared_store, basis):
        def fields(r):
            return (r.L, r.method, repr(r.d2), repr(r.cond_estimate), r.ridge_used,
                    r.degenerate, r.error)

        cutoffs = range(1, 201)
        both = distance_sweep(cutoffs, basis, tuple(SolveMethod), shared_store)
        single = [distance_sweep(cutoffs, basis, (m,), shared_store) for m in SolveMethod]
        expected = sorted((fields(r) for rows in single for r in rows),
                          key=lambda f: (f[0], f[1].value))
        assert [fields(r) for r in both] == expected


class TestCondEstimate:
    def test_independent_of_memory_layout(self, shared_store):
        # LAPACK pocon's estimate moved in its last digit with where its work
        # arrays landed. Allocations between the calls move the estimate's own
        # arrays, and copies of R at shifted offsets move the columns it reads.
        _, B = gram_system(300, EXCL, shared_store)
        R, _ = _factor_with_ridge(B[1:, 1:])
        n = R.shape[0]
        junk, values = [], set()
        for i in range(64):
            junk.append(np.empty(3 * n + i % 8))
            buffer = np.empty(n * n + 8)
            shifted = buffer[i % 8 : i % 8 + n * n].reshape((n, n), order="F")
            shifted[...] = R
            values.add(np.array(_ice_cond(R)).tobytes())
            values.add(np.array(_ice_cond(shifted)).tobytes())
        assert len(values) == 1

    @pytest.mark.parametrize("basis", [EXCL, SQFREE], ids=lambda b: b.value)
    def test_within_a_factor_four_of_exact(self, shared_store, basis):
        # A lower estimate by construction; never below a quarter of the
        # exact value on these bases (0.319 at the worst prefix).
        _, B = gram_system(300, basis, shared_store)
        G = B[1:, 1:]
        R, _ = _factor_with_ridge(G)
        for k, cond in enumerate(_ice_cond(R), start=1):
            eig = np.linalg.eigvalsh(G[:k, :k])
            exact = eig[-1] / eig[0]
            assert exact / 4.0 <= cond <= exact * (1.0 + 1e-12), (k, cond, exact)

    def test_matches_eigh_steps(self, shared_store):
        # The same recurrence with each 2 x 2 step by LAPACK's eigensolver.
        _, B = gram_system(300, EXCL, shared_store)
        R, _ = _factor_with_ridge(B[1:, 1:])
        for k, (cond, ref) in enumerate(zip(_ice_cond(R), oracles.ice_cond_eigh(R)), 1):
            assert abs(cond / ref - 1.0) <= 1e-12, k

    def test_identity_is_one(self):
        assert _ice_cond(np.eye(5)) == [1.0] * 5

    def test_zero_diagonal_is_infinite(self):
        assert _ice_cond(np.array([[1.0, 1.0], [0.0, 0.0]])) == [1.0, math.inf]
        assert _ice_cond(np.array([[0.0, 1.0], [0.0, 1.0]])) == [math.inf] * 2


class TestMoebiusResidual:
    def test_trivial_cutoff(self):
        assert moebius_residual([1], [0.0]) == [1.0]

    def test_golden_cutoff_two(self):
        (got,) = moebius_residual([2], [0.0])
        assert abs(got - oracles.MOEBIUS_RESIDUAL_L2) < 1e-10

    def test_dominates_distance(self, shared_store):
        cutoffs, smoothings = (2, 10, 50), (0.0, 0.1, 0.5)
        residuals = iter(moebius_residual(cutoffs, smoothings, shared_store))
        for L in cutoffs:
            d2 = distance(L, EXCL, store=shared_store).d2
            for eps in smoothings:
                assert next(residuals) >= d2 - 1e-10

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            moebius_residual([0], [0.0])
        with pytest.raises(DomainError):
            moebius_residual([5], [-0.1])
        for eps in (math.nan, math.inf):
            with pytest.raises(DomainError):
                moebius_residual([10], [eps])

    def test_truncated_matches_direct_expansion(self, mu):
        # Over a truncated store the expansion runs over truncated entries: it
        # must differ from the closed form and equal the same expansion over
        # raw truncated sums (oracles.truncated_gram; <1, 1> stays exactly 1).
        n_trunc, L, eps = 20, 5, 0.3
        (got,) = moebius_residual([L], [eps], GramStore(n_trunc))
        (closed,) = moebius_residual([L], [eps])
        denoms = SQFREE.denominators(L)
        G, g = oracles.truncated_gram(denoms, n_trunc)
        c = np.array([mu[l] * l ** (-eps) for l in denoms])
        assert abs(got - (1.0 + 2.0 * float(c @ g) + float(c @ G @ c))) < 1e-13
        assert abs(got - closed) > 1e-3

    def test_rows_match_fresh_per_row_values(self):
        # One slice at the largest cutoff against a store of its own per
        # (L, eps), to assert_rows_close's bound: the leading-block bits may
        # depend on the BLAS.
        cutoffs, smoothings = range(1, 61), (0.0, 0.1, 0.5)
        rows = iter(moebius_residual(cutoffs, smoothings, GramStore()))
        for L in cutoffs:
            for eps in smoothings:
                (fresh,) = moebius_residual([L], [eps], GramStore())
                assert abs(next(rows) - fresh) <= 1e-12, (L, eps)
        assert next(rows, None) is None

    @given(st.integers(min_value=2, max_value=60))
    @settings(max_examples=25, deadline=None)
    def test_residual_in_unit_interval_property(self, L):
        # squared residual of an explicit combination: nonnegative, and never
        # worse than the empty combination once the cutoff passes 1
        (res,) = moebius_residual([L], [0.3])
        assert 0.0 <= res <= 1.0 + 1e-12


class TestRateConstant:
    def test_value(self):
        assert abs(asymptotic_rate_constant() - oracles.ASYMPTOTIC_RATE) < 1e-13

    def test_self_contained_route(self):
        # Bit for bit: the constant is gamma itself, not -digamma(1.0).
        assert asymptotic_rate_constant() == 2.0 + oracles.EULER_GAMMA - math.log(4.0 * math.pi)


class TestGramSystem:
    def test_shapes_and_symmetry(self, shared_store):
        denoms, B = gram_system(8, EXCL, shared_store)
        assert denoms == tuple(range(2, 9))
        assert B.shape == (8, 8)
        assert np.array_equal(B, B.T)

    def test_constant_side_entries(self, shared_store):
        _, B = gram_system(3, EXCL, shared_store)
        # <constant, seq(2)> = ln2 / 2
        assert abs(B[0, 1] - oracles.LN2 / 2.0) < 1e-12

    def test_matches_oracle_entries(self, shared_store):
        denoms, B = gram_system(6, EXCL, shared_store)
        G, g = B[1:, 1:], B[0, 1:]
        Go, go = oracles.truncated_gram(denoms, 2_000_000)
        tol = 1.0 / 2_000_001 + 1e-10
        assert np.max(np.abs(G - Go)) < tol
        assert np.max(np.abs(g - go)) < tol
