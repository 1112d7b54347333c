import ast
import gc
import glob
import importlib.util
import json
import math
import os
import resource
import runpy
import struct
import subprocess
import sys

import numpy as np
import pytest

from nblab import cli, criterion
from nblab.criterion import (
    BasisKind,
    DistanceReport,
    GramStore,
    SolveMethod,
    distance_sweep,
)
from nblab.errors import CacheError

import oracles
from conftest import child_env


# A row whose factor failed at every ridge: no distance, no condition number.
FAILED_ROW = DistanceReport(
    L=7,
    basis=BasisKind.EXCLUDE_ONE,
    d2=math.nan,
    method=SolveMethod.LEAST_SQUARES,
    cond_estimate=math.inf,
    ridge_used=0.0,
    a_est=math.nan,
    error="factorization failed at every ridge level",
)


def strict_json(text):
    """json.loads that refuses NaN and Infinity: RFC 8259 JSON has no literal
    for them, so a strict parser (JavaScript's JSON.parse) rejects them."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def script_path(name):
    return os.path.join(os.path.dirname(__file__), os.pardir, "scripts", f"{name}.py")


def run_cli(*args, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "nblab.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=child_env(),
    )


class TestUsage:
    def test_help_exits_zero(self, main_cli):
        r = main_cli("--help")
        assert r.returncode == 0
        for sub in ("distance", "residual", "verify", "gram"):
            assert sub in r.stdout

    def test_subcommand_help(self, main_cli):
        r = main_cli("distance", "--help")
        assert r.returncode == 0
        assert "--basis" in r.stdout

    def test_no_command_is_usage_error(self, main_cli):
        assert main_cli().returncode == 64

    def test_bad_flag_value(self, main_cli):
        assert main_cli("distance", "--L", "0").returncode == 64
        assert main_cli("distance", "--L", "abc").returncode == 64
        assert main_cli("distance", "--method", "magic").returncode == 64
        assert main_cli("distance", "--basis", "bogus").returncode == 64

    def test_all_basis_is_gone_from_distance(self, main_cli):
        # No basis holds the zero sequence l = 1, so `all` is no basis.
        r = main_cli("distance", "--basis", "all")
        assert r.returncode == 64
        assert r.stdout == ""
        assert r.stderr.startswith("usage: nblab distance")
        assert "argument --basis: invalid choice: 'all'" in r.stderr

    def test_unknown_suite(self, main_cli):
        assert main_cli("verify", "bogus").returncode == 64

    @pytest.mark.parametrize("command", ["distance", "residual", "gram"])
    @pytest.mark.parametrize("N", ["0", "-5"])
    def test_N_must_be_positive(self, command, N, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--L", "5", "--N", N])
        assert exc.value.code == 64
        assert "argument --N: invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gram", "--method", "both"],
        ["gram", "--tol", "1e-30"],
        ["gram", "--format", "json"],
        ["residual", "--basis", "exclude-one"],
        ["residual", "--method", "det"],
        ["residual", "--tol", "1e-30"],
        pytest.param(["distance", "--method", "ls", "--tol", "1e-9"], id="distance-ls-tol"),
        pytest.param(["distance", "--method", "det", "--tol", "1e-9"], id="distance-det-tol"),
        pytest.param(["distance", "--tol", "1e-9"], id="distance-tol"),
    ], ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:2]))
    def test_ignored_solver_flags_are_usage_errors(self, argv, capsys):
        # Subcommands that have no use for a flag do not accept it; `distance`
        # checks the LS/det gap against --tol only with --method both.
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--L", "5"])
        assert exc.value.code == 64
        err = capsys.readouterr().err
        if argv[0] == "distance":
            assert "argument --tol: not allowed with --method" in err
        else:
            assert "unrecognized arguments" in err


class TestDistanceCommand:
    def test_header_and_golden_row(self, main_cli):
        r = main_cli("distance", "--L", "2", "--threads", "1")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines[0] == "L,basis,d2,a_est,cond,ridge,method"
        fields = lines[1].split(",")
        assert fields[0] == "2"
        assert fields[1] == "exclude-one"
        assert abs(float(fields[2]) - oracles.D2_L2) < 1e-10
        assert fields[6] == "ls"

    def test_range_and_list_syntax(self, main_cli):
        r = main_cli("distance", "--L", "2..5,8", "--threads", "1")
        got = [line.split(",")[0] for line in r.stdout.splitlines()[1:]]
        assert got == ["2", "3", "4", "5", "8"]

    def test_both_methods_two_rows_per_cutoff(self, main_cli):
        r = main_cli("distance", "--L", "3,6", "--method", "both", "--threads", "1")
        rows = [line.split(",") for line in r.stdout.splitlines()[1:]]
        assert [(x[0], x[6]) for x in rows] == [
            ("3", "det"),
            ("3", "ls"),
            ("6", "det"),
            ("6", "ls"),
        ]

    @pytest.mark.parametrize("method, factors", [("ls", [29]), ("det", [29, 30]),
                                                 ("both", [29, 30])])
    def test_one_sweep_and_one_factor_of_g_per_run(self, method, factors, monkeypatch, capsys):
        sweeps, factored = [], []
        sweep, cho_factor = cli.distance_sweep, criterion.cho_factor

        def counting_sweep(*args, **kwargs):
            sweeps.append(args)
            return sweep(*args, **kwargs)

        def counting_factor(M, **kwargs):
            factored.append(M.shape[0])
            return cho_factor(M, **kwargs)

        monkeypatch.setattr(cli, "distance_sweep", counting_sweep)
        monkeypatch.setattr(criterion, "cho_factor", counting_factor)
        assert cli.main(["distance", "--L", "2..30", "--method", method]) == 0
        assert len(sweeps) == 1
        assert factored == factors  # G (29 columns), then the bordered matrix

    def test_byte_identical_across_runs_and_threads(self):
        a = run_cli("distance", "--L", "2..20", "--threads", "1")
        b = run_cli("distance", "--L", "2..20", "--threads", "1")
        c = run_cli("distance", "--L", "2..20", "--threads", "4")
        assert a.stdout == b.stdout == c.stdout
        assert a.returncode == 0

    def test_json_format(self, main_cli):
        r = main_cli("distance", "--L", "4", "--format", "json", "--threads", "1")
        payload = json.loads(r.stdout)
        assert isinstance(payload, list) and len(payload) == 1
        row = payload[0]
        assert row["L"] == 4
        assert 0.0 <= row["d2"] <= 1.0
        assert row["method"] == "ls"
        assert sorted(row) == ["L", "a_est", "basis", "cond", "d2", "degenerate", "error",
                               "method", "ridge"]

    def test_truncated_entries_via_N(self, main_cli):
        r = main_cli("distance", "--L", "2", "--N", "100000", "--threads", "1")
        assert r.returncode == 0
        d2 = float(r.stdout.splitlines()[1].split(",")[2])
        assert abs(d2 - oracles.D2_L2) < 1.0 / 100_001 + 1e-10

    def test_tol_cross_method_gate(self, main_cli):
        ok = main_cli(
            "distance", "--L", "10", "--method", "both",
            "--tol", "1e-8", "--threads", "1",
        )
        assert ok.returncode == 0
        bad = main_cli(
            "distance", "--L", "10", "--method", "both",
            "--tol", "1e-18", "--threads", "1",
        )
        assert bad.returncode == 1
        assert "disagreement" in bad.stderr

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tol_must_be_finite_and_nonnegative(self, tol, capsys):
        # nan would never fire the gate, and a negative gap bound is no bound.
        with pytest.raises(SystemExit) as exc:
            cli.main(["distance", "--L", "2..5", "--method", "both", "--tol", tol])
        assert exc.value.code == 64
        assert "argument --tol: invalid" in capsys.readouterr().err

    def test_degraded_solve_exits_two(self, monkeypatch, capsys):
        degraded = DistanceReport(
            L=5,
            basis=BasisKind.EXCLUDE_ONE,
            d2=0.1,
            method=SolveMethod.LEAST_SQUARES,
            cond_estimate=1e15,
            ridge_used=1e-12,
            a_est=0.1 * math.log(5),
        )
        monkeypatch.setattr(cli, "distance_sweep", lambda *a, **k: [degraded])
        code = cli.main(["distance", "--L", "5", "--threads", "1"])
        assert code == 2
        out = capsys.readouterr().out
        assert ",1e-12," in out

    def test_solver_error_row_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "distance_sweep", lambda *a, **k: [FAILED_ROW])
        code = cli.main(["distance", "--L", "7", "--threads", "1"])
        assert code == 1
        assert "factorization" in capsys.readouterr().err

    def test_bare_memory_error_says_out_of_memory(self, monkeypatch, capsys):
        # Python's own allocator raises MemoryError with no message.
        def out_of_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "distance_sweep", out_of_memory)
        assert cli.main(["distance", "--L", "7", "--threads", "1"]) == 1
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_every_field_round_trips(self, monkeypatch, main_cli):
        # Each CSV field is the repr of its report field (the text of a name),
        # and each JSON value its field, for a solved, a degenerate and an
        # error row. The JSON is strict: a field that is not finite (the
        # degenerate row's cond, the error row's d2, a_est and cond) is null.
        rows = [*distance_sweep([1, 3]), FAILED_ROW]
        assert [(r.degenerate, bool(r.error)) for r in rows] == [
            (True, False), (False, False), (False, True)]
        monkeypatch.setattr(cli, "distance_sweep", lambda *a, **k: rows)

        table = main_cli("distance", "--L", "7").stdout.splitlines()
        assert table[0] == cli.DISTANCE_HEADER
        for line, r in zip(table[1:], rows, strict=True):
            assert line.split(",") == [
                repr(r.L), r.basis.value, repr(r.d2), repr(r.a_est), repr(r.cond_estimate),
                repr(r.ridge_used), "degenerate" if r.degenerate else r.method.value]

        def value(x):
            return repr(x if math.isfinite(x) else None)

        payload = strict_json(main_cli("distance", "--L", "7", "--format", "json").stdout)
        for d, r in zip(payload, rows, strict=True):
            assert {key: repr(v) for key, v in d.items()} == {
                "L": repr(r.L), "basis": repr(r.basis.value), "d2": value(r.d2),
                "a_est": value(r.a_est), "cond": value(r.cond_estimate),
                "ridge": repr(r.ridge_used), "method": repr(r.method.value),
                "degenerate": repr(r.degenerate), "error": repr(r.error)}

    @pytest.mark.parametrize("command", ["distance", "residual", "gram"])
    def test_store_too_large_to_allocate_exits_one(self, command, main_cli):
        # A store of side 1e8 + 1 needs 71 PiB, which numpy refuses at once.
        r = main_cli(command, "--L", "100000000")
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["distance", "--L", "1073741823"],
        ["distance", "--L", "2..10000000000"],
        ["residual", "--L", "10000000000"],
        ["gram", "--L", "10000000000"],
        ["distance", "--L", "10000000000000000000"],
    ], ids=["side-2^30", "distance-range-1e10", "residual-1e10", "gram-1e10", "distance-1e19"])
    def test_store_numpy_cannot_shape_exits_one(self, argv, main_cli):
        # From side 2^30 numpy refuses the shape itself with a ValueError
        # ("array is too big", at 10^19 "Maximum allowed dimension
        # exceeded"); the store raises it as a MemoryError.
        r = main_cli(*argv)
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr.startswith("error: cannot allocate a store of side ")
        assert r.stderr.count("\n") == 1

    def test_sweep_script_store_numpy_cannot_shape_exits_one(self, monkeypatch, capsys):
        path = script_path("distance_sweep")
        monkeypatch.setattr(sys, "argv", [path, "--l-max", "10000000000",
                                          "--l-step", "10000000000"])
        try:
            with pytest.raises(SystemExit) as exc:
                runpy.run_path(path, run_name="__main__")
        finally:
            gc.unfreeze()
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot allocate a store of side ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["-m", "nblab.cli", "distance", "--L", "2..100000000"],
        ["-m", "nblab.cli", "residual", "--L", "2..100000000"],
        [script_path("distance_sweep"), "--l-max", "100000000", "--l-step", "1"],
    ], ids=["distance", "residual", "distance_sweep"])
    def test_range_too_long_to_list_exits_one(self, argv):
        # Under a 2 GiB address-space cap, listing 10^8 cutoffs would run out
        # of memory before any work; the store's allocation must fail first.
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        r = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                           timeout=600, env=child_env(), preexec_fn=cap)
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr.startswith("error: Unable to allocate") and r.stderr.count("\n") == 1

    def test_overlapping_tokens_give_each_cutoff_once(self, main_cli):
        r = main_cli("distance", "--L", "8,2..5,4..6,10,9")
        assert [line.split(",")[0] for line in r.stdout.splitlines()[1:]] == [
            "2", "3", "4", "5", "6", "8", "9", "10"]

    def test_sweep_ridge_reported_by_every_row_exits_two(self, tmp_path, capsys):
        # Entries truncated at N = 20 make the L = 40 block need a ridge; it
        # is chosen once for the sweep, so every row reports it.
        excl = BasisKind.EXCLUDE_ONE
        rows = distance_sweep(range(2, 41), excl, store=GramStore(n_trunc=20))
        assert all(r.ridge_used > 0.0 and math.isfinite(r.d2) for r in rows)
        code = cli.main(["distance", "--L", "2..40", "--N", "20",
                         "--cache", str(tmp_path / "n20.nbbg")])
        assert code == 2
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 40 and all(float(line.split(",")[5]) > 0.0 for line in out[1:])

    def test_indefinite_store_gives_error_rows_exits_one(self, tmp_path, capsys):
        # G over denominators 2, 3, 4 is [[1, 2, 0], [2, 1, 0], [0, 0, 1]]:
        # indefinite, so no rung of the ridge ladder factors it.
        store = GramStore()
        store.values = np.array([
            [1.0, 0.0, 0.1, 0.1, 0.1],
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [0.1, 0.0, 1.0, 2.0, 0.0],
            [0.1, 0.0, 2.0, 1.0, 0.0],
            [0.1, 0.0, 0.0, 0.0, 1.0],
        ])
        for method in SolveMethod:
            rows = distance_sweep([2, 3, 4], BasisKind.EXCLUDE_ONE, (method,), store)
            assert all(r.error and math.isnan(r.d2) for r in rows)
        cache = tmp_path / "indefinite.nbbg"
        store.save(cache)
        code = cli.main(["distance", "--L", "2..4", "--method", "both", "--cache", str(cache)])
        assert code == 1
        assert capsys.readouterr().err.count("factorization failed") == 6


class TestResidualCommand:
    def test_golden_value(self, main_cli):
        r = main_cli("residual", "--L", "2", "--eps", "0", "--threads", "1")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines[0] == "L,eps,residual"
        l, eps, value = lines[1].split(",")
        assert (l, eps) == ("2", "0.0")
        assert abs(float(value) - oracles.MOEBIUS_RESIDUAL_L2) < 1e-10

    def test_eps_grid(self, main_cli):
        r = main_cli("residual", "--L", "5,10", "--eps", "0,0.1", "--threads", "1")
        rows = r.stdout.splitlines()[1:]
        assert len(rows) == 4

    def test_fills_and_slices_once(self, main_cli, monkeypatch):
        # Every row reads a leading block of one slice at the largest cutoff.
        calls = {"grow": 0, "gram_system": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(GramStore, "grow", counted("grow", GramStore.grow))
        monkeypatch.setattr(criterion, "gram_system", counted("gram_system", criterion.gram_system))
        r = main_cli("residual", "--L", "2..40", "--eps", "0,0.1")
        assert r.returncode == 0
        assert len(r.stdout.splitlines()) == 1 + 39 * 2
        assert calls == {"grow": 1, "gram_system": 1}

    def test_truncated_N_is_used(self, tmp_path, main_cli):
        from nblab.criterion import moebius_residual

        cache = tmp_path / "t.nbbg"
        r = main_cli("residual", "--L", "5", "--N", "20", "--cache", str(cache))
        closed = main_cli("residual", "--L", "5")
        assert r.returncode == 0 and closed.returncode == 0
        assert r.stdout != closed.stdout
        (want,) = moebius_residual([5], [0.0], GramStore(20))
        assert r.stdout.splitlines()[1] == f"5,0.0,{want!r}"
        assert GramStore.load(cache).n_trunc == 20

    def test_closed_cache_with_N_exits_65(self, tmp_path, main_cli):
        cache = tmp_path / "c.nbbg"
        assert main_cli("residual", "--L", "5", "--cache", str(cache)).returncode == 0
        r = main_cli("residual", "--L", "5", "--N", "20", "--cache", str(cache))
        assert r.returncode == 65
        assert r.stdout == ""
        assert "N=20" in r.stderr


class TestVerifyCommand:
    def test_moebius_suite_json(self, main_cli):
        r = main_cli("verify", "moebius")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert all(item["pass"] for item in payload)
        assert all("max_residual" in item and "budget" in item for item in payload)

    def test_failing_suite_exits_one(self, monkeypatch, capsys):
        import nblab.analytic as analytic

        real = analytic.run_suite("moebius")
        import dataclasses

        broken = [dataclasses.replace(real[0], passed=False)] + real[1:]
        monkeypatch.setattr(analytic, "run_suite", lambda name: broken)
        assert cli.main(["verify", "moebius"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["pass"] is False

    def test_nan_residual_prints_null(self, monkeypatch, main_cli):
        # A NaN residual fails its check and prints as JSON null.
        from nblab import analytic

        transform = analytic.combined_kernel_transform
        poisoned = analytic.MELLIN_GRID.points[5]
        monkeypatch.setattr(analytic, "combined_kernel_transform",
                            lambda lam, s: math.nan if s == poisoned else transform(lam, s))
        r = main_cli("verify", "mellin")
        assert r.returncode == 1
        payload = strict_json(r.stdout)
        assert [(d["max_residual"], d["pass"]) for d in payload] == [(None, False)] * 4


class TestGramCommand:
    def test_fill_report_and_idempotence(self, tmp_path, main_cli):
        cache = tmp_path / "g.nbbg"
        first = main_cli("gram", "--L", "10", "--cache", str(cache), "--threads", "1")
        assert first.returncode == 0
        # every pair of the keys 0..10, the constant sequence's included
        assert "66 newly computed entries, 66 total" in first.stderr
        again = main_cli("gram", "--L", "10", "--cache", str(cache), "--threads", "1")
        assert "0 newly computed entries, 66 total" in again.stderr

    def test_export_csv(self, tmp_path, main_cli):
        cache = tmp_path / "g.nbbg"
        r = main_cli(
            "gram", "--L", "10", "--cache", str(cache),
            "--export", "csv", "--threads", "1",
        )
        lines = r.stdout.splitlines()
        assert lines[0] == "l,m,value,error_bound,method"
        assert len(lines) == 46
        assert all(line.endswith(",closed") for line in lines[1:])

    def test_export_csv_ignores_the_rest_of_the_cache(self, tmp_path, main_cli):
        # The export lists the basis pairs up to L, however far the cache goes.
        cache = tmp_path / "g.nbbg"
        assert main_cli("gram", "--L", "40", "--cache", str(cache)).returncode == 0
        cached = main_cli("gram", "--L", "10", "--cache", str(cache), "--export", "csv")
        bare = main_cli("gram", "--L", "10", "--export", "csv")
        assert cached.returncode == 0 and bare.returncode == 0
        assert cached.stdout == bare.stdout

    def test_export_all_lists_every_key_from_one(self, main_cli):
        # `gram --basis all` exports the keys 1..L, key 1's zero rows too, each
        # entry the single-pair closed form.
        from nblab.seqspace import inner_product_closed

        r = main_cli("gram", "--L", "5", "--basis", "all", "--export", "csv")
        assert r.returncode == 0
        want = ["l,m,value,error_bound,method"] + [
            f"{i},{j},{inner_product_closed(i, j)!r},0.0,closed"
            for i in range(1, 6) for j in range(i, 6)]
        assert r.stdout == "\n".join(want) + "\n"
        assert [line for line in want if line.startswith("1,")] == [
            f"1,{j},0.0,0.0,closed" for j in range(1, 6)]

    def test_export_square_free_starts_at_two(self, main_cli):
        r = main_cli("gram", "--L", "5", "--basis", "square-free", "--export", "csv")
        assert r.returncode == 0
        pairs = [tuple(map(int, line.split(",")[:2])) for line in r.stdout.splitlines()[1:]]
        assert pairs == [(2, 2), (2, 3), (2, 5), (3, 3), (3, 5), (5, 5)]

    def test_corrupt_cache_exits_65(self, tmp_path, main_cli):
        cache = tmp_path / "g.nbbg"
        cache.write_bytes(b"NOPE" + bytes(40))
        r = main_cli("gram", "--L", "5", "--cache", str(cache))
        assert r.returncode == 65
        assert "cache" in r.stderr.lower()

    @pytest.mark.parametrize("where, verb", [("a-directory", "read"), ("under-a-file", "write")])
    def test_unusable_cache_path_exits_65(self, where, verb, tmp_path, main_cli, monkeypatch):
        # A directory cannot be read as a cache, and a path under a regular
        # file cannot be written: one `cache error:` line naming the path,
        # no traceback, and no entry computed first.
        def no_sweep(*args):
            pytest.fail("the sweep ran before the cache path was checked")

        monkeypatch.setattr(cli, "distance_sweep", no_sweep)
        cache = tmp_path
        if where == "under-a-file":
            (tmp_path / "f").write_bytes(b"")
            cache = tmp_path / "f" / "c.nbbg"
        r = main_cli("distance", "--L", "3", "--cache", str(cache))
        assert r.returncode == 65
        assert r.stdout == ""
        assert r.stderr.startswith(f"cache error: cannot {verb} cache file {cache}: ")
        assert r.stderr.count("\n") == 1

    def test_wrong_version_exits_65(self, tmp_path, main_cli):
        cache = tmp_path / "g.nbbg"
        ok = main_cli("gram", "--L", "5", "--cache", str(cache), "--threads", "1")
        assert ok.returncode == 0
        raw = bytearray(cache.read_bytes())
        raw[4:8] = struct.pack("<I", 42)
        import zlib

        body = bytes(raw[:-4])
        cache.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        r = main_cli("gram", "--L", "5", "--cache", str(cache))
        assert r.returncode == 65

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_version_one_cache_exits_65(self, tmp_path, version, main_cli):
        # Format 1 held entries from the earlier residue-class formula, which
        # differ from today's in the last bits. Format 2 cannot tell
        # closed-form entries from truncated ones. Format 3 held a partial
        # store in 33-byte records. Format 4 held entries from digamma period
        # tables, which differ from the cotangent ones in the last bits.
        # Format 5 held entries computed through the gamma and log p terms
        # that cancel out of today's formula, again off in the last bits. All
        # are refused, not mixed.
        cache = tmp_path / "g.nbbg"
        ok = main_cli("gram", "--L", "5", "--cache", str(cache), "--threads", "1")
        assert ok.returncode == 0
        raw = bytearray(cache.read_bytes())
        assert struct.unpack_from("<I", raw, 4) == (6,)
        raw[4:8] = struct.pack("<I", version)
        import zlib

        body = bytes(raw[:-4])
        cache.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        r = main_cli("distance", "--L", "2..5", "--cache", str(cache))
        assert r.returncode == 65
        assert f"format version {version}" in r.stderr

    @pytest.mark.parametrize(
        "first, second",
        [(("--N", "20"), ()), ((), ("--N", "20"))],
        ids=["truncated-then-closed", "closed-then-truncated"],
    )
    def test_truncation_mismatch_exits_65(self, tmp_path, first, second, main_cli):
        # A cache filled with truncated entries never serves a closed-form
        # run, and the reverse.
        cache = tmp_path / "c.nbbg"
        ok = main_cli("distance", "--L", "10", "--cache", str(cache), *first)
        assert ok.returncode == 0
        r = main_cli("distance", "--L", "10", "--cache", str(cache), *second)
        assert r.returncode == 65
        assert r.stdout == ""
        assert "N=20" in r.stderr

    def test_unchanged_cache_not_rewritten(self, tmp_path, main_cli):
        cache = tmp_path / "c.nbbg"
        for argv in (("distance", "--L", "2..8"), ("residual", "--L", "2..8"),
                     ("gram", "--L", "8")):
            assert main_cli(*argv, "--cache", str(cache)).returncode == 0
            before = os.stat(cache)
            assert main_cli(*argv, "--cache", str(cache)).returncode == 0
            after = os.stat(cache)
            assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_distance_reuses_cache(self, tmp_path, main_cli):
        cache = tmp_path / "g.nbbg"
        fill = main_cli("gram", "--L", "12", "--cache", str(cache), "--threads", "1")
        assert fill.returncode == 0
        r = main_cli("distance", "--L", "2..20", "--cache", str(cache), "--threads", "1")
        assert r.returncode == 0
        bare = main_cli("distance", "--L", "2..20", "--threads", "1")
        assert r.stdout == bare.stdout
        again = main_cli("distance", "--L", "2..20", "--cache", str(cache), "--threads", "1")
        assert again.stdout == bare.stdout


class TestExitPath:
    """The way out of a whole run: `python -m nblab.cli` through
    `console_entry`, and each script's `__main__` block, each one call to
    `errors.exit_with`, which freezes the collector before raising SystemExit."""

    @pytest.fixture
    def regular_file(self, tmp_path):
        path = tmp_path / "file"
        path.write_text("")
        return path

    @pytest.mark.parametrize("argv, code", [
        (["distance", "--L", "2..30", "--method", "both"], 0),
        (["distance", "--L", "2..40", "--method", "both", "--N", "20"], 2),
        (["distance", "--basis", "all"], 64),
        (["distance", "--cache", "{file}/c.nbbg"], 65),
    ])
    def test_console_entry_keeps_code_and_streams(self, argv, code, regular_file,
                                                  main_cli, monkeypatch):
        # A child on a pipe wraps usage text at 80 columns; so does this process.
        monkeypatch.setenv("COLUMNS", "80")
        argv = [a.format(file=regular_file) for a in argv]
        want = main_cli(*argv)
        got = run_cli(*argv)
        assert want.returncode == code
        assert (got.returncode, got.stdout, got.stderr) == (code, want.stdout, want.stderr)

    @pytest.mark.parametrize("name, argv, code", [
        ("verify_all", [], 0),
        ("hline_convergence", ["--cutoffs", "10"], 0),
        ("distance_sweep", ["--l-max", "20"], 0),
        ("distance_sweep", ["--l-max", "20", "--cache", "{file}/c.nbbg"], 65),
    ])
    def test_script_main_block_raises_system_exit(self, name, argv, code, regular_file,
                                                  monkeypatch, capsys):
        # As perfbench/trace_job.py runs a script: in process, through runpy.
        path = script_path(name)
        monkeypatch.setattr(sys, "argv", [path, *(a.format(file=regular_file) for a in argv)])
        try:
            with pytest.raises(SystemExit) as exc:
                runpy.run_path(path, run_name="__main__")
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert exc.value.code == code
        out, err = capsys.readouterr()
        assert bool(out) == (code == 0)
        assert err.startswith("cache error: ") == (code == 65)


class TestOpenStore:
    @staticmethod
    def opened(path, n_trunc=None):
        with criterion.open_store(path, n_trunc) as store:
            return store

    def test_cache_of_the_other_kind_is_refused(self, tmp_path):
        # The one place where a cache file meets --N: a store holds entries
        # of one kind, closed-form or truncated at one N.
        truncated, closed = tmp_path / "t.nbbg", tmp_path / "c.nbbg"
        criterion.assemble_gram(4, GramStore(20)).save(truncated)
        criterion.assemble_gram(4).save(closed)
        for path, n_trunc, held, asked in (
            (truncated, None, "entries truncated at N=20", "closed-form entries"),
            (truncated, 21, "entries truncated at N=20", "entries truncated at N=21"),
            (closed, 20, "closed-form entries", "entries truncated at N=20"),
        ):
            with pytest.raises(CacheError) as exc:
                self.opened(path, n_trunc)
            assert str(exc.value) == f"store holds {held}, asked for {asked}"
        assert (self.opened(truncated, 20).n_trunc, self.opened(closed).top) == (20, 4)
        assert self.opened(tmp_path / "missing.nbbg", 7).n_trunc == 7

    @pytest.mark.parametrize("held", [False, True], ids=["missing", "held"])
    def test_a_body_that_raises_writes_nothing(self, held, tmp_path):
        path = tmp_path / "sub" / "c.nbbg"
        if held:
            path.parent.mkdir()
            criterion.assemble_gram(3).save(path)
        before = path.read_bytes() if held else None
        with pytest.raises(RuntimeError):
            with criterion.open_store(path) as store:
                criterion.assemble_gram(6, store)
                raise RuntimeError("the sweep failed")
        assert (path.read_bytes() if path.exists() else None) == before

    def test_an_unchanged_store_is_not_rewritten(self, tmp_path, monkeypatch):
        path = tmp_path / "c.nbbg"
        criterion.assemble_gram(6).save(path)
        saved = []
        monkeypatch.setattr(GramStore, "save", lambda store, p: saved.append(p))
        with criterion.open_store(path) as store:
            criterion.assemble_gram(6, store)
        assert saved == []
        with criterion.open_store(path) as store:
            criterion.assemble_gram(7, store)
        assert saved == [path]


class TestDistanceSweepScript:
    def test_unchanged_cache_not_rewritten(self, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "s.nbbg"
        sweep = load_script("distance_sweep")
        monkeypatch.setattr(sys, "argv", ["distance_sweep.py", "--l-max", "20",
                                          "--cache", str(cache)])
        assert sweep.main() == 0
        first = capsys.readouterr().out
        before = os.stat(cache)
        assert sweep.main() == 0
        assert capsys.readouterr().out == first
        after = os.stat(cache)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    @pytest.mark.parametrize("damage", ["other-kind", "truncated"])
    def test_unusable_cache_exits_65_like_distance(self, damage, tmp_path, main_cli,
                                                   monkeypatch, capsys):
        # A cache of truncated entries, or its first 100 bytes: one
        # `cache error:` line, the one `nblab distance` prints, no traceback.
        cache = tmp_path / "n20.nbbg"
        assert main_cli("gram", "--L", "10", "--N", "20", "--cache", str(cache)).returncode == 0
        if damage == "truncated":
            cache.write_bytes(cache.read_bytes()[:100])
        want = main_cli("distance", "--L", "2..20", "--cache", str(cache))
        assert want.returncode == 65
        sweep = load_script("distance_sweep")
        monkeypatch.setattr(sys, "argv", ["distance_sweep.py", "--l-max", "20",
                                          "--cache", str(cache)])
        assert sweep.main() == 65
        out, err = capsys.readouterr()
        assert out == ""
        assert err == want.stderr
        assert err.startswith("cache error: ") and err.count("\n") == 1

    def test_all_basis_is_refused(self, monkeypatch, capsys):
        sweep = load_script("distance_sweep")
        monkeypatch.setattr(sys, "argv", ["distance_sweep.py", "--basis", "all"])
        with pytest.raises(SystemExit) as exc:
            sweep.main()
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --basis: invalid choice: 'all'" in err

    def test_step_past_the_maximum_lists_only_two(self, monkeypatch, capsys):
        # range(10, 6, 10) is empty: the store is filled to L = 2, and the
        # table holds the L = 2 row alone.
        sweep = load_script("distance_sweep")
        monkeypatch.setattr(sys, "argv", ["distance_sweep.py", "--l-max", "5", "--l-step", "10"])
        assert sweep.main() == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "L,d2,rate,rate_minus_limit,cond"
        assert [row.split(",")[0] for row in rows[1:]] == ["2"]

    @pytest.mark.parametrize("argv", [["--l-max", "1"], ["--l-step", "0"], ["--l-step", "-3"]])
    def test_bad_range_exits_2(self, argv, monkeypatch, capsys):
        sweep = load_script("distance_sweep")
        monkeypatch.setattr(sys, "argv", ["distance_sweep.py", *argv])
        with pytest.raises(SystemExit) as exc:
            sweep.main()
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def load_script(name):
    path = script_path(name)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestVerifyAllScript:
    def test_one_row_per_report_of_every_suite(self, monkeypatch, capsys):
        from nblab import analytic

        reports = {}
        for name, suite in list(analytic.SUITES.items()):
            def recorded(name=name, suite=suite):
                reports[name] = suite()
                return reports[name]
            monkeypatch.setitem(analytic.SUITES, name, recorded)
        verify_all = load_script("verify_all")
        assert verify_all.main() == 0
        out, err = capsys.readouterr()
        rows = json.loads(out)
        assert sorted(reports) == sorted(analytic.SUITES)
        assert [row["suite"] for row in rows] == [
            name for name in sorted(reports) for _ in reports[name]]
        want = [r.to_json_dict() | {"suite": name} for name in sorted(reports) for r in reports[name]]
        assert rows == json.loads(json.dumps(want))
        assert err == f"{len(rows)} checks, 0 failing\n"


class TestHlineScript:
    def test_rows_match_frozen_values(self, capsys):
        hline = load_script("hline_convergence")
        assert hline.run(0.1, (10, 100, 1000)) == 0
        assert capsys.readouterr().out.splitlines() == [
            "L,sup_gap,mean_gap", *(oracles.HLINE_ROWS[L] for L in (10, 100, 1000))]

    def test_benchmark_rows_match_frozen_values(self, capsys):
        # the cutoffs the transform-verify benchmark runs, bit for bit
        cutoffs = (10, 100, 1000, 10_000, 30_000)
        hline = load_script("hline_convergence")
        assert hline.run(0.1, cutoffs) == 0
        assert capsys.readouterr().out.splitlines() == [
            "L,sup_gap,mean_gap", *(oracles.HLINE_ROWS[L] for L in cutoffs)]

    def test_grid_point_on_the_pole_runs(self, monkeypatch, capsys):
        # at eps 0.5 the grid point s = 1/2 puts s + eps on zeta's pole
        hline = load_script("hline_convergence")
        monkeypatch.setattr(sys, "argv", ["hline_convergence.py", "--eps", "0.5", "--cutoffs", "10"])
        assert hline.main() == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == "L,sup_gap,mean_gap"
        assert out.splitlines()[1].startswith("10,")
        assert "101 usable points, 0 skipped" in err

    def test_nan_gap_makes_a_nan_sup(self, monkeypatch, capsys):
        # max() would drop the NaN gap of one grid point.
        hline = load_script("hline_convergence")
        limit = hline.moebius_limit_transform
        poisoned = hline.CRITICAL_LINE_GRID.points[50]
        monkeypatch.setattr(hline, "moebius_limit_transform",
                            lambda eps, s: math.nan if s == poisoned else limit(eps, s))
        assert hline.run(0.1, (10,)) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[:2] == ["10", "nan"]

    def test_small_eps_runs(self, monkeypatch, capsys):
        # 1 + eps within 1e-8 of zeta's pole: the limit's 1/zeta(1 + eps)
        # comes from the deflated form, not through zeta's pole guard
        hline = load_script("hline_convergence")
        monkeypatch.setattr(sys, "argv", ["hline_convergence.py", "--eps", "1e-9", "--cutoffs", "10,100"])
        assert hline.main() == 0
        out, err = capsys.readouterr()
        rows = out.splitlines()
        assert rows[0] == "L,sup_gap,mean_gap"
        assert [row.split(",")[0] for row in rows[1:]] == ["10", "100"]
        assert all(math.isfinite(float(v)) for row in rows[1:] for v in row.split(","))
        assert "101 usable points, 0 skipped" in err

    @pytest.mark.parametrize("cutoff", ["100000000000", "100000000000000000"],
                             ids=["1e11", "1e17"])
    def test_sieve_that_cannot_be_allocated_exits_one(self, cutoff, monkeypatch, capsys):
        # 10^11 asks for 93 GiB and 10^17 for 89 PiB of Moebius values: one
        # `error:` line, and no table header before it.
        path = script_path("hline_convergence")
        monkeypatch.setattr(sys, "argv", [path, "--cutoffs", cutoff])
        try:
            with pytest.raises(SystemExit) as exc:
                runpy.run_path(path, run_name="__main__")
        finally:
            gc.unfreeze()
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--cutoffs", "0,10"],
        ["--cutoffs", "10,x"],
        ["--eps", "0"],
        ["--eps", "-0.5"],
    ])
    def test_bad_arguments_exit_2(self, argv, monkeypatch, capsys):
        hline = load_script("hline_convergence")
        monkeypatch.setattr(sys, "argv", ["hline_convergence.py", *argv])
        with pytest.raises(SystemExit) as exc:
            hline.main()
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


def test_cli_is_a_leaf():
    # `nblab.cli` parses, calls the library and renders: no script or library
    # module imports it, and it imports no private name of another nblab module.
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    paths = glob.glob(os.path.join(root, "scripts", "*.py"))
    paths += glob.glob(os.path.join(root, "src", "nblab", "*.py"))
    importers, private = set(), []
    for path in paths:
        name = os.path.basename(path)
        with open(path) as fh:
            nodes = ast.walk(ast.parse(fh.read(), path))
        for node in nodes:
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ("nblab." if node.level else "") + (node.module or "")
                base = base.rstrip(".")
                modules = [base, *(f"{base}.{alias.name}" for alias in node.names)]
                if name == "cli.py" and base.startswith("nblab"):
                    private += [a.name for a in node.names if a.name.startswith("_")]
            else:
                continue
            if "nblab.cli" in modules and name != "cli.py":
                importers.add(name)
    assert (sorted(importers), private) == ([], [])
