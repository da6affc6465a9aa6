import math
import os
import subprocess
import sys

import pytest

from premip.cli import main

KNAP_MPS = """NAME knap
ROWS
 N  COST
 L  C1
COLUMNS
    MARKER1 'MARKER' 'INTORG'
    X1 COST -2 C1 7
    X2 COST -1 C1 8
    MARKER2 'MARKER' 'INTEND'
RHS
    RHS C1 13
BOUNDS
 UP BND X1 1
 UP BND X2 1
ENDATA
"""

INFEASIBLE_MPS = """NAME bad
ROWS
 N OBJ
 G R1
COLUMNS
 X OBJ 1 R1 1
RHS
 RHS R1 5
BOUNDS
 UP BND X 2
ENDATA
"""

UNBOUNDED_MPS = """NAME unb
ROWS
 N OBJ
COLUMNS
 X OBJ -1
RHS
BOUNDS
 MI BND X
ENDATA
"""


@pytest.fixture
def knap(tmp_path):
    path = tmp_path / "knap.mps"
    path.write_text(KNAP_MPS)
    return path


def parse_stats(text):
    out = {}
    for line in text.strip().splitlines():
        k, v = line.split("=", 1)
        out[k] = v
    return out


class TestPresolveCommand:
    def test_end_to_end(self, knap, tmp_path, capsys):
        reduced = tmp_path / "r.mps"
        record = tmp_path / "r.post"
        code = main(["presolve", str(knap), "-r", str(reduced),
                     "-v", str(record)])
        assert code == 0
        assert reduced.exists() and record.exists()
        stats = parse_stats(capsys.readouterr().out)
        assert stats["verdict"] == "reduced"
        assert stats["rows.after"] == "1"
        assert stats["cols.after"] == "2"
        found = int(stats["transactions.found"])
        assert found == (int(stats["transactions.applied"])
                         + int(stats["transactions.discarded"])
                         + int(stats["transactions.canceled"]))
        assert int(stats["presolver.coefftightening.applied"]) >= 1
        text = reduced.read_text()
        assert "X1" in text and "X2" in text

    def test_infeasible_exit_code(self, tmp_path):
        path = tmp_path / "bad.mps"
        path.write_text(INFEASIBLE_MPS)
        assert main(["presolve", str(path)]) == 2

    def test_unbounded_exit_code(self, tmp_path):
        path = tmp_path / "unb.mps"
        path.write_text(UNBOUNDED_MPS)
        assert main(["presolve", str(path)]) == 3

    def test_missing_file_is_error(self, tmp_path):
        assert main(["presolve", str(tmp_path / "nope.mps")]) == 1

    def test_stats_file_and_log(self, knap, tmp_path):
        stats = tmp_path / "stats.txt"
        logf = tmp_path / "run.log"
        code = main(["presolve", str(knap), "-r", str(tmp_path / "r.mps"),
                     "-v", str(tmp_path / "r.post"), "--stats", str(stats),
                     "--log", str(logf), "--verbosity", "4"])
        assert code == 0
        assert "verdict=reduced" in stats.read_text()
        assert "txn" in logf.read_text()

    def test_rational_mode(self, knap, tmp_path, capsys):
        code = main(["presolve", str(knap), "--rational",
                     "-r", str(tmp_path / "r.mps"),
                     "-v", str(tmp_path / "r.post")])
        assert code == 0

    def test_disable_everything_is_unchanged_shape(self, knap, tmp_path,
                                                   capsys):
        args = ["presolve", str(knap), "-r", str(tmp_path / "r.mps"),
                "-v", str(tmp_path / "r.post")]
        for name in ("coefftightening", "propagation", "colsingleton"):
            args += ["--disable", name]
        code = main(args)
        assert code == 0
        stats = parse_stats(capsys.readouterr().out)
        assert stats["rows.after"] == "1"
        # without coefficient tightening the knapsack row stays as is
        assert "7" in (tmp_path / "r.mps").read_text()


class TestPostsolveCommand:
    def test_pipeline(self, knap, tmp_path, capsys):
        reduced = tmp_path / "r.mps"
        record = tmp_path / "r.post"
        assert main(["presolve", str(knap), "-r", str(reduced),
                     "-v", str(record)]) == 0
        capsys.readouterr()
        sol = tmp_path / "reduced.sol"
        sol.write_text("=obj= -2\nX1 1\nX2 0\n")
        out = tmp_path / "original.sol"
        code = main(["postsolve", "--record", str(record),
                     "--solution", str(sol), "-o", str(out),
                     "--problem", str(knap)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "=obj= -2.0"
        values = dict(l.split() for l in lines[1:])
        assert values == {"X1": "1.0", "X2": "0.0"}

    def test_infeasible_reduced_solution_caught_by_cross_check(
            self, knap, tmp_path, capsys):
        reduced = tmp_path / "r.mps"
        record = tmp_path / "r.post"
        main(["presolve", str(knap), "-r", str(reduced), "-v", str(record)])
        capsys.readouterr()
        sol = tmp_path / "reduced.sol"
        sol.write_text("X1 1\nX2 1\n")  # violates x1 + x2 <= 1
        code = main(["postsolve", "--record", str(record),
                     "--solution", str(sol),
                     "-o", str(tmp_path / "o.sol"), "--problem", str(knap)])
        assert code == 1


class TestReportCommand:
    def test_apply_immediately_log_has_zero_discards(self, tmp_path, capsys):
        # y + z = 1 with x + 3y + 3z <= 4: the batched mode may discard a
        # stale transaction, the immediate mode must not
        src = tmp_path / "interplay.mps"
        src.write_text(
            "NAME t\nROWS\n N OBJ\n E EQ\n L INEQ\nCOLUMNS\n"
            "    M 'MARKER' 'INTORG'\n"
            " X OBJ -1 INEQ 1\n Y OBJ -1 EQ 1\n Y INEQ 3\n"
            " Z OBJ -1 EQ 1\n Z INEQ 3\n"
            "    M 'MARKER' 'INTEND'\n"
            "RHS\n RHS EQ 1 INEQ 4\nBOUNDS\n"
            " UP BND X 1\n UP BND Y 1\n UP BND Z 1\nENDATA\n")
        logf = tmp_path / "imm.log"
        code = main(["presolve", str(src), "-r", str(tmp_path / "r.mps"),
                     "-v", str(tmp_path / "r.post"), "--threads", "1",
                     "--apply-immediately", "--log", str(logf),
                     "--verbosity", "4", "--stats",
                     str(tmp_path / "s.txt")])
        assert code == 0
        stats = parse_stats((tmp_path / "s.txt").read_text())
        assert stats["transactions.discarded"] == "0"
        assert "status DISCARDED" not in logf.read_text()

    def test_report_over_logs(self, tmp_path, capsys):
        src = tmp_path / "two.mps"
        src.write_text(
            "NAME t\nROWS\n N OBJ\n E R1\nCOLUMNS\n"
            " B R1 1\n Y OBJ 1 R1 1\n Z OBJ 1 R1 1\n"
            "RHS\n RHS R1 2\nBOUNDS\n UP BND B 1\n"
            " UP BND Y 5\n UP BND Z 5\nENDATA\n")
        logf = tmp_path / "run.log"
        main(["presolve", str(src), "-r", str(tmp_path / "r.mps"),
              "-v", str(tmp_path / "r.post"), "--log", str(logf),
              "--verbosity", "4"])
        capsys.readouterr()
        code = main(["report", str(logf)])
        assert code == 0
        text = capsys.readouterr().out
        assert "conflict pair ledger" in text
        assert "transactions.shifted_geomean=" in text


class TestParameterPrecedence:
    def test_flags_beat_env_beat_file(self, knap, tmp_path, monkeypatch,
                                      capsys):
        params = tmp_path / "premip.cfg"
        params.write_text("presolve.threads = 2\nmessage.verbosity = 0\n")
        monkeypatch.setenv("PREMIP_PRESOLVE_THREADS", "4")
        from premip.options import PresolveOptions, read_param_file
        opts = PresolveOptions.from_sources(
            {"presolve.threads": "8"}, None, read_param_file(str(params)))
        assert opts.threads == 8        # flag wins
        assert opts.verbosity == 0      # file value survives
        opts2 = PresolveOptions.from_sources(
            {}, None, read_param_file(str(params)))
        assert opts2.threads == 4       # env beats file

    def test_bad_byte_in_parameter_file_names_its_line(self, tmp_path,
                                                       capsys, knap):
        from premip.options import read_param_file
        params = tmp_path / "premip.cfg"
        params.write_bytes(b"# threads\npresolve.threads = 2\xa0\n")
        with pytest.raises(ValueError,
                           match=f"{params}:2: not UTF-8 text at byte 0xa0"):
            read_param_file(str(params))
        code = main(["presolve", str(knap), "-r", str(tmp_path / "r.mps"),
                     "--params", str(params)])
        assert code != 0
        assert f"{params}:2: not UTF-8" in capsys.readouterr().err

    def test_set_parameter_flag(self, knap, tmp_path, capsys):
        code = main(["presolve", str(knap), "-r", str(tmp_path / "r.mps"),
                     "-v", str(tmp_path / "r.post"),
                     "--set", "presolve.abortfac=0.5",
                     "--set", "presolve.colsingleton.enabled=false"])
        assert code == 0

    def test_unknown_parameter_rejected(self, knap, tmp_path):
        code = main(["presolve", str(knap), "--set", "nope.nope=1"])
        assert code == 1


class TestRejectedOptions:
    """A negative thread count or round limit, an abort factor outside
    [0, 1] and an unknown presolver name fail with an error that names the
    key, through the API and the command line."""

    def test_negative_threads_api(self):
        from premip import PresolveOptions, presolve
        from premip.options import usable_cpus
        with pytest.raises(ValueError, match="presolve.threads"):
            PresolveOptions().set_param("presolve.threads", "-4")
        with pytest.raises(ValueError, match="presolve.threads"):
            PresolveOptions.from_sources({}, {"PREMIP_PRESOLVE_THREADS": "-1"})
        with pytest.raises(ValueError, match="presolve.threads"):
            presolve(_knap_problem(), PresolveOptions(threads=-4))
        assert PresolveOptions(threads=0).resolved_threads() == usable_cpus()
        if hasattr(os, "sched_getaffinity"):
            assert usable_cpus() == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("key, attr, raw, value", [
        ("presolve.abortfac", "abortfac", "-1", -1.0),
        ("presolve.abortfac", "abortfac", "nan", math.nan),
        ("presolve.abortfac", "abortfac", "1.5", 1.5),
        ("presolve.maxrounds", "max_rounds", "-3", -3),
    ])
    def test_out_of_range_api(self, key, attr, raw, value):
        from premip import PresolveOptions, presolve
        with pytest.raises(ValueError, match=key):
            PresolveOptions().set_param(key, raw)
        with pytest.raises(ValueError, match=key):
            presolve(_knap_problem(), PresolveOptions(**{attr: value}))

    def test_range_ends_accepted(self):
        from premip import PresolveOptions, presolve
        opts = PresolveOptions()
        for key, raw in (("presolve.abortfac", "0"),
                         ("presolve.abortfac", "1"),
                         ("presolve.maxrounds", "0")):
            opts.set_param(key, raw)
        assert (opts.abortfac, opts.max_rounds) == (1.0, 0)
        presolve(_knap_problem(), opts)

    def test_unknown_presolver_api(self):
        from premip import PresolveOptions, presolve
        for raw in ("false", "true"):
            with pytest.raises(KeyError, match="presolve.probin.enabled"):
                PresolveOptions().set_param("presolve.probin.enabled", raw)
        with pytest.raises(KeyError, match="presolve.probin.enabled"):
            presolve(_knap_problem(), PresolveOptions(disabled={"probin"}))
        opts = PresolveOptions()
        opts.set_param("presolve.probing.enabled", "false")
        assert not opts.is_enabled("probing")

    @pytest.mark.parametrize("argv, key", [
        (["--threads", "-4"], "presolve.threads"),
        (["--set", "presolve.threads=-4"], "presolve.threads"),
        (["--set", "presolve.probin.enabled=false"],
         "presolve.probin.enabled"),
        (["--abortfac", "-1"], "presolve.abortfac"),
        (["--set", "presolve.abortfac=nan"], "presolve.abortfac"),
        (["--set", "presolve.maxrounds=-3"], "presolve.maxrounds"),
    ])
    def test_cli(self, knap, tmp_path, capsys, argv, key):
        reduced = tmp_path / "r.mps"
        code = main(["presolve", str(knap), "-r", str(reduced),
                     "-v", str(tmp_path / "r.post")] + argv)
        assert code == 1
        assert key in capsys.readouterr().err
        assert not reduced.exists()


def _knap_problem():
    """KNAP_MPS as a Problem."""
    from premip import NumericContext, Problem
    from premip.numerics import NEG_INF
    p = Problem(NumericContext.float64())
    p.add_col(0, 1, -2, True, name="X1")
    p.add_col(0, 1, -1, True, name="X2")
    p.add_row({0: 7, 1: 8}, NEG_INF, 13)
    return p


class TestConsoleScript:
    def test_installed_entry_point(self, knap, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "premip.cli", "presolve", str(knap),
             "-r", str(tmp_path / "r.mps"), "-v", str(tmp_path / "r.post")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "verdict=reduced" in proc.stdout
