import math

import pytest

from premip import (NumericContext, PresolveOptions, presolve,
                    shifted_geomean)
from premip.cli import EXIT_ERROR, main
from premip.logs import MessageLog
from premip.report import build_report, parse_log, render_report
from premip.numerics import NEG_INF

from conftest import make_problem

CTX = NumericContext.float64()


class TestShiftedGeomean:
    def test_all_ones(self):
        assert shifted_geomean([1, 1, 1], 1) == pytest.approx(1.0)

    def test_single_zero(self):
        assert shifted_geomean([0], 1) == pytest.approx(0.0)

    def test_three_eight(self):
        # sqrt(4 * 9) - 1 = 5
        assert shifted_geomean([3, 8], 1) == pytest.approx(5.0)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            shifted_geomean([], 1)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            shifted_geomean([-1], 1)


def two_singleton_instance():
    """An equation with two continuous singletons: the second singleton
    substitution conflicts with the first (a self conflict)."""
    return make_problem(
        CTX,
        [(0, 1, 0, True), (0, 5, 1, False), (0, 5, 1, False)],
        [({0: 1, 1: 1, 2: 1}, 2, 2)])


def run_with_log(problem, path, options=None):
    with open(path, "w") as fh:
        log = MessageLog(4, fh)
        result = presolve(problem, options, log)
    return result


class TestReportOnCraftedConflicts:
    def test_exactly_one_colsingleton_self_conflict(self, tmp_path):
        path = str(tmp_path / "run.log")
        run_with_log(two_singleton_instance(), path)
        summary = parse_log(path)
        report = build_report([summary])
        pair = ("colsingleton", "colsingleton")
        assert summary.conflicts[pair] == 1
        assert report.conflicting_calls[pair] == 1
        assert report.common_calls[pair] >= 1
        ledger = {row.pair: row for row in report.ledger}
        assert ledger[pair].conflicts == 1
        assert ledger[pair].total_transactions >= 2

    def test_bad_byte_names_its_line(self, tmp_path):
        path = tmp_path / "run.log"
        path.write_bytes(b"round 1 tier fast\ntxn p index 0 \xff\n")
        with pytest.raises(ValueError,
                           match=f"{path}:2: not UTF-8 text at byte 0xff"):
            parse_log(str(path))

    def test_short_txn_line_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "run.log"
        path.write_text("round 1 tier fast\ntxn propagation index 0\n")
        with pytest.raises(ValueError,
                           match=f"{path}:2: txn line has 4 fields"):
            parse_log(str(path))
        assert main(["report", str(path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: txn line has 4 fields")

    def test_invariants(self, tmp_path):
        path = str(tmp_path / "run.log")
        run_with_log(two_singleton_instance(), path)
        report = build_report([parse_log(path)])
        for pair, c in report.conflicting_calls.items():
            assert c <= report.common_calls.get(pair, 0)
        for row in report.ledger:
            assert 0 <= row.redundant_share <= 1
            assert row.conflicts <= row.total_transactions

    def test_render_shape(self, tmp_path):
        path = str(tmp_path / "run.log")
        run_with_log(two_singleton_instance(), path)
        text = render_report(build_report([parse_log(path)]))
        assert "# fast presolvers: conflicting/common calls" in text
        assert "# conflict pair ledger" in text
        assert "colsingleton-colsingleton" in text

    def test_multiple_logs_aggregate(self, tmp_path):
        paths = []
        for k in range(3):
            path = str(tmp_path / f"run{k}.log")
            run_with_log(two_singleton_instance(), path)
            paths.append(path)
        summaries = [parse_log(p) for p in paths]
        report = build_report(summaries)
        pair = ("colsingleton", "colsingleton")
        assert report.conflicting_calls[pair] == 3
        ledger = {row.pair: row for row in report.ledger}
        assert ledger[pair].conflicts == 3
        # identical runs: the averaged rate equals any single run's c/t
        per_run = summaries[0].conflicts[pair] / summaries[0].found[
            "colsingleton"]
        assert per_run > 0
        assert ledger[pair].mean_conflict_rate == pytest.approx(per_run)


class TestVerbosityMonotonicity:
    def test_lower_level_is_filtered_subset(self, tmp_path):
        p = two_singleton_instance()
        outputs = {}
        for level in (1, 2, 3, 4):
            path = str(tmp_path / f"v{level}.log")
            with open(path, "w") as fh:
                presolve(p, None, MessageLog(level, fh))
            outputs[level] = open(path).read().splitlines()
        for level in (1, 2, 3):
            low = outputs[level]
            high = iter(outputs[level + 1])
            for line in low:
                for cand in high:
                    if cand == line:
                        break
                else:
                    pytest.fail(
                        f"level-{level} line {line!r} missing at level "
                        f"{level + 1}")
