import random

import pytest

from premip import (NumericContext, presolve, postsolve_primal, read_record,
                    write_record)
from premip.cli import main
from premip.records import MAGIC, RecordFormatError
from premip.postsolve import replay

from conftest import make_problem, random_mixed_mip, to_rational
from premip.numerics import NEG_INF


def records_equal(a, b):
    return (a.original_nrows == b.original_nrows
            and a.original_ncols == b.original_ncols
            and a.objective == b.objective
            and a.objective_offset == b.objective_offset
            and a.col_names == b.col_names
            and a.row_names == b.row_names
            and a.mode == b.mode
            and repr(a.entries) == repr(b.entries))


def record_with_everything():
    """A presolve run whose record touches many entry kinds."""
    ctx = NumericContext.float64()
    p = make_problem(
        ctx,
        [(0, 1, -2, True), (0, 1, -1, True),     # knapsack columns
         (0, 4, 1, False), (0, 10, 2, False),    # singleton equation pair
         (0, 1, -1, True), (0, 1, -1, True)],    # identical parallel cols
        [({0: 7, 1: 8}, NEG_INF, 13),
         ({2: 1, 3: 2}, 6, 6),
         ({4: 1, 5: 1}, NEG_INF, 2)])
    return presolve(p).record


class TestSerialization:
    @pytest.mark.parametrize("text", [False, True])
    def test_round_trip(self, tmp_path, text):
        record = record_with_everything()
        assert record.entries
        path = str(tmp_path / "r.post")
        write_record(record, path, text=text)
        back = read_record(path)
        assert records_equal(record, back)

    @pytest.mark.parametrize("text", [False, True])
    def test_rational_round_trip(self, tmp_path, text):
        p = to_rational(random_mixed_mip(random.Random(3)))
        record = presolve(p).record
        path = str(tmp_path / "r.post")
        write_record(record, path, text=text)
        back = read_record(path)
        assert records_equal(record, back)

    def test_binary_magic_detected(self, tmp_path):
        record = record_with_everything()
        path = str(tmp_path / "r.post")
        write_record(record, path)
        assert open(path, "rb").read(4) == MAGIC

    def test_unsupported_version_rejected(self, tmp_path):
        import struct
        path = str(tmp_path / "r.post")
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<q", 99))
        with pytest.raises(RecordFormatError):
            read_record(path)

    def test_garbage_rejected(self, tmp_path):
        path = str(tmp_path / "r.post")
        open(path, "w").write("definitely not a record\n")
        with pytest.raises(RecordFormatError):
            read_record(path)

    def test_deserialized_record_still_postsolves_and_replays(self, tmp_path):
        ctx = NumericContext.float64()
        p = make_problem(ctx, [(0, 1, -2, True), (0, 1, -1, True)],
                         [({0: 7, 1: 8}, NEG_INF, 13)])
        res = presolve(p)
        path = str(tmp_path / "r.post")
        write_record(res.record, path)
        back = read_record(path)
        sol = postsolve_primal(back, {0: 1, 1: 0})
        assert sol.values == [1, 0] and sol.objective == -2
        assert replay(back, p).stable_hash() == res.problem.stable_hash()


def _record(rational: bool):
    if rational:
        return presolve(to_rational(random_mixed_mip(random.Random(3)))).record
    return record_with_everything()


class TestTruncatedRecord:
    @pytest.mark.parametrize("rational", [False, True])
    def test_binary_cut_anywhere_names_byte_offset(self, tmp_path, rational):
        record = _record(rational)
        assert record.mode == ("rational" if rational else "float64")
        full = str(tmp_path / "full.post")
        write_record(record, full)
        data = open(full, "rb").read()
        cut = str(tmp_path / "cut.post")
        for n in range(len(MAGIC), len(data)):
            open(cut, "wb").write(data[:n])
            with pytest.raises(RecordFormatError,
                               match=r"truncated at byte \d+") as info:
                read_record(cut)
            offset = int(str(info.value).split("byte ")[1].split(":")[0])
            assert offset <= n

    @pytest.mark.parametrize("rational", [False, True])
    def test_text_cut_line_names_line_number(self, tmp_path, rational):
        record = _record(rational)
        full = str(tmp_path / "full.post")
        write_record(record, full, text=True)
        lines = open(full).read().splitlines()
        cut = str(tmp_path / "cut.post")
        checked = 0
        for lineno, line in enumerate(lines, 1):
            tokens = line.split()
            for keep in range(1, len(tokens)):
                cut_line = " ".join(tokens[:keep])
                open(cut, "w").write(
                    "\n".join(lines[:lineno - 1] + [cut_line]) + "\n")
                with pytest.raises(RecordFormatError, match=f":{lineno}: "):
                    read_record(cut)
                checked += 1
        assert checked > len(lines)

    def test_unknown_tag_and_trailing_fields_located(self, tmp_path):
        full = str(tmp_path / "full.post")
        write_record(record_with_everything(), full, text=True)
        lines = open(full).read().splitlines()
        for bad in ("entry 99 0", lines[-1] + " 7"):
            path = str(tmp_path / "bad.post")
            open(path, "w").write("\n".join(lines + [bad]) + "\n")
            with pytest.raises(RecordFormatError,
                               match=f":{len(lines) + 1}: "):
                read_record(path)

    @pytest.mark.parametrize("text", [False, True])
    def test_cli_postsolve_reports_error(self, tmp_path, capsys, text):
        full = str(tmp_path / "full.post")
        write_record(record_with_everything(), full, text=text)
        cut = tmp_path / "cut.post"
        if text:
            lines = open(full).read().splitlines()
            last = lines[-1].rsplit(" ", 1)[0]  # drop the last field
            cut.write_text("\n".join(lines[:-1] + [last]) + "\n")
            where = f"{cut}:{len(lines)}: "
        else:
            cut.write_bytes(open(full, "rb").read()[:-3])
            where = "truncated at byte "
        sol = tmp_path / "reduced.sol"
        sol.write_text("=obj= 0\n")
        code = main(["postsolve", "--record", str(cut),
                     "--solution", str(sol), "-o", str(tmp_path / "o.sol")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err
