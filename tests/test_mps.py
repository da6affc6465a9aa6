import random

import pytest
from hypothesis import given, settings, strategies as st

from premip import NumericContext, Problem, read_mps, read_sol, write_mps, \
    write_sol
from premip.cli import main
from premip.mps import MpsError
from premip.numerics import INF, NEG_INF, is_finite

from conftest import make_problem, random_medium_mip

CTX = NumericContext.float64()

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


def write_tmp(tmp_path, text, name="m.mps"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --------------------------------------------------------------------------
# an independent (deliberately naive) reader used to cross-check RANGES
# semantics against the MPS conventions


def naive_row_intervals(path):
    """Row name -> (lhs, rhs) computed directly from the standard rules."""
    sense = {}
    rhs = {}
    ranges = {}
    section = None
    obj = None
    with open(path) as fh:
        for raw in fh:
            if raw.startswith("*") or not raw.strip():
                continue
            if not raw[0].isspace():
                section = raw.split()[0]
                continue
            t = raw.split()
            if section == "ROWS":
                if t[0] == "N":
                    obj = obj or t[1]
                else:
                    sense[t[1]] = t[0]
            elif section == "RHS":
                for k in range(1, len(t), 2):
                    if t[k] != obj:
                        rhs[t[k]] = float(t[k + 1])
            elif section == "RANGES":
                for k in range(1, len(t), 2):
                    ranges[t[k]] = float(t[k + 1])
    out = {}
    for name, s in sense.items():
        b = rhs.get(name, 0.0)
        if s == "L":
            lo, hi = NEG_INF, b
        elif s == "G":
            lo, hi = b, INF
        else:
            lo, hi = b, b
        if name in ranges:
            r = ranges[name]
            if s == "L":
                lo = hi - abs(r)
            elif s == "G":
                hi = lo + abs(r)
            else:
                lo, hi = (b, b + r) if r >= 0 else (b + r, b)
        out[name] = (lo, hi)
    return out


class TestReader:
    def test_knapsack_instance(self, tmp_path):
        p = read_mps(write_tmp(tmp_path, KNAP_MPS), CTX)
        assert p.ncols == 2 and p.nrows == 1
        assert p.obj == [-2.0, -1.0]
        assert p.rows[0] == {0: 7.0, 1: 8.0}
        assert p.row_rhs[0] == 13.0 and p.row_lhs[0] == NEG_INF
        assert p.col_integral == [True, True]
        assert p.col_lower == [0.0, 0.0]
        assert p.col_upper == [1.0, 1.0]

    def test_empty_columns_section(self, tmp_path):
        text = "NAME t\nROWS\n N OBJ\n L R1\nCOLUMNS\nRHS\nENDATA\n"
        p = read_mps(write_tmp(tmp_path, text), CTX)
        assert p.nnz == 0 and p.ncols == 0 and p.nrows == 1

    def test_rational_mode_parses_exact(self, tmp_path):
        from fractions import Fraction
        text = ("NAME t\nROWS\n N OBJ\n L R1\nCOLUMNS\n X OBJ 0.1 R1 0.3\n"
                "RHS\n RHS R1 0.7\nENDATA\n")
        p = read_mps(write_tmp(tmp_path, text), NumericContext.rational())
        assert p.obj[0] == Fraction(1, 10)
        assert p.rows[0][0] == Fraction(3, 10)
        assert p.row_rhs[0] == Fraction(7, 10)

    def test_ranges_cross_checked_against_independent_reader(self, tmp_path):
        text = ("NAME t\nROWS\n N OBJ\n L RL\n G RG\n E RE1\n E RE2\n"
                "COLUMNS\n X RL 1 RG 1\n X RE1 1 RE2 1\n"
                "RHS\n R RL 10 RG 2\n R RE1 5 RE2 5\n"
                "RANGES\n RNG RL 4 RG 3\n RNG RE1 2 RE2 -2\nENDATA\n")
        path = write_tmp(tmp_path, text)
        p = read_mps(path, CTX)
        expected = naive_row_intervals(path)
        got = {p.row_names[i]: (p.row_lhs[i], p.row_rhs[i])
               for i in range(p.nrows)}
        assert got == expected
        assert got["RL"] == (6.0, 10.0)
        assert got["RG"] == (2.0, 5.0)
        assert got["RE1"] == (5.0, 7.0)
        assert got["RE2"] == (3.0, 5.0)

    def test_integral_default_bounds(self, tmp_path):
        text = ("NAME t\nROWS\n N OBJ\n L R1\nCOLUMNS\n"
                "    M 'MARKER' 'INTORG'\n X R1 1\n"
                "    M 'MARKER' 'INTEND'\nRHS\nENDATA\n")
        p = read_mps(write_tmp(tmp_path, text), CTX)
        assert p.col_lower[0] == 0 and p.col_upper[0] == INF

    def test_bound_types(self, tmp_path):
        text = ("NAME t\nROWS\n N OBJ\n L R1\nCOLUMNS\n"
                " A R1 1\n B R1 1\n C R1 1\n D R1 1\n"
                "RHS\nBOUNDS\n"
                " LO BND A -2\n UP BND A 4\n"
                " FX BND B 3\n"
                " FR BND C\n"
                " BV BND D\n"
                "ENDATA\n")
        p = read_mps(write_tmp(tmp_path, text), CTX)
        by = {p.col_names[j]: j for j in range(p.ncols)}
        assert (p.col_lower[by["A"]], p.col_upper[by["A"]]) == (-2, 4)
        assert (p.col_lower[by["B"]], p.col_upper[by["B"]]) == (3, 3)
        assert (p.col_lower[by["C"]], p.col_upper[by["C"]]) == (NEG_INF, INF)
        assert p.col_integral[by["D"]] and p.col_upper[by["D"]] == 1

    def test_integer_bound_types(self, tmp_path):
        text = ("NAME t\nROWS\n N OBJ\n L R1\nCOLUMNS\n"
                "    M 'MARKER' 'INTORG'\n A R1 1\n"
                "    M 'MARKER' 'INTEND'\n"
                "RHS\nBOUNDS\n LI BND A -3\n UI BND A 7\nENDATA\n")
        p = read_mps(write_tmp(tmp_path, text), CTX)
        assert p.col_integral[0]
        assert (p.col_lower[0], p.col_upper[0]) == (-3, 7)

    def test_negative_up_without_lo_warns_and_frees_lower(self, tmp_path):
        text = ("NAME t\nROWS\n N OBJ\n L R1\nCOLUMNS\n X R1 1\n"
                "RHS\nBOUNDS\n UP BND X -2\nENDATA\n")
        warnings = []
        p = read_mps(write_tmp(tmp_path, text), CTX, warnings=warnings)
        assert p.col_lower[0] == NEG_INF and p.col_upper[0] == -2
        assert any("negative UP bound" in w for w in warnings)

    def test_objective_offset_round_trips(self, tmp_path):
        text = ("NAME t\nROWS\n N OBJ\n L R1\nCOLUMNS\n X OBJ 2 R1 1\n"
                "RHS\n RHS OBJ -5 R1 3\nENDATA\n")
        p = read_mps(write_tmp(tmp_path, text), CTX)
        assert p.obj_offset == 5.0


class TestReaderErrors:
    def test_duplicate_entry_reports_line(self, tmp_path):
        text = ("NAME t\nROWS\n N OBJ\n L R1\nCOLUMNS\n"
                " X R1 1\n X R1 2\nRHS\nENDATA\n")
        with pytest.raises(MpsError) as err:
            read_mps(write_tmp(tmp_path, text), CTX)
        assert "line 7" in str(err.value)
        assert "duplicate" in str(err.value)

    @pytest.mark.parametrize("first,second", [("0", "5"), ("5", "0")])
    def test_duplicate_entry_with_a_zero_either_order(self, tmp_path, first,
                                                      second):
        text = ("NAME t\nROWS\n N OBJ\n L R1\nCOLUMNS\n"
                f" X R1 {first}\n X R1 {second}\nRHS\nENDATA\n")
        with pytest.raises(MpsError) as err:
            read_mps(write_tmp(tmp_path, text), CTX)
        assert "line 7" in str(err.value)
        assert "duplicate" in str(err.value)

    @pytest.mark.parametrize("lines", [" X OBJ 1\n X OBJ 2\n",
                                       " X OBJ 0\n X OBJ 2\n",
                                       " X R1 1 OBJ 1\n X OBJ 2\n"])
    def test_repeated_objective_entry(self, tmp_path, lines):
        text = ("NAME t\nROWS\n N OBJ\n L R1\nCOLUMNS\n" + lines
                + "RHS\nENDATA\n")
        with pytest.raises(MpsError) as err:
            read_mps(write_tmp(tmp_path, text), CTX)
        assert err.value.line == 7
        assert "duplicate entry for column 'X' in row 'OBJ'" in str(err.value)

    def test_unknown_row_reference(self, tmp_path):
        text = "NAME t\nROWS\n N OBJ\n L R1\nCOLUMNS\n X NOPE 1\nRHS\nENDATA\n"
        with pytest.raises(MpsError) as err:
            read_mps(write_tmp(tmp_path, text), CTX)
        assert "unknown row" in str(err.value)

    def test_malformed_section_line(self, tmp_path):
        text = "NAME t\nROWS\n N OBJ\n L R1 JUNK\nCOLUMNS\nRHS\nENDATA\n"
        with pytest.raises(MpsError) as err:
            read_mps(write_tmp(tmp_path, text), CTX)
        assert "line 4" in str(err.value)

    def test_maximization_rejected(self, tmp_path):
        text = "NAME t\nOBJSENSE\n MAX\nROWS\n N OBJ\nENDATA\n"
        with pytest.raises(MpsError):
            read_mps(write_tmp(tmp_path, text), CTX)

    NAN_MPS = ("NAME t\nROWS\n N OBJ\n L R1\nCOLUMNS\n X OBJ 1 R1 2\n"
               "{columns}RHS\n{rhs}RANGES\n{ranges}BOUNDS\n{bounds}"
               "ENDATA\n")

    @pytest.mark.parametrize("section,line", [
        ("columns", " Y OBJ 1 R1 nan\n"),
        ("columns", " Y OBJ NaN\n"),
        ("rhs", " RHS R1 nan\n"),
        ("ranges", " RNG R1 -nan\n"),
        ("bounds", " UP BND X nan\n")])
    def test_nan_literal_in_any_section(self, tmp_path, section, line):
        parts = dict.fromkeys(("columns", "rhs", "ranges", "bounds"), "")
        parts[section] = line
        text = self.NAN_MPS.format(**parts)
        lineno = text.splitlines().index(line.rstrip("\n")) + 1
        with pytest.raises(MpsError) as err:
            read_mps(write_tmp(tmp_path, text), CTX)
        assert err.value.line == lineno and "NaN" in str(err.value)

    @pytest.mark.parametrize("value", ["inf", "-inf", "1e400", "-Infinity"])
    @pytest.mark.parametrize("row", ["R1", "OBJ"])
    def test_infinite_coefficient_or_objective(self, tmp_path, value, row):
        text = ("NAME t\nROWS\n N OBJ\n L R1\nCOLUMNS\n X R1 1\n"
                f" Y {row} {value}\nRHS\nENDATA\n")
        with pytest.raises(MpsError) as err:
            read_mps(write_tmp(tmp_path, text), CTX)
        assert "line 7" in str(err.value) and "infinite" in str(err.value)

    def test_infinite_sides_and_bounds_still_read(self, tmp_path):
        text = ("NAME t\nROWS\n N OBJ\n L R1\n G R2\nCOLUMNS\n"
                " X R1 1 R2 1\nRHS\n RHS R1 inf R2 -inf\nBOUNDS\n"
                " LO BND X -inf\n UP BND X inf\nENDATA\n")
        p = read_mps(write_tmp(tmp_path, text), CTX)
        assert p.row_rhs[0] == INF and p.row_lhs[1] == NEG_INF
        assert (p.col_lower[0], p.col_upper[0]) == (NEG_INF, INF)

    # ten lines up to the bound
    INF_BOUND_MPS = ("NAME t\nROWS\n N OBJ\n L R1\nCOLUMNS\n X OBJ 1 R1 1\n"
                     "RHS\n RHS R1 4\nBOUNDS\n {bound}\nENDATA\n")

    @pytest.mark.parametrize("rational", [False, True])
    @pytest.mark.parametrize("bound,lower,upper", [
        ("UP BND X inf", 0, INF), ("UP BND X +INF", 0, INF),
        ("UP BND X Infinity", 0, INF), ("LO BND X -inf", NEG_INF, INF),
        ("LO BND X -Infinity", NEG_INF, INF), ("MI BND X", NEG_INF, INF)])
    def test_infinite_literals_in_both_modes(self, tmp_path, rational, bound,
                                             lower, upper):
        ctx = NumericContext.rational() if rational else CTX
        text = self.INF_BOUND_MPS.format(bound=bound)
        p = read_mps(write_tmp(tmp_path, text), ctx)
        assert (p.col_lower[0], p.col_upper[0]) == (lower, upper)
        assert p.row_rhs[0] == 4 and type(p.row_rhs[0]) is type(ctx.number(4))

    def test_rational_infinite_sides_and_bounds(self, tmp_path):
        text = ("NAME t\nROWS\n N OBJ\n L R1\n G R2\nCOLUMNS\n"
                " X R1 1 R2 1\nRHS\n RHS R1 inf R2 -inf\nBOUNDS\n"
                " LO BND X -inf\n UP BND X inf\nENDATA\n")
        p = read_mps(write_tmp(tmp_path, text), NumericContext.rational())
        assert p.row_rhs[0] == INF and p.row_lhs[1] == NEG_INF
        assert (p.col_lower[0], p.col_upper[0]) == (NEG_INF, INF)

    @pytest.mark.parametrize("value,why", [
        ("inf", "infinite"), ("-inf", "infinite"), ("-Infinity", "infinite"),
        ("nan", "NaN"), ("NaN", "NaN"), ("-nan", "NaN")])
    def test_rational_nan_or_infinite_columns_value(self, tmp_path, value,
                                                    why):
        text = ("NAME t\nROWS\n N OBJ\n L R1\nCOLUMNS\n X R1 1\n"
                f" Y R1 {value}\nRHS\nENDATA\n")
        with pytest.raises(MpsError, match="line 7") as err:
            read_mps(write_tmp(tmp_path, text), NumericContext.rational())
        assert why in str(err.value)

    def test_file_cut_before_endata(self, tmp_path):
        p = random_medium_mip(random.Random(4), 20, 15)
        whole = str(tmp_path / "whole.mps")
        write_mps(p, whole)
        lines = open(whole).read().splitlines()
        assert lines[-1] == "ENDATA"
        for keep in (len(lines) - 1, lines.index("RHS"), 3):
            cut = write_tmp(tmp_path, "\n".join(lines[:keep]) + "\n",
                            f"cut{keep}.mps")
            with pytest.raises(MpsError) as err:
                read_mps(cut, CTX)
            assert str(err.value) == f"line {keep}: file ends before ENDATA"

    def test_empty_file(self, tmp_path):
        with pytest.raises(MpsError, match="^file ends before ENDATA$"):
            read_mps(write_tmp(tmp_path, ""), CTX)

    @pytest.mark.parametrize("header", [
        "SOS", "QUADOBJ", "QMATRIX", "QSECTION", "QCMATRIX R1", "CSECTION C1",
        "INDICATORS", "LAZYCONS", "USERCUTS", "GENCONS"])
    def test_unsupported_section(self, tmp_path, header):
        text = ("NAME t\nROWS\n N OBJ\n L R1\nCOLUMNS\n X OBJ 1 R1 2\n"
                f"RHS\n RHS R1 4\nBOUNDS\n{header}\n S1 X 1\nENDATA\n")
        with pytest.raises(MpsError) as err:
            read_mps(write_tmp(tmp_path, text), CTX)
        name = header.split()[0]
        assert str(err.value) == f"line 10: unsupported section {name!r}"

    def test_data_line_under_name(self, tmp_path):
        text = ("NAME t\nFOO BAR\nROWS\n N OBJ\n L R1\nCOLUMNS\n X R1 1\n"
                "RHS\nENDATA\n")
        with pytest.raises(MpsError) as err:
            read_mps(write_tmp(tmp_path, text), CTX)
        assert err.value.line == 2

    def test_free_format_data_in_column_one(self, tmp_path):
        text = ("NAME t\nROWS\nN OBJ\nL R1\nCOLUMNS\nX OBJ -1 R1 2\n"
                "RHS\nRHS R1 4\nBOUNDS\nUP BND X 3\nENDATA\n")
        p = read_mps(write_tmp(tmp_path, text), CTX)
        assert p.rows[0] == {0: 2} and p.obj[0] == -1
        assert (p.row_rhs[0], p.col_upper[0]) == (4, 3)

    @pytest.mark.parametrize("sense", ["MIN", "MAX"])
    def test_objective_sense_on_the_header_line(self, tmp_path, sense):
        text = "NAME t\nOBJSENSE " + sense + "\nROWS\n N OBJ\nENDATA\n"
        path = write_tmp(tmp_path, text)
        if sense == "MIN":
            assert read_mps(path, CTX).ncols == 0
        else:
            with pytest.raises(MpsError, match="^line 2: unsupported "
                                                "objective sense MAX$"):
                read_mps(path, CTX)


def problems_equivalent(a: Problem, b: Problem) -> bool:
    """Equality of the active parts up to row/column order (by name)."""
    if sorted(a.col_names[j] for j in a.active_cols()) != \
            sorted(b.col_names[j] for j in b.active_cols()):
        return False
    amap = {a.col_names[j]: j for j in a.active_cols()}
    bmap = {b.col_names[j]: j for j in b.active_cols()}
    for name in amap:
        ja, jb = amap[name], bmap[name]
        if (a.col_lower[ja], a.col_upper[ja], a.col_integral[ja],
                a.obj[ja]) != (b.col_lower[jb], b.col_upper[jb],
                               b.col_integral[jb], b.obj[jb]):
            return False
    if a.obj_offset != b.obj_offset:
        return False
    arows = {a.row_names[i]: i for i in a.active_rows()}
    brows = {b.row_names[i]: i for i in b.active_rows()}
    if sorted(arows) != sorted(brows):
        return False
    for name in arows:
        ia, ib = arows[name], brows[name]
        if (a.row_lhs[ia], a.row_rhs[ia]) != (b.row_lhs[ib], b.row_rhs[ib]):
            return False
        ea = {a.col_names[j]: v for j, v in a.rows[ia].items()}
        eb = {b.col_names[j]: v for j, v in b.rows[ib].items()}
        if ea != eb:
            return False
    return True


class TestWriterRoundTrip:
    def test_knapsack_problem(self, tmp_path):
        p = read_mps(write_tmp(tmp_path, KNAP_MPS), CTX)
        out = str(tmp_path / "out.mps")
        write_mps(p, out)
        q = read_mps(out, CTX)
        assert problems_equivalent(p, q)

    def test_empty_problem(self, tmp_path):
        p = Problem(CTX)
        out = str(tmp_path / "empty.mps")
        write_mps(p, out)
        q = read_mps(out, CTX)
        assert q.ncols == 0 and q.nrows == 0

    def test_large_random_problem(self, tmp_path):
        p = random_medium_mip(random.Random(9), 300, 1000)
        out = str(tmp_path / "big.mps")
        write_mps(p, out)
        q = read_mps(out, CTX)
        assert problems_equivalent(p, q)
        # canonical writes are byte-stable
        out2 = str(tmp_path / "big2.mps")
        write_mps(q, out2)
        assert open(out).read() == open(out2).read()

    def test_column_split_over_two_blocks(self, tmp_path):
        """A column whose lines are not contiguous reads the same as the
        contiguous file, down to the key order of every row."""
        p = random_medium_mip(random.Random(11), 200, 160)
        whole = str(tmp_path / "whole.mps")
        write_mps(p, whole)
        lines = open(whole).read().splitlines()
        start, end = lines.index("COLUMNS") + 1, lines.index("RHS")
        names = [line.split()[0] for line in lines[start:end]]
        # move the first line of each column that has more than one to the
        # end of the section; columns still appear first in the same order
        kept, moved, seen = [], [], set()
        for line, name in zip(lines[start:end], names):
            if name not in seen and names.count(name) > 1:
                moved.append(line)
            else:
                kept.append(line)
            seen.add(name)
        assert len(moved) > 100
        split = str(tmp_path / "split.mps")
        with open(split, "w") as fh:
            fh.write("\n".join(lines[:start] + kept + moved + lines[end:])
                     + "\n")
        a, b = read_mps(whole, CTX), read_mps(split, CTX)
        assert a.stable_hash() == b.stable_hash()
        for i in range(a.nrows):
            assert a.row_entries(i) == b.row_entries(i)
            # activity sums are accumulated in key order: increasing j
            assert list(a.rows[i]) == list(b.rows[i]) == sorted(b.rows[i])

    def test_rational_round_trip_exact(self, tmp_path):
        from fractions import Fraction
        ctx = NumericContext.rational()
        p = make_problem(ctx, [(Fraction(1, 3), Fraction(7, 3), 1, False)],
                         [({0: Fraction(2, 7)}, NEG_INF, Fraction(5, 9))])
        out = str(tmp_path / "rat.mps")
        write_mps(p, out)
        q = read_mps(out, ctx)
        assert q.col_lower[0] == Fraction(1, 3)
        assert q.rows[0][0] == Fraction(2, 7)
        assert q.row_rhs[0] == Fraction(5, 9)


class TestSolutionFiles:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "x.sol")
        write_sol(path, ["a", "b"], [1.5, 0.0], -2.5, CTX)
        values, obj = read_sol(path, CTX)
        assert values == {"a": 1.5, "b": 0.0}
        assert obj == -2.5

    @pytest.mark.parametrize("rational", [False, True])
    @pytest.mark.parametrize("body,line,what", [
        ("a 1\nb 2x\n", 2, "bad numeric literal '2x'"),
        ("=obj= zz\na 1\n", 1, "bad numeric literal 'zz'"),
        ("a 1\n\nb nan\n", 3, "NaN literal 'nan'"),
        ("a -NaN\n", 1, "NaN literal '-NaN'"),
        ("a 1\nb 2\na 1\n", 3, "second value for column 'a'"),
        ("=obj=\n", 1, "solution line needs <name> <value>")])
    def test_malformed_line_is_located(self, tmp_path, rational, body, line,
                                       what):
        ctx = NumericContext.rational() if rational else CTX
        path = write_tmp(tmp_path, body, "x.sol")
        with pytest.raises(MpsError) as err:
            read_sol(path, ctx)
        assert err.value.line == line and what in str(err.value)

    @pytest.mark.parametrize("rational", [False, True])
    @pytest.mark.parametrize("body", ["X1 1\nX2 0.5.5\n", "X1 nan\n",
                                      "X1 1\nX1 0\n"])
    def test_cli_postsolve_reports_bad_solution(self, tmp_path, capsys,
                                                rational, body):
        knap = write_tmp(tmp_path, KNAP_MPS)
        record = str(tmp_path / "r.post")
        args = ["presolve", knap, "-r", str(tmp_path / "r.mps"),
                "-v", record] + (["--rational"] if rational else [])
        assert main(args) == 0
        capsys.readouterr()
        sol = write_tmp(tmp_path, body, "reduced.sol")
        code = main(["postsolve", "--record", record, "--solution", sol,
                     "-o", str(tmp_path / "o.sol")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line ")


# --------------------------------------------------------------------------
# malformed bytes: located errors, never another exception

# every section, marker and bound type the reader takes, a ranged row and
# exact p/q literals, which float64 mode rejects with a located error
RICH_MPS = b"""NAME rich
OBJSENSE
    MIN
ROWS
 N  COST
 L  C1
 G  C2
 E  C3
COLUMNS
    MARKER1 'MARKER' 'INTORG'
    X1 COST -2 C1 7
    X2 COST -1/3 C1 8
    X2 C3 1
    MARKER2 'MARKER' 'INTEND'
    Y C2 2.5 C3 -1
    Z COST 1 C2 1
RHS
    RHS C1 13 C2 1
    RHS C3 1/2
RANGES
    RNG C1 4 C3 -2
BOUNDS
 UP BND X1 1
 BV BND X2
 MI BND Y
 UP BND Y 3
 LO BND Z -infinity
 PL BND Z
ENDATA
"""
SOLUTION = b"=obj= -1/3\nX1 1\nX2 0\n# a comment\nY 0.5\nZ 2e1\n"

# bytes a mutation writes: any byte, or one that keeps the text MPS-like
_BYTES = st.one_of(st.integers(0, 255),
                   st.sampled_from(list(b" \n\r\t*-+./0123456789eE"
                                        b"infINFNLGEXMUPBVOFR'")))


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """data with one to three bytes flipped, replaced, inserted or
    deleted."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(out) - 1))
        kind = draw(st.sampled_from(["flip", "set", "insert", "delete"]))
        if kind == "flip":
            out[pos] ^= 1 << draw(st.integers(0, 7))
        elif kind == "set":
            out[pos] = draw(_BYTES)
        elif kind == "insert":
            out.insert(pos, draw(_BYTES))
        elif len(out) > 1:
            del out[pos]
    return bytes(out)


def _reads_or_locates(read, data: bytes, directory) -> None:
    """read(path, ctx) in both modes returns, or raises MpsError with a
    line number."""
    path = str(directory / "mutated")
    with open(path, "wb") as fh:
        fh.write(data)
    for ctx in (CTX, NumericContext.rational()):
        try:
            read(path, ctx)
        except MpsError as err:
            assert err.line is not None, err


class TestByteMutations:
    """Byte-level mutations of a valid MPS or solution file either read or
    raise MpsError with a line number, in both number modes."""

    def test_sources_read(self, tmp_path):
        for data, read in ((RICH_MPS, read_mps), (SOLUTION, read_sol)):
            path = str(tmp_path / "valid")
            with open(path, "wb") as fh:
                fh.write(data)
            read(path, NumericContext.rational())

    @settings(max_examples=400, deadline=None)
    @given(mutated(RICH_MPS))
    def test_mps(self, tmp_path_factory, data):
        _reads_or_locates(read_mps, data, tmp_path_factory.getbasetemp())

    @settings(max_examples=200, deadline=None)
    @given(mutated(SOLUTION))
    def test_solution(self, tmp_path_factory, data):
        _reads_or_locates(read_sol, data, tmp_path_factory.getbasetemp())

    @pytest.mark.parametrize("rational", [False, True])
    @pytest.mark.parametrize("text,line", [
        (KNAP_MPS.encode().replace(b"X1 COST", b"X1 C\xe9ST"), 7),
        # a lone CR ends a line, as in text mode
        (KNAP_MPS.encode().replace(b"\n", b"\r").replace(
            b"RHS C1", b"RHS \xff1"), 11),
        (b"NAME t\r\nROWS\r\n N OBJ\xc3\r\n", 3)],
        ids=["in-a-name", "after-lone-CRs", "after-CRLFs"])
    def test_bad_byte_names_its_line(self, tmp_path, rational, text, line):
        path = str(tmp_path / "bad.mps")
        with open(path, "wb") as fh:
            fh.write(text)
        ctx = NumericContext.rational() if rational else CTX
        with pytest.raises(MpsError, match="not UTF-8") as err:
            read_mps(path, ctx)
        assert err.value.line == line

    def test_bad_byte_in_a_solution_names_its_line(self, tmp_path):
        path = str(tmp_path / "bad.sol")
        with open(path, "wb") as fh:
            fh.write(b"=obj= 1\nX1 1\nX2 \x80\n")
        with pytest.raises(MpsError, match="not UTF-8") as err:
            read_sol(path, CTX)
        assert err.value.line == 3

    def test_no_objective_row_is_located(self, tmp_path):
        """At the ROWS header that lacks the N row, or at ENDATA when the
        file has no ROWS section."""
        text = "NAME t\nROWS\n L R1\nCOLUMNS\n X R1 1\nRHS\nENDATA\n"
        with pytest.raises(MpsError, match="no objective") as err:
            read_mps(write_tmp(tmp_path, text), CTX)
        assert err.value.line == 2
        with pytest.raises(MpsError, match="no objective") as err:
            read_mps(write_tmp(tmp_path, "NAME t\nENDATA\n"), CTX)
        assert err.value.line == 2
