"""MPS reading/writing and solution files.

Both fixed- and free-format MPS are handled by whitespace tokenization
(names therefore must not contain blanks).  Supported sections: NAME,
OBJSENSE (minimization only), ROWS, COLUMNS with INTORG/INTEND markers,
RHS, RANGES, BOUNDS, ENDATA.  A bad or NaN literal, an infinite
coefficient or objective value, a repeated COLUMNS entry (objective
included), a header of another standard section (SOS, QUADOBJ, ...), a data
line under NAME, a file that ends before ENDATA or declares no objective
row, and bytes that are not UTF-8 raise MpsError with the line number; so
do a bad or NaN literal, a repeated column name and bytes that are not
UTF-8 in a solution file.  Infinite RHS, RANGES and BOUNDS values ('inf', 'infinity',
signed or not, in any case) read as infinite in both number modes.
Free-format data lines may start in column 1.
Integral columns without BOUNDS entries get the default [0, +inf).
"""
from __future__ import annotations

import contextlib
from typing import Callable, Dict, Iterator, List, Optional, TextIO, Tuple

from .model import Problem
from .numerics import INF, NEG_INF, Number, NumericContext, is_finite


class MpsError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message if line is None
                         else f"line {line}: {message}")
        self.line = line


_SECTIONS = {"NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES",
             "BOUNDS", "ENDATA"}
# standard section headers of extended MPS that this reader cannot represent
_UNSUPPORTED = {"SOS", "QUADOBJ", "QMATRIX", "QSECTION", "QCMATRIX",
                "CSECTION", "INDICATORS", "LAZYCONS", "USERCUTS", "GENCONS"}


@contextlib.contextmanager
def read_text(path: str, error: Callable[[str, int], Exception]
              ) -> Iterator[TextIO]:
    """A UTF-8 text file opened for reading, line by line as a text-mode
    open() gives it.  A byte sequence that is not UTF-8 raises
    error(message, line) with the number of the line that holds it; only
    then is the file read again, as bytes, to find that line."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # bytes.splitlines() breaks where text mode does: \n, \r, \r\n
            line = len((data[:exc.start] + b".").splitlines())
            raise error(f"not UTF-8 text at byte 0x{data[exc.start]:02x}: "
                        f"{exc.reason}", line) from None
        raise


def _parse_number(ctx: NumericContext, tok: str, lineno: int) -> Number:
    """A numeric literal; MpsError at lineno for a bad or NaN one."""
    try:
        val = ctx.parse(tok)
    except (ValueError, ArithmeticError):
        # Decimal spells NaN "nan" or "snan", signed or not
        if tok.lstrip("+-").lower() in ("nan", "snan"):
            raise MpsError(f"NaN literal {tok!r}", lineno)
        raise MpsError(f"bad numeric literal {tok!r}", lineno)
    if val != val:
        raise MpsError(f"NaN literal {tok!r}", lineno)
    return val


def read_mps(path: str, ctx: Optional[NumericContext] = None,
             warnings: Optional[List[str]] = None) -> Problem:
    ctx = ctx or NumericContext.float64()
    if warnings is None:
        warnings = []
    problem = Problem(ctx)
    row_index: Dict[str, int] = {}
    row_sense: Dict[str, str] = {}
    col_index: Dict[str, int] = {}
    col_entries: Dict[int, Dict[int, Number]] = {}
    obj_cols: set = set()
    rhs_by_row: Dict[int, Number] = {}
    range_by_row: Dict[int, Number] = {}
    obj_row: Optional[str] = None
    integral_mode = False
    explicit_lower: set = set()
    row_order: List[str] = []
    section = None
    rows_line: Optional[int] = None  # where the first ROWS header is

    def get_col(name: str, lineno: int) -> int:
        if name not in col_index:
            raise MpsError(f"unknown column {name!r}", lineno)
        return col_index[name]

    def get_row(name: str, lineno: int) -> int:
        if name not in row_index:
            raise MpsError(f"unknown row {name!r}", lineno)
        return row_index[name]

    ended = False
    lineno = 0
    with read_text(path, MpsError) as fh:
        for lineno, raw in enumerate(fh, 1):
            if raw.startswith("*") or not raw.strip():
                continue
            headerish = not raw[0].isspace()
            tokens = raw.split()
            # only NAME and OBJSENSE headers carry a field: "RHS R1 4" in
            # column 1 is a free-format data line of a set named RHS
            if headerish and tokens[0] in _SECTIONS and (
                    len(tokens) == 1 or tokens[0] in ("NAME", "OBJSENSE")):
                section = tokens[0]
                if section == "ROWS" and rows_line is None:
                    rows_line = lineno
                if section == "NAME":
                    problem.name = tokens[1] if len(tokens) > 1 else "problem"
                if section == "ENDATA":
                    ended = True
                    break
                if section != "OBJSENSE" or len(tokens) == 1:
                    continue
                tokens = tokens[1:]  # "OBJSENSE MAX" on one line
            if headerish and tokens[0] in _UNSUPPORTED:
                raise MpsError(f"unsupported section {tokens[0]!r}", lineno)
            if section is None:
                raise MpsError("data before any section header", lineno)
            if section == "NAME":
                raise MpsError("data line in the NAME section", lineno)
            if section == "OBJSENSE":
                sense = tokens[0].upper()
                if sense not in ("MIN", "MINIMIZE"):
                    raise MpsError(f"unsupported objective sense {sense}",
                                   lineno)
            elif section == "ROWS":
                if len(tokens) != 2:
                    raise MpsError("ROWS line needs <sense> <name>", lineno)
                sense, name = tokens[0].upper(), tokens[1]
                if name in row_index or name == obj_row:
                    raise MpsError(f"duplicate row {name!r}", lineno)
                if sense == "N":
                    if obj_row is None:
                        obj_row = name
                    else:
                        warnings.append(
                            f"line {lineno}: extra free row {name!r} ignored")
                elif sense in ("L", "G", "E"):
                    row_index[name] = len(row_order)
                    row_sense[name] = sense
                    row_order.append(name)
                else:
                    raise MpsError(f"unknown row sense {sense!r}", lineno)
            elif section == "COLUMNS":
                if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                    if "'INTORG'" in tokens:
                        integral_mode = True
                    elif "'INTEND'" in tokens:
                        integral_mode = False
                    else:
                        raise MpsError("unrecognized marker line", lineno)
                    continue
                if len(tokens) not in (3, 5):
                    raise MpsError("COLUMNS line needs name/row/value pairs",
                                   lineno)
                cname = tokens[0]
                if cname not in col_index:
                    col_index[cname] = problem.add_col(
                        0, INF, 0, integral=integral_mode, name=cname)
                    col_entries[col_index[cname]] = {}
                j = col_index[cname]
                for pos in range(1, len(tokens), 2):
                    rname = tokens[pos]
                    val = _parse_number(ctx, tokens[pos + 1], lineno)
                    if not is_finite(val):
                        raise MpsError(f"infinite value {tokens[pos + 1]!r} "
                                       f"for column {cname!r}", lineno)
                    if rname == obj_row:
                        if j in obj_cols:
                            raise MpsError(
                                f"duplicate entry for column {cname!r} in "
                                f"row {rname!r}", lineno)
                        obj_cols.add(j)
                        problem.obj[j] = val
                        continue
                    i = get_row(rname, lineno)
                    if i in col_entries[j]:
                        raise MpsError(
                            f"duplicate entry for column {cname!r} in row "
                            f"{rname!r}", lineno)
                    # zeros are stored too, so a later entry for the same
                    # pair is still caught as a duplicate
                    col_entries[j][i] = val
            elif section == "RHS":
                if len(tokens) not in (3, 5):
                    raise MpsError("RHS line needs set/row/value pairs", lineno)
                for pos in range(1, len(tokens), 2):
                    rname = tokens[pos]
                    val = _parse_number(ctx, tokens[pos + 1], lineno)
                    if rname == obj_row:
                        problem.obj_offset = -val
                        continue
                    i = get_row(rname, lineno)
                    rhs_by_row[i] = val
            elif section == "RANGES":
                if len(tokens) not in (3, 5):
                    raise MpsError("RANGES line needs set/row/value pairs",
                                   lineno)
                for pos in range(1, len(tokens), 2):
                    rname = tokens[pos]
                    val = _parse_number(ctx, tokens[pos + 1], lineno)
                    if rname == obj_row:
                        raise MpsError("range on the objective row", lineno)
                    i = get_row(rname, lineno)
                    range_by_row[i] = val
            elif section == "BOUNDS":
                btype = tokens[0].upper()
                if btype in ("FR", "MI", "PL", "BV"):
                    if len(tokens) != 3:
                        raise MpsError(f"{btype} bound needs <set> <column>",
                                       lineno)
                    j = get_col(tokens[2], lineno)
                    val = None
                else:
                    if len(tokens) != 4:
                        raise MpsError(
                            f"{btype} bound needs <set> <column> <value>",
                            lineno)
                    j = get_col(tokens[2], lineno)
                    val = _parse_number(ctx, tokens[3], lineno)
                if btype == "LO":
                    problem.col_lower[j] = val
                    explicit_lower.add(j)
                elif btype == "UP":
                    problem.col_upper[j] = val
                    if val < 0 and j not in explicit_lower \
                            and problem.col_lower[j] == 0:
                        problem.col_lower[j] = NEG_INF
                        warnings.append(
                            f"line {lineno}: negative UP bound on "
                            f"{tokens[2]!r} without LO; lower set to -inf")
                elif btype == "FX":
                    problem.col_lower[j] = val
                    problem.col_upper[j] = val
                    explicit_lower.add(j)
                elif btype == "FR":
                    problem.col_lower[j] = NEG_INF
                    problem.col_upper[j] = INF
                    explicit_lower.add(j)
                elif btype == "MI":
                    problem.col_lower[j] = NEG_INF
                    explicit_lower.add(j)
                elif btype == "PL":
                    problem.col_upper[j] = INF
                elif btype == "BV":
                    problem.col_lower[j] = ctx.number(0)
                    problem.col_upper[j] = ctx.number(1)
                    problem.col_integral[j] = True
                    explicit_lower.add(j)
                elif btype == "LI":
                    problem.col_lower[j] = val
                    explicit_lower.add(j)
                elif btype == "UI":
                    problem.col_upper[j] = val
                else:
                    raise MpsError(f"unsupported bound type {btype!r}", lineno)
            else:  # pragma: no cover
                raise MpsError(f"unhandled section {section}", lineno)

    if not ended:
        # write_mps always ends with ENDATA: without it the file was cut
        raise MpsError("file ends before ENDATA", lineno or None)
    if obj_row is None:
        # at the ROWS header, or at ENDATA when there is none
        raise MpsError("no objective (N) row declared", rows_line or lineno)

    # transpose once; columns in increasing j give each row its key order
    # (add_row drops the zeros)
    row_entries: List[Dict[int, Number]] = [{} for _ in row_order]
    for j, vals in col_entries.items():
        for i, val in vals.items():
            row_entries[i][j] = val

    # materialize rows in declaration order
    for name in row_order:
        i_decl = row_index[name]
        sense = row_sense[name]
        rhs = rhs_by_row.get(i_decl, ctx.number(0))
        if sense == "L":
            lhs_v, rhs_v = NEG_INF, rhs
        elif sense == "G":
            lhs_v, rhs_v = rhs, INF
        else:
            lhs_v, rhs_v = rhs, rhs
        if i_decl in range_by_row:
            r = range_by_row[i_decl]
            if sense == "L":
                lhs_v = rhs_v - abs(r)
            elif sense == "G":
                rhs_v = lhs_v + abs(r)
            else:
                if r >= 0:
                    rhs_v = lhs_v + r
                else:
                    lhs_v = rhs_v + r
        problem.add_row(row_entries[i_decl], lhs_v, rhs_v, name=name)
    return problem


def write_mps(problem: Problem, path: str) -> None:
    """Write the active part of the problem in canonical one-entry-per-line
    free MPS.  read_mps(write_mps(p)) reproduces p up to inactive parts."""
    ctx = problem.ctx
    fmt = ctx.format
    lines: List[str] = []
    lines.append(f"NAME {problem.name}")
    lines.append("ROWS")
    lines.append(" N OBJ")
    active_rows = problem.active_rows()
    ranged: List[int] = []
    for i in active_rows:
        lhs, rhs = problem.row_lhs[i], problem.row_rhs[i]
        name = problem.row_names[i]
        if problem.is_equation(i):
            lines.append(f" E {name}")
        elif is_finite(lhs) and is_finite(rhs):
            lines.append(f" G {name}")
            ranged.append(i)
        elif is_finite(rhs):
            lines.append(f" L {name}")
        elif is_finite(lhs):
            lines.append(f" G {name}")
        else:
            raise MpsError(f"row {name} has no finite side; drop free rows "
                           f"before writing")
    lines.append("COLUMNS")
    integral_open = False
    marker_id = 0
    for j in problem.active_cols():
        cname = problem.col_names[j]
        if problem.col_integral[j] and not integral_open:
            lines.append(f" MARKER{marker_id} 'MARKER' 'INTORG'")
            marker_id += 1
            integral_open = True
        elif not problem.col_integral[j] and integral_open:
            lines.append(f" MARKER{marker_id} 'MARKER' 'INTEND'")
            marker_id += 1
            integral_open = False
        wrote = False
        if problem.obj[j] != 0:
            lines.append(f" {cname} OBJ {fmt(problem.obj[j])}")
            wrote = True
        for i, v in problem.col_entries(j):
            lines.append(f" {cname} {problem.row_names[i]} {fmt(v)}")
            wrote = True
        if not wrote:
            lines.append(f" {cname} OBJ 0")
    if integral_open:
        lines.append(f" MARKER{marker_id} 'MARKER' 'INTEND'")
    lines.append("RHS")
    if problem.obj_offset != 0:
        lines.append(f" RHS OBJ {fmt(-problem.obj_offset)}")
    for i in active_rows:
        lhs, rhs = problem.row_lhs[i], problem.row_rhs[i]
        name = problem.row_names[i]
        if problem.is_equation(i):
            val = lhs
        elif is_finite(lhs):
            val = lhs
        else:
            val = rhs
        if val != 0:
            lines.append(f" RHS {name} {fmt(val)}")
    if ranged:
        lines.append("RANGES")
        for i in ranged:
            span = problem.row_rhs[i] - problem.row_lhs[i]
            lines.append(f" RNG {problem.row_names[i]} {fmt(span)}")
    lines.append("BOUNDS")
    for j in problem.active_cols():
        cname = problem.col_names[j]
        lo, up = problem.col_lower[j], problem.col_upper[j]
        if is_finite(lo) and is_finite(up) and lo == up:
            lines.append(f" FX BND {cname} {fmt(lo)}")
            continue
        if not is_finite(lo):
            lines.append(f" MI BND {cname}")
        elif lo != 0:
            lines.append(f" LO BND {cname} {fmt(lo)}")
        if is_finite(up):
            lines.append(f" UP BND {cname} {fmt(up)}")
    lines.append("ENDATA")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# solution files: one `<name> <value>` per line plus an `=obj=` line


def write_sol(path: str, names: List[str], values: List[Number],
              objective: Number, ctx: NumericContext) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"=obj= {ctx.format(objective)}\n")
        for name, v in zip(names, values):
            fh.write(f"{name} {ctx.format(v)}\n")


def read_sol(path: str, ctx: NumericContext
             ) -> Tuple[Dict[str, Number], Optional[Number]]:
    values: Dict[str, Number] = {}
    objective: Optional[Number] = None
    with read_text(path, MpsError) as fh:
        for lineno, line in enumerate(fh, 1):
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            if len(tokens) != 2:
                raise MpsError("solution line needs <name> <value>", lineno)
            name, value = tokens[0], _parse_number(ctx, tokens[1], lineno)
            if name == "=obj=":
                objective = value
            elif name in values:
                raise MpsError(f"second value for column {name!r}", lineno)
            else:
                values[name] = value
    return values, objective
