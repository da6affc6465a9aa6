"""Versioned serialization of the postsolve record.

The default format is a length-prefixed little-endian binary stream; a
human-readable line-based text format is available behind a flag.  Numbers
are 8-byte doubles in float mode and exact 'p' or 'p/q' strings in rational
mode, read back as an int or a Fraction;
infinite bounds get their own tag so they survive both encodings.

One table, `_LAYOUT`, gives every entry kind its tag and the order and
kind of its fields; the binary writer, the text writer and both readers
all walk it.  A truncated or malformed file raises RecordFormatError with
the byte offset (binary) or the line number (text).

Version 2 stores the run's epsilon, feastol and hugeval after the mode,
so postsolve compares with the tolerances the reductions were made with,
and the text format states its entry count, so a file cut at a line
boundary is told from a complete one.  Version-1 files still read; their
records carry no tolerances and postsolve uses the mode's defaults.
"""
from __future__ import annotations

import io
import math
import struct
from typing import BinaryIO, Callable, Dict, Iterator, Tuple

from .model import (AggregateEntry, BoundChangeEntry, CoeffChangeEntry,
                    FixEntry, FreeSingletonEntry, ImplyIntegralEntry,
                    RedundantRowEntry, SideChangeEntry, SubstituteEntry)
from .mps import read_text
from .numerics import INF, NEG_INF, Mode, Number, NumericContext, exact
from .postsolve import _ctx_for
from .transactions import PostsolveRecord

MAGIC = b"PMRC"
VERSION = 2

# Wire layout of every entry kind; an entry's tag is its 1-based position.
# Field kinds: i integer, s string, n number, p list of (int, number) pairs
# written as its length followed by the pairs.
_LAYOUT = [
    (FixEntry, "col:i value:n"),
    (BoundChangeEntry, "col:i side:s old:n new:n"),
    (SideChangeEntry, "row:i side:s old:n new:n"),
    (CoeffChangeEntry, "row:i col:i old:n new:n"),
    (RedundantRowEntry, "row:i"),
    (SubstituteEntry, "col:i row:i rhs:n lb:n ub:n coeffs:p"),
    (FreeSingletonEntry, "col:i row:i coeff:n lhs:n rhs:n lb:n ub:n rest:p"),
    (AggregateEntry,
     "kept:i gone:i scale:n kept_lb:n kept_ub:n gone_lb:n gone_ub:n"),
    (ImplyIntegralEntry, "col:i"),
]
_FIELDS = {cls: [f.split(":") for f in spec.split()] for cls, spec in _LAYOUT}
_ENTRY_TAGS = {cls: tag for tag, (cls, _) in enumerate(_LAYOUT, 1)}


class RecordFormatError(ValueError):
    pass


def _checked_tolerances(mode: str, epsilon: float, feastol: float,
                        hugeval: float) -> tuple:
    """(epsilon, feastol, hugeval) if they are finite and a context of the
    mode accepts them, else ValueError."""
    if not (math.isfinite(epsilon) and math.isfinite(feastol)):
        raise ValueError("tolerances must be finite")
    NumericContext(Mode(mode), epsilon, feastol, hugeval)
    return epsilon, feastol, hugeval


def _tolerances(record: PostsolveRecord) -> tuple:
    """The (epsilon, feastol, hugeval) that postsolve uses for the record:
    its own, or its mode's defaults for a record without them."""
    ctx = _ctx_for(record)
    return ctx.epsilon, ctx.feastol, ctx.hugeval


def _flatten(entry) -> Iterator[Tuple[str, object]]:
    """(kind, value) pairs of an entry in wire order."""
    for name, kind in _FIELDS[type(entry)]:
        value = getattr(entry, name)
        if kind == "p":
            yield "i", len(value)
            for j, a in value:
                yield "i", j
                yield "n", a
        else:
            yield kind, value


def _build_entry(tag: int, readers: Dict[str, Callable[[], object]]):
    """Rebuild an entry from its tag; readers[kind]() reads the next field."""
    if not 1 <= tag <= len(_LAYOUT):
        raise RecordFormatError(f"unknown entry tag {tag}")
    cls = _LAYOUT[tag - 1][0]
    read_i, read_n = readers["i"], readers["n"]
    values = {}
    for name, kind in _FIELDS[cls]:
        if kind == "p":
            values[name] = [(read_i(), read_n()) for _ in range(read_i())]
        else:
            values[name] = readers[kind]()
    return cls(**values)


# -- binary primitives -------------------------------------------------------


def _read(fh: BinaryIO, n: int) -> bytes:
    data = fh.read(n) if n >= 0 else b""
    if len(data) != n:
        raise RecordFormatError(f"record truncated at byte "
                                f"{fh.tell() - len(data)}: {n} bytes expected, "
                                f"{len(data)} left")
    return data


def _w_u64(fh: BinaryIO, v: int) -> None:
    fh.write(struct.pack("<q", v))


def _r_u64(fh: BinaryIO) -> int:
    return struct.unpack("<q", _read(fh, 8))[0]


def _w_str(fh: BinaryIO, s: str) -> None:
    data = s.encode("utf-8")
    _w_u64(fh, len(data))
    fh.write(data)


def _r_str(fh: BinaryIO) -> str:
    n = _r_u64(fh)
    return _read(fh, n).decode("utf-8")


def _w_num(fh: BinaryIO, v: Number, rational: bool) -> None:
    if v == INF:
        fh.write(b"\x01")
    elif v == NEG_INF:
        fh.write(b"\x02")
    else:
        fh.write(b"\x00")
        if rational:
            _w_str(fh, str(v))
        else:
            fh.write(struct.pack("<d", float(v)))


def _r_num(fh: BinaryIO, rational: bool) -> Number:
    tag = _read(fh, 1)
    if tag == b"\x01":
        return INF
    if tag == b"\x02":
        return NEG_INF
    if tag != b"\x00":
        raise RecordFormatError(f"corrupt number tag at byte {fh.tell() - 1}")
    if rational:
        text = _r_str(fh)
        try:
            return exact(text)
        except (ValueError, ZeroDivisionError):
            raise RecordFormatError(
                f"bad number {text!r} before byte {fh.tell()}") from None
    return struct.unpack("<d", _read(fh, 8))[0]


# -- binary format -----------------------------------------------------------


def write_record(record: PostsolveRecord, path: str,
                 text: bool = False) -> None:
    if text:
        _write_text(record, path)
        return
    rational = record.mode == "rational"
    with open(path, "wb") as fh:
        writers = {"i": lambda v: _w_u64(fh, v), "s": lambda v: _w_str(fh, v),
                   "n": lambda v: _w_num(fh, v, rational)}
        fh.write(MAGIC)
        _w_u64(fh, VERSION)
        fh.write(b"\x01" if rational else b"\x00")
        for tol in _tolerances(record):
            fh.write(struct.pack("<d", tol))
        _w_u64(fh, record.original_nrows)
        _w_u64(fh, record.original_ncols)
        _w_num(fh, record.objective_offset, rational)
        for c in record.objective:
            _w_num(fh, c, rational)
        for name in record.col_names:
            _w_str(fh, name)
        for name in record.row_names:
            _w_str(fh, name)
        _w_u64(fh, len(record.entries))
        for entry in record.entries:
            _w_u64(fh, _ENTRY_TAGS[type(entry)])
            for kind, value in _flatten(entry):
                writers[kind](value)


def read_record(path: str) -> PostsolveRecord:
    with open(path, "rb") as raw:
        # in memory, so a corrupt length can never ask for more than is left
        fh = io.BytesIO(raw.read())
    if fh.read(4) != MAGIC:
        return _read_text(path)
    version = _r_u64(fh)
    if version not in (1, VERSION):
        raise RecordFormatError(f"unsupported record version {version}")
    rational = _read(fh, 1) == b"\x01"
    mode = "rational" if rational else "float64"
    tolerances = (None, None, None)
    if version >= 2:
        at = fh.tell()
        tolerances = struct.unpack("<3d", _read(fh, 24))
        try:
            _checked_tolerances(mode, *tolerances)
        except ValueError as exc:
            raise RecordFormatError(
                f"bad tolerances at byte {at}: {exc}") from None
    readers = {"i": lambda: _r_u64(fh), "s": lambda: _r_str(fh),
               "n": lambda: _r_num(fh, rational)}
    nrows, ncols = _r_u64(fh), _r_u64(fh)
    offset = _r_num(fh, rational)
    objective = [_r_num(fh, rational) for _ in range(ncols)]
    col_names = [_r_str(fh) for _ in range(ncols)]
    row_names = [_r_str(fh) for _ in range(nrows)]
    n_entries = _r_u64(fh)
    entries = [_build_entry(_r_u64(fh), readers)
               for _ in range(n_entries)]
    return PostsolveRecord(
        original_nrows=nrows, original_ncols=ncols, objective=objective,
        objective_offset=offset, col_names=col_names, row_names=row_names,
        mode=mode, entries=entries, epsilon=tolerances[0],
        feastol=tolerances[1], hugeval=tolerances[2])


# -- text format --------------------------------------------------------------

_TEXT_HEADER = "premip-postsolve-record"


def _fmt_num(v: Number, rational: bool) -> str:
    """A number of a text record: exact 'p' or 'p/q' in rational mode, the
    shortest repr of the double in float mode."""
    if v == INF:
        return "inf"
    if v == NEG_INF:
        return "-inf"
    return str(v) if rational else repr(float(v))


def _write_text(record: PostsolveRecord, path: str) -> None:
    rational = record.mode == "rational"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_TEXT_HEADER} {VERSION} {record.mode}\n")
        fh.write("tolerances " + " ".join(
            repr(float(tol)) for tol in _tolerances(record)) + "\n")
        fh.write(f"dims {record.original_nrows} {record.original_ncols}\n")
        fh.write(f"offset {_fmt_num(record.objective_offset, rational)}\n")
        fh.write("obj " + " ".join(_fmt_num(c, rational)
                                   for c in record.objective)
                 + "\n")
        fh.write("colnames " + " ".join(record.col_names) + "\n")
        fh.write("rownames " + " ".join(record.row_names) + "\n")
        fh.write(f"entries {len(record.entries)}\n")
        for entry in record.entries:
            parts = [str(_ENTRY_TAGS[type(entry)])]
            for kind, value in _flatten(entry):
                parts.append(str(value) if kind in ("i", "s")
                             else _fmt_num(value, rational))
            fh.write("entry " + " ".join(parts) + "\n")


def _read_text(path: str) -> PostsolveRecord:
    with read_text(path, lambda why, line: RecordFormatError(
            f"{path}:{line}: {why}")) as fh:
        lines = [line.split() for line in fh]
    lineno = 0

    def take(key: str, count: int = -1) -> list:
        """The fields after `key` on the next line; count of them if given."""
        nonlocal lineno
        tokens = lines[lineno] if lineno < len(lines) else []
        lineno += 1
        if not tokens or tokens[0] != key:
            raise ValueError(f"expected a {key!r} line")
        if count >= 0 and len(tokens) != count + 1:
            raise ValueError(f"{count} fields expected, {len(tokens) - 1} found")
        return tokens[1:]

    mode = None
    tolerances = (None, None, None)
    declared = None
    try:
        version, mode = take(_TEXT_HEADER, 2)
        if int(version) not in (1, VERSION):
            raise RecordFormatError(f"unsupported record version {version}")
        rational = mode == "rational"
        if int(version) >= 2:
            tolerances = _checked_tolerances(
                mode, *(float(t) for t in take("tolerances", 3)))

        def parse_num(tok: str) -> Number:
            if tok == "inf":
                return INF
            if tok == "-inf":
                return NEG_INF
            return exact(tok) if rational else float(tok)

        nrows, ncols = (int(t) for t in take("dims", 2))
        offset = parse_num(take("offset", 1)[0])
        objective = [parse_num(t) for t in take("obj", ncols)]
        col_names = take("colnames", ncols)
        row_names = take("rownames", nrows)
        if int(version) >= 2:
            declared = int(take("entries", 1)[0])
        entries = []
        readers = {"i": lambda: int(next(tokens)),
                   "s": lambda: next(tokens),
                   "n": lambda: parse_num(next(tokens))}
        while lineno < len(lines):
            if not lines[lineno]:
                lineno += 1
                continue
            if len(entries) == declared:
                lineno += 1
                raise ValueError(f"more than the {declared} entries "
                                 f"declared")
            tokens = iter(take("entry"))
            entries.append(_build_entry(readers["i"](), readers))
            if next(tokens, None) is not None:
                raise ValueError("trailing fields")
        if declared is not None and len(entries) != declared:
            raise ValueError(f"{declared} entries declared, "
                             f"{len(entries)} found")
    except (ValueError, StopIteration, ZeroDivisionError) as exc:
        why = (str(exc) or "too few fields") if mode else \
            "not a postsolve record"
        raise RecordFormatError(f"{path}:{lineno}: {why}") from None
    return PostsolveRecord(
        original_nrows=nrows, original_ncols=ncols, objective=objective,
        objective_offset=offset, col_names=col_names, row_names=row_names,
        mode=mode, entries=entries, epsilon=tolerances[0],
        feastol=tolerances[1], hugeval=tolerances[2])
