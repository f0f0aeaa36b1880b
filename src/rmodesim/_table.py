"""The CSV table format of field lattices and receiver logs: one writer, one reader.

Every column is numeric except an optional ``station_id`` column, which
groups the records by station. A clean station table goes through numpy's
C parser, with the ids as fixed-width text, and whole-column checks; the
stations are the ids at the starts of the id column's runs, in order of
first appearance. Any other file (comment or empty lines, csv quoting, an
id as wide as that text, a bad record, no station column) is read by the
validating row loop, which accepts the same files, gives the same values
and names the first bad line.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

from .errors import ParseError

STATION = "station_id"

# Bytes on which numpy's parser and the csv/float row loop can disagree:
# a quote opens a csv-quoted field, NUL is data to numpy but an error to
# csv.reader before Python 3.11, and numpy strips \x1c-\x1f around a
# number where float() rejects them.
_LOOP_ONLY_BYTES = (b'"', b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_RECORD_BYTE = re.compile(rb"[^\r\n]")  # found after the header line, without copying the body
# characters per station id on the numpy path (U16 and U32 parse faster
# than object ids, U64 slower); numpy cuts a longer id short, so an id
# this wide goes to the row loop
_ID_WIDTH = 16
_ID_TEXT = f"U{_ID_WIDTH}"
_WRITE_BLOCK = 65536  # records per formatted string, so a large table needs no large temporaries


def write_table(path, columns: tuple[str, ...], groups: dict[str, list[np.ndarray]]) -> None:
    """Write ``{station_id: [column, ...]}``, the form ``read_table`` returns, as a CSV table.

    CRLF line ends, each number as its ``repr`` (read back bit-exactly), and
    the station id framed as ``csv.writer`` frames it; a table without a
    ``station_id`` column takes the single group ``""``. A column may also be
    an object array of number texts, written as they are.
    """
    station = columns.index(STATION) if STATION in columns else None
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(columns) + "\r\n")
        for sid, cols in groups.items():
            fields = ["%s"] * len(cols)  # a float's str is its repr
            if station is not None:
                if any(c in sid for c in ',"\r\n'):
                    sid = '"' + sid.replace('"', '""') + '"'
                fields.insert(station, sid.replace("%", "%%"))
            template = ",".join(fields) + "\r\n"
            for i in range(0, len(cols[0]), _WRITE_BLOCK):
                rows = zip(*(c[i : i + _WRITE_BLOCK].tolist() for c in cols))
                f.write("".join(template % r for r in rows))


def read_table(path, columns: tuple[str, ...]) -> dict[str, list[np.ndarray]]:
    """Read a CSV table with header ``columns`` into float64 columns per station.

    Returns ``{station_id: [column, ...]}`` in order of each station's first
    record, each column a 1-D float64 array of that station's records in
    file order (the ``station_id`` column itself left out). A table with no
    ``station_id`` column comes back as the single group ``""``; a table
    with a header and no records as ``{}``. A clean table with a
    ``station_id`` column is parsed by numpy, any other by the row loop.

    The header is the first line that is neither empty nor a ``#``
    comment; later comment and empty lines are skipped and csv quoting is
    honoured. Raises ParseError, with the 1-based file line the bad record
    ends on, for a wrong header or field count, an empty station id, a
    non-numeric or non-finite field, a field longer than
    ``csv.field_size_limit()``, or a timestamp (the first column) that does
    not increase strictly within its station.
    """
    return (STATION in columns and _read_numpy(path, columns)) or _read_rows(path, columns)


def load_clean(path, columns: tuple[str, ...], dtype) -> np.ndarray | None:
    """The records of a clean file as one ``np.loadtxt`` structured array of ``dtype``, else None.

    A clean file has the header ``columns`` on its first line, at least one
    record, none of the bytes on which numpy's parser and the row loop
    disagree and no line over csv's field size limit; the records are split
    as the row loop splits them. None also when numpy cannot convert a field.
    """
    with open(path, "rb") as f:
        data = f.read()
    end = data.find(b"\n")
    # with no record after the header loadtxt warns and returns nothing
    if (
        end < 0
        or data[:end].removesuffix(b"\r") != ",".join(columns).encode()
        or not _RECORD_BYTE.search(data, end + 1)
        or any(b in data for b in _LOOP_ONLY_BYTES)
        or _has_long_line(data, csv.field_size_limit())
    ):
        return None
    del data  # numpy reads the file itself
    try:
        return np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1, comments=None, ndmin=1, encoding="utf-8")
    except ValueError:
        return None


def _read_numpy(path, columns) -> dict[str, list[np.ndarray]] | None:
    """The station table from numpy's C parser, or None when the row loop must read it."""
    table = load_clean(path, columns, [(c, _ID_TEXT if c == STATION else float) for c in columns])
    if table is None:
        return None
    numeric = [c for c in columns if c != STATION]
    if not all(np.isfinite(table[c]).all() for c in numeric):
        return None
    # a station's rows come in runs; number the runs' ids in order of first appearance
    sid = table[STATION]
    starts = np.flatnonzero(np.concatenate(([True], sid[1:] != sid[:-1])))
    code: dict[str, int] = {}
    run_code = [code.setdefault(s, len(code)) for s in sid[starts].tolist()]
    # an empty or padded id is the row loop's to judge, and one as wide as the text may be cut short
    if not all(s and s == s.strip() and len(s) < _ID_WIDTH for s in code):
        return None
    row_code = np.repeat(run_code, np.diff(starts, append=sid.size))
    groups = {}
    for s, k in code.items():
        rows = row_code == k
        cols = [table[c][rows] for c in numeric]
        if not (np.diff(cols[0]) > 0.0).all():
            return None
        groups[s] = cols
    return groups


def _has_long_line(data: bytes, limit: int) -> bool:
    """Whether a line of ``data`` is over ``limit`` bytes, so it may hold a field over csv's limit.

    Each step jumps to the last newline within the next ``limit + 1`` bytes.
    """
    start = 0
    while len(data) - start > limit:
        newline = data.rfind(b"\n", start, start + limit + 1)
        if newline < 0:
            return True
        start = newline + 1
    return False


def _read_rows(path, columns) -> dict[str, list[np.ndarray]]:
    """The validating row loop: csv.reader, float() and a check per row."""
    station = columns.index(STATION) if STATION in columns else None
    groups: dict[str, list[list[float]]] = {}
    with open(path, newline="", encoding="utf-8") as f:
        header = None
        reader = csv.reader(f)
        try:
            for row in reader:
                lineno = reader.line_num  # the line a record ends on, when a quoted field spans lines
                if not row or row[0].lstrip().startswith("#"):
                    continue
                if header is None:
                    header = tuple(c.strip() for c in row)
                    if header != columns:
                        raise ParseError(lineno, f"expected header {','.join(columns)}")
                    continue
                if len(row) != len(columns):
                    raise ParseError(lineno, f"expected {len(columns)} fields, got {len(row)}")
                sid = ""
                if station is not None:
                    # log fields are matched stripped, lattice fields as written;
                    # float() ignores padding, so only error messages differ
                    row = [c.strip() for c in row]
                    sid = row.pop(station)
                    if not sid:
                        raise ParseError(lineno, f"empty {STATION}")
                try:
                    values = [float(c) for c in row]
                except ValueError as exc:
                    raise ParseError(lineno, f"non-numeric field: {exc}") from None
                if not all(map(math.isfinite, values)):
                    raise ParseError(lineno, "non-finite field")
                cols = groups.get(sid)
                if cols is None:
                    cols = groups[sid] = [[] for _ in values]
                elif station is not None and values[0] <= cols[0][-1]:
                    raise ParseError(lineno, f"{columns[0]} {values[0]} not increasing for station {sid}")
                for col, v in zip(cols, values):
                    col.append(v)
        except csv.Error as exc:  # such as a field longer than csv.field_size_limit()
            raise ParseError(reader.line_num, f"malformed CSV: {exc}") from None
        if header is None:
            raise ParseError(1, "empty file, missing header")
    return {sid: [np.array(c) for c in cols] for sid, cols in groups.items()}
