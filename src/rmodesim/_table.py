"""The CSV table format of field lattices and receiver logs: one writer, one reader.

Every column is numeric except an optional ``station_id`` column, which
groups the records by station. A clean file goes through numpy's C parser
and whole-column checks; any other file (comment or empty lines, csv
quoting, a bad record) is read by the validating row loop, which accepts
the same files, gives the same values and names the first bad line.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import ParseError

STATION = "station_id"

# Bytes on which numpy's parser and the csv/float row loop can disagree:
# a quote opens a csv-quoted field, NUL is data to numpy but an error to
# csv.reader before Python 3.11, and numpy strips \x1c-\x1f around a
# number where float() rejects them.
_LOOP_ONLY_BYTES = (b'"', b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_WRITE_BLOCK = 65536  # records per formatted string, so a large table needs no large temporaries


def write_table(path, columns: tuple[str, ...], groups: dict[str, list[np.ndarray]]) -> None:
    """Write ``{station_id: [column, ...]}``, the form ``read_table`` returns, as a CSV table.

    CRLF line ends, each number as its ``repr`` (read back bit-exactly), and
    the station id framed as ``csv.writer`` frames it; a table without a
    ``station_id`` column takes the single group ``""``.
    """
    station = columns.index(STATION) if STATION in columns else None
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(columns) + "\r\n")
        for sid, cols in groups.items():
            fields = ["%r"] * len(cols)
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
    with a header and no records as ``{}``.

    The header is the first line that is neither empty nor a ``#``
    comment; later comment and empty lines are skipped and csv quoting is
    honoured. Raises ParseError, with the 1-based file line the bad record
    ends on, for a wrong header or field count, an empty station id, a
    non-numeric or non-finite field, a field longer than
    ``csv.field_size_limit()``, or a timestamp (the first column) that does
    not increase strictly within its station.
    """
    return _read_numpy(path, columns) or _read_rows(path, columns)


def _read_numpy(path, columns) -> dict[str, list[np.ndarray]] | None:
    """The table from numpy's C parser, or None when the row loop must read it."""
    with open(path, "rb") as f:
        data = f.read()
    first, _, body = data.partition(b"\n")
    # with no record after the header loadtxt warns and returns nothing
    if (
        first.removesuffix(b"\r") != ",".join(columns).encode()
        or not body.lstrip(b"\r\n")
        or any(b in data for b in _LOOP_ONLY_BYTES)
        or _has_long_line(data, csv.field_size_limit())
    ):
        return None
    del data, body  # numpy reads the file itself
    dtype = [(c, object if c == STATION else float) for c in columns]
    try:
        table = np.loadtxt(
            path, dtype=dtype, delimiter=",", skiprows=1, comments=None, ndmin=1, encoding="utf-8"
        )
    except ValueError:
        return None
    numeric = [c for c in columns if c != STATION]
    if not all(np.isfinite(table[c]).all() for c in numeric):
        return None
    if STATION not in columns:
        # copies, so no caller keeps the whole structured table alive
        return {"": [table[c].copy() for c in numeric]}
    ids, first_row, code = np.unique(table[STATION], return_index=True, return_inverse=True)
    groups = {}
    for k in np.argsort(first_row):
        sid = ids[k]
        if not sid or sid != sid.strip():
            return None
        rows = code == k
        cols = [table[c][rows] for c in numeric]
        if not (np.diff(cols[0]) > 0.0).all():
            return None
        groups[sid] = cols
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
