"""The shared CSV table writer and reader against the loops they replaced.

``load_field_grid`` and ``parse_measurement_file`` must return bitwise the
arrays the old csv.reader loops (kept in ``helpers``) return, or raise the
same exception with the same message and row, on clean files and on every
kind of file that needs the validating row loop. ``write_field_grid`` and
``write_measurement_csv`` must write the bytes of the old writers.
"""

import csv
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmodesim._table
import rmodesim.propagation
from helpers import (
    csv_writer_field_grid,
    csv_writer_measurement_csv,
    long_field_file,
    loop_load_field_grid,
    loop_parse_measurement_file,
)
from rmodesim import (
    FieldGrid,
    StationLog,
    load_field_grid,
    parse_measurement_file,
    write_field_grid,
    write_measurement_csv,
)
from rmodesim.errors import ParseError

GRID_HEADER = "lat_deg,lon_deg,value_dbuv_m"
LOG_HEADER = "timestamp,station_id,phase_rad,snr_db"

MUTATIONS = (
    "comment",
    "blank",
    "spaces",
    "quote",
    "pad",
    "pad_station",
    "underscore",
    "nan",
    "inf",
    "short",
    "long",
    "repeat_timestamp",
    "empty_station",
    "separator_pad",
    "nul",
    # lattice only
    "respell",
    "pad_coordinate",
    "wide_coordinate",
    "swap_rows",
    "drop_last",
)


def lattice_rows(rng):
    n_lat, n_lon = rng.integers(2, 5, size=2)
    lat = np.cumsum(rng.uniform(0.01, 1.0, n_lat)) - 40.0
    lon = np.cumsum(rng.uniform(0.01, 1.0, n_lon)) + 120.0
    values = rng.normal(60.0, 20.0, (n_lat, n_lon))
    return [[repr(a), repr(b), repr(v)] for a, row in zip(lat.tolist(), values.tolist()) for b, v in zip(lon.tolist(), row)]


ID_WIDTH = rmodesim._table._ID_WIDTH


def station_ids(rng):
    """Three ids of 1 to ID_WIDTH + 2 characters, the first from a non-ASCII alphabet.

    An id as wide as numpy's id text sends a clean log to the row loop.
    """
    return ["".join(rng.choice(list(letters), size=rng.integers(1, ID_WIDTH + 3))) for letters in ("aé충", "ab", "ab")]


def log_rows(rng):
    stations = station_ids(rng)[: rng.integers(1, 4)]
    rows, clock = [], {}
    for sid in rng.choice(stations, size=rng.integers(1, 12)).tolist():
        clock[sid] = clock.get(sid, 0.0) + float(rng.uniform(0.05, 2.0))
        rows.append([repr(clock[sid]), sid, repr(float(rng.uniform(-np.pi, np.pi))), repr(float(rng.normal(15.0, 10.0)))])
    return rows


def is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def mutate(rng, rows, mutation):
    """Apply ``mutation`` to the field lists ``rows``; return a line to insert, if any."""
    r = int(rng.integers(len(rows)))
    row = rows[r]
    c = int(rng.integers(len(row)))
    if mutation == "quote":
        row[c] = f'"{row[c]}"'
    elif mutation == "pad":
        row[c] = f"  {row[c]} "
    elif mutation == "pad_station" and len(row) == 4:
        row[1] = f" {row[1]}\t"
    elif mutation in ("underscore", "nan", "inf"):
        row[c] = {"underscore": "1_0", "nan": "nan", "inf": ["inf", "-inf", "Infinity"][r % 3]}[mutation]
    elif mutation == "short":
        row.pop()
    elif mutation == "long":
        row.append("1.0")
    elif mutation == "repeat_timestamp" and len(row) == 4:
        earlier = [i for i in range(r) if rows[i][1] == row[1]]
        if earlier:
            row[0] = rows[earlier[-1]][0]
    elif mutation == "empty_station" and len(row) == 4:
        row[1] = ""
    elif mutation == "separator_pad":
        row[c] = f"{row[c]}\x1c"
    elif mutation == "nul":
        row[c] = f"{row[c]}\0"
    elif mutation == "pad_coordinate" and len(row) == 3:
        row[c % 2] = f" {row[c % 2]}"
    elif mutation in ("respell", "wide_coordinate") and len(row) == 3 and is_float(row[c % 2]):
        c %= 2
        if mutation == "respell":
            # the same float, spelled another way on this row only
            row[c] = f"{float(row[c]):.17e}" if "e" not in row[c] else repr(float(row[c]))
        else:
            # longer than the lattice reader's coordinate text, on every row with this text
            text = row[c]
            for other in rows:
                if other[c] == text:
                    other[c] = f"{float(text):.30e}"
    elif mutation == "swap_rows" and len(row) == 3:
        s = int(rng.integers(len(rows)))
        rows[r], rows[s] = rows[s], rows[r]
    elif mutation == "drop_last" and len(row) == 3:
        rows.pop()
    return {"comment": "# a comment", "blank": "", "spaces": "   "}.get(mutation)


def outcome(read, path):
    """What ``read`` makes of ``path``: its arrays' bytes, or its error."""
    try:
        result = read(path)
    except Exception as exc:  # any exception is compared, not only the expected ones
        return ("raised", type(exc), str(exc), getattr(exc, "row", None))
    if isinstance(result, list):
        return [(log.station_id, *(getattr(log, c).tobytes() for c in ("timestamp", "phase_rad", "snr_db"))) for log in result]
    return [a.tobytes() + str(a.shape).encode() for a in (result.lat_deg, result.lon_deg, result.values_dbuv_m)]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["lattice", "log"]),
    mutations=st.lists(st.sampled_from(MUTATIONS), max_size=2),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_reader_matches_row_loop(tmp_path_factory, seed, kind, mutations, newline):
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        header, rows, read, reference = GRID_HEADER, lattice_rows(rng), load_field_grid, loop_load_field_grid
    else:
        header, rows, read, reference = LOG_HEADER, log_rows(rng), parse_measurement_file, loop_parse_measurement_file
    extra = [mutate(rng, rows, mutation) for mutation in mutations]
    lines = [header] + [",".join(fields) for fields in rows]
    for line in extra:
        if line is not None:
            # anywhere, before the header included
            lines.insert(int(rng.integers(len(lines) + 1)), line)
    path = tmp_path_factory.mktemp("table") / f"{kind}.csv"
    path.write_bytes(newline.join(lines).encode("utf-8") + newline.encode())
    assert outcome(read, path) == outcome(reference, path)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_clean_files_skip_the_row_loop(tmp_path, monkeypatch, newline):
    # padded numbers and either line ending stay on numpy's parser
    def row_loop(path, columns):
        raise AssertionError(f"{path} went to the row loop")

    monkeypatch.setattr(rmodesim._table, "_read_rows", row_loop)
    grid = tmp_path / "grid.csv"
    grid.write_bytes(newline.join([GRID_HEADER, "0.0,0.0, 1.0", "0.0,1.0,2.0", "1.0,0.0,3.0 ", "1.0,1.0,4.0", ""]).encode())
    assert load_field_grid(grid).values_dbuv_m.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    # and a lattice as write_field_grid writes it takes the coordinate-text path,
    # which never reads the file's coordinates as floats
    def float_path(path, columns):
        raise AssertionError(f"{path} went to the float lattice checks")

    monkeypatch.setattr(rmodesim.propagation, "read_table", float_path)
    lattice = FieldGrid([-0.5, 1.0 / 3.0, 37.1], [125.0, 126.25], np.arange(6.0).reshape(3, 2))
    write_field_grid(lattice, grid)
    grid.write_bytes(grid.read_bytes().replace(b"\r\n", newline.encode()))
    back = load_field_grid(grid)
    for a, b in ((back.lat_deg, lattice.lat_deg), (back.lon_deg, lattice.lon_deg), (back.values_dbuv_m, lattice.values_dbuv_m)):
        assert a.tobytes() == b.tobytes()
    log = tmp_path / "log.csv"
    log.write_bytes(newline.join([LOG_HEADER, "1.0,b,0.1, 10", "1.0,a,0.2,11", "2.0,b,0.3,12", ""]).encode())
    logs = parse_measurement_file(log)
    assert [(g.station_id, g.timestamp.tolist()) for g in logs] == [("b", [1.0, 2.0]), ("a", [1.0])]


@pytest.mark.parametrize("width", [ID_WIDTH - 1, ID_WIDTH, ID_WIDTH + 2])
def test_station_id_as_wide_as_numpys_text_reaches_the_row_loop(tmp_path, width):
    # numpy cuts a longer id short without a word, so two ids that share
    # their first ID_WIDTH characters would merge on its path
    ids = ["é" * (width - 1) + "a", "é" * (width - 1) + "b"]
    rows = [f"{k}.5,{ids[k % 2]},0.{k},1{k}" for k in range(6)]
    path = tmp_path / "log.csv"
    path.write_text("\n".join([LOG_HEADER, *rows, ""]), encoding="utf-8")
    with mock.patch.object(rmodesim._table, "_read_rows", wraps=rmodesim._table._read_rows) as row_loop:
        got = outcome(parse_measurement_file, path)
    assert row_loop.called == (width >= ID_WIDTH)
    assert got == outcome(loop_parse_measurement_file, path)
    assert [sid for sid, *_ in got] == ids


def test_interleaved_stations_stay_on_numpys_path(tmp_path, monkeypatch):
    # the id changes on every row, and chungju first appears late in the file
    def row_loop(path, columns):
        raise AssertionError(f"{path} went to the row loop")

    rows = [f"{k * 0.1!r},{('eocheong', 'palmi')[k % 2]},{math.sin(k)!r},{k % 17}.25" for k in range(6000)]
    rows += [f"{k * 0.1!r},{('eocheong', 'palmi', 'chungju')[k % 3]},{math.cos(k)!r},{k % 13}.5" for k in range(6000, 10000)]
    path = tmp_path / "log.csv"
    path.write_text("\r\n".join([LOG_HEADER, *rows, ""]), encoding="utf-8", newline="")
    expected = outcome(loop_parse_measurement_file, path)
    monkeypatch.setattr(rmodesim._table, "_read_rows", row_loop)
    got = outcome(parse_measurement_file, path)
    assert got == expected
    assert [sid for sid, *_ in got] == ["eocheong", "palmi", "chungju"]


@pytest.mark.parametrize(
    "lat, lon",
    [
        (["1.0", "0.0"], ["0.0", "1.0"]),  # latitude blocks descending
        (["0.0", "1.0"], ["1.0", "0.0"]),  # longitudes descending in every block
        (["1", "1.0"], ["0.0", "1.0"]),  # one latitude spelled two ways, block by block
        (["0.0", "inf"], ["0.0", "1.0"]),
        (["0.0", "1.0"], ["-inf", "1.0"]),
        (["nan", "1.0"], ["0.0", "1.0"]),
        (["0.0", "abc"], ["0.0", "1.0"]),  # only float() of the axis text finds it: the row loop's ParseError
    ],
)
def test_lattice_whose_text_tiles_but_axes_do_not_matches_row_loop(tmp_path, lat, lon):
    path = tmp_path / "grid.csv"
    rows = [f"{a},{b},{k}.5" for k, (a, b) in enumerate((a, b) for a in lat for b in lon)]
    path.write_text("\n".join([GRID_HEADER, *rows, ""]), encoding="utf-8")
    got = outcome(load_field_grid, path)
    assert got == outcome(loop_load_field_grid, path)
    assert got[0] == "raised"


def test_declined_lattice_is_parsed_by_numpy_once(tmp_path):
    # one latitude spelled another way on one row: the coordinate text does not
    # tile, so the lattice goes to the row loop without a second float parse
    path = tmp_path / "grid.csv"
    rows = ["32.0,125.0,1.5", "32,126.0,2.5", "33.0,125.0,3.5", "33.0,126.0,4.5"]
    path.write_text("\n".join([GRID_HEADER, *rows, ""]), encoding="utf-8")
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        grid = load_field_grid(path)
    assert loadtxt.call_count == 1
    reference = loop_load_field_grid(path)
    for a, b in ((grid.lat_deg, reference.lat_deg), (grid.lon_deg, reference.lon_deg), (grid.values_dbuv_m, reference.values_dbuv_m)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("read", [load_field_grid, parse_measurement_file])
def test_empty_file_is_a_parse_error(tmp_path, read):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    with pytest.raises(ParseError, match=r"^row 1: empty file, missing header$"):
        read(path)


def test_header_then_empty_lines_reads_no_records(tmp_path):
    # numpy's parser would warn on a body without records
    log = tmp_path / "log.csv"
    log.write_bytes((LOG_HEADER + "\n\n\r\n\n").encode())
    assert parse_measurement_file(log) == []
    grid = tmp_path / "grid.csv"
    grid.write_bytes((GRID_HEADER + "\r\n\r\n").encode())
    with pytest.raises(ValueError, match="no data rows"):
        load_field_grid(grid)


# bounded so that no axis or timestamp difference overflows
coordinates = st.floats(-1e300, 1e300)
finite = st.floats(allow_nan=False, allow_infinity=False)


def increasing(min_size, max_size):
    return st.lists(coordinates, min_size=min_size, max_size=max_size, unique=True).map(sorted)


@settings(max_examples=200, deadline=None)
@given(
    lat=increasing(2, 4),
    lon=increasing(2, 4),
    timestamps=increasing(0, 6),
    station_id=st.text(st.sampled_from('ab,"% \t'), min_size=1, max_size=6).filter(str.strip),
    data=st.data(),
)
def test_writers_match_reference_bytes_and_read_back(tmp_path_factory, lat, lon, timestamps, station_id, data):
    def floats(n, elements=finite):
        return data.draw(st.lists(elements, min_size=n, max_size=n))

    grid = FieldGrid(lat, lon, np.reshape(floats(len(lat) * len(lon)), (len(lat), len(lon))))
    n = len(timestamps)
    # the reader takes phases in [-pi, pi] only
    log = StationLog(station_id, timestamps, floats(n, st.floats(-np.pi, np.pi)), floats(n))
    out = tmp_path_factory.mktemp("write")
    write_field_grid(grid, out / "grid.csv")
    csv_writer_field_grid(grid, out / "grid_reference.csv")
    write_measurement_csv(log, out / "log.csv")
    csv_writer_measurement_csv(log, out / "log_reference.csv")
    assert (out / "grid.csv").read_bytes() == (out / "grid_reference.csv").read_bytes()
    assert (out / "log.csv").read_bytes() == (out / "log_reference.csv").read_bytes()

    with mock.patch.object(rmodesim._table, "_read_rows", wraps=rmodesim._table._read_rows) as row_loop:
        with mock.patch.object(rmodesim.propagation, "read_table", wraps=rmodesim.propagation.read_table) as float_path:
            back = load_field_grid(out / "grid.csv")
        assert not row_loop.called and not float_path.called
        logs = parse_measurement_file(out / "log.csv")
        # only a header without records, a quoted station id or a padded one
        # (whose padding the row loop strips) needs the row loop
        quoted = any(c in station_id for c in ',"')
        assert row_loop.called == (n == 0 or quoted or station_id != station_id.strip())
    for a, b in ((back.lat_deg, grid.lat_deg), (back.lon_deg, grid.lon_deg), (back.values_dbuv_m, grid.values_dbuv_m)):
        assert a.tobytes() == b.tobytes()
    assert [(g.station_id, g.timestamp.tobytes(), g.phase_rad.tobytes(), g.snr_db.tobytes()) for g in logs] == (
        [(station_id.strip(), log.timestamp.tobytes(), log.phase_rad.tobytes(), log.snr_db.tobytes())] if n else []
    )


@pytest.mark.parametrize("comment", [0, 1], ids=["clean", "comment_first"])
@pytest.mark.parametrize("kind", ["lattice", "log"])
def test_field_over_csv_limit_is_a_parse_error(tmp_path, kind, comment):
    # the same answer whichever path reads the file, and csv's limit left as it was
    path = long_field_file(tmp_path / f"{kind}.csv", kind, comment)
    limit = csv.field_size_limit()
    with pytest.raises(ParseError, match="field larger than field limit") as exc:
        (load_field_grid if kind == "lattice" else parse_measurement_file)(path)
    assert exc.value.row == 5 + comment
    assert csv.field_size_limit() == limit


def test_long_line_check():
    assert not rmodesim._table._has_long_line(b"", 4)
    assert not rmodesim._table._has_long_line(b"abcd\nabcd\nab", 4)
    assert not rmodesim._table._has_long_line(b"abcd\n" * 5 + b"abcd", 4)
    assert rmodesim._table._has_long_line(b"abcd\nabcde\nab", 4)
    assert rmodesim._table._has_long_line(b"abcd\n" * 5 + b"abcde", 4)
    assert rmodesim._table._has_long_line(b"abcde", 4)


@pytest.mark.parametrize("bad_line", [3, 4])
def test_parse_error_names_the_file_line_after_a_record_that_spans_lines(tmp_path, bad_line):
    # the quoted field on lines 2-3 is one record; a bad record gives the line
    # it ends on, in each reader and in the row loop it is held to
    cases = {
        "lattice": ([GRID_HEADER, '"0.0', '",0.0,0.5', "0.0,1.0,0.5"], load_field_grid, loop_load_field_grid),
        "log": ([LOG_HEADER, '0,"a', 'b",0.5,10', "1,c,0.5,10"], parse_measurement_file, loop_parse_measurement_file),
    }
    for kind, (lines, read, reference) in cases.items():
        lines[bad_line - 1] = lines[bad_line - 1].replace("0.5", "zzz")
        path = tmp_path / f"{kind}.csv"
        path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8", newline="")
        with pytest.raises(ParseError, match=f"row {bad_line}: non-numeric field") as exc:
            read(path)
        assert exc.value.row == bad_line
        assert outcome(read, path) == outcome(reference, path)
