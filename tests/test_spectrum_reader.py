"""The column reader of load_length_spectrum against the row-by-row reference loader
(tests/spectrum_reference.py): the same orbits bit for bit, or the same SpectrumFormatError at the
same line, on plain files, on files that need csv.reader, and on bad rows of every kind."""

import csv

import numpy as np
import pytest

from ruellebf.orbits import SpectrumFormatError, load_length_spectrum

from spectrum_reference import reference_load_length_spectrum

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

HEADER = ["length", "multiplicity", "m", "P_entries", "rho_re", "rho_im"]


def outcome(load, path):
    """The loaded orbits as bytes and flags, or the error's message and line."""
    try:
        orbits = load(path)
    except SpectrumFormatError as exc:
        return "error", str(exc), exc.line
    return [(o.length.hex(), type(o.multiplicity), o.multiplicity, o.poincare.dtype.str, o.poincare.shape,
             o.poincare.tobytes(), o.poincare.flags.writeable, o.rho.dtype.str, o.rho.shape, o.rho.tobytes(),
             o.period) for o in orbits]


def test_a_row_after_a_quoted_field_spanning_two_lines_is_numbered_by_its_first_line(tmp_path):
    path = tmp_path / "multi-line.csv"
    path.write_text(",".join(HEADER) + '\n"1.0",1,1,"2;1;\n1;1",1,0\nbad,1,1,2;1;1;1,1,0\n')
    for load in (load_length_spectrum, reference_load_length_spectrum):
        with pytest.raises(SpectrumFormatError, match=r"^line 4: could not convert string to float: 'bad'$"):
            load(path)


def test_a_csv_error_after_the_plain_lines_names_the_line_where_the_reader_stopped(tmp_path):
    limit = csv.field_size_limit()
    path = tmp_path / "long.csv"
    path.write_text(",".join(HEADER) + "\n1.0,1,1,2;1;1;1,1,0\n\n" + '"1.0",1,1,"2;1;\n1;1",1,0\n'
                    + "1.0,1,1," + "1" * (limit + 1) + ",1.0,0.0\n")
    with pytest.raises(SpectrumFormatError, match=rf"^line 6: field larger than field limit \({limit}\)$"):
        load_length_spectrum(path)
    assert outcome(load_length_spectrum, path) == outcome(reference_load_length_spectrum, path)


@pytest.mark.parametrize("rows, error", [
    (["1.0,HUGE0"], "line 2: class multiplicity is past the float range"),
    (["0.5,1", "1.0,HUGE1", "2.0,1", "1.0,HUGE1"], "line 3: class multiplicity is past the float range"),
    ([f"{1.0 + 5e-13!r},HUGE2", "1.0,HUGE2", "1.0,HUGE0"], "line 3: class multiplicity is past the float range"),
    (["1.0,HUGE0", "2.0,1", "abc,1"], "line 4: could not convert string to float: 'abc'"),
    (["1.0,HUGE0", "2.0,0"], "line 3: multiplicity must be a positive integer"),
], ids=["one-row", "merged", "opened-by-the-shortest-length", "format-error-first", "bad-row-first"])
def test_a_class_multiplicity_past_the_float_range_fails_after_every_row_check(tmp_path, rows, error):
    # the earliest line that opens a class past the range, once every row has passed
    for i, huge in enumerate(HUGE):
        rows = [row.replace(f"HUGE{i}", huge) for row in rows]
    path = tmp_path / "huge.csv"
    path.write_text(",".join(HEADER) + "\n" + "".join(f"{row},1,2;0;0;0.5,1.0,0.0\n" for row in rows))
    for load in (load_length_spectrum, reference_load_length_spectrum):
        with pytest.raises(SpectrumFormatError) as info:
            load(path)
        assert str(info.value) == error


# return maps by m, each zero entry written as 0.0 or -0.0; the unit-circle and non-finite ones fail
# validation
GOOD_MAPS = {1: [["3.0", "0", "0", "0.25"], ["2", "1", "1", "1"], ["0.25", "0", "0", "3.0"]],
             2: [["4.0", "0", "0", "0", "0", "2.0", "0", "0", "0", "0", "0.5", "0", "0", "0", "0", "5.0"]]}
BAD_MAPS = {1: [["1.0", "0", "0", "1.0"], ["nan", "0", "0", "1.0"], ["inf", "0", "0", "0.25"]],
            2: [["1.0", "0", "0", "0", "0", "2.0", "0", "0", "0", "0", "0.5", "0", "0", "0", "0", "3.0"]]}
LENGTHS = ["1.0", repr(1.0 + 5e-13), repr(1.0 + 1e-12), repr(1.0 - 5e-13), "2.0", repr(2.0 + 5e-13), "0.5"]
RHOS = [("1.0", "0.0"), ("1.0", "-0.0"), ("-0.0", "1.0"), ("0.6", "0.8")]
# one bad field value per column, each failing a format or a validation check
# multiplicities at the top of the float range: one row of the first, or two merged rows of the others,
# are past it
HUGE = [str(2 ** 1024 - 2 ** 970), str(2 ** 1024 - 2 ** 970 - 1), str(10 ** 308)]
BAD_FIELDS = {0: ["abc", "-1.0", "0", "inf", "nan", ""], 1: ["0", "-1", "1.5", "x"], 2: ["0", "-1", "x", "3"],
              3: ["1;2;3", "2;1;1;x", "2;1;1;1;"], 4: ["0.5", "nan", "x"], 5: ["0.5", "inf", ""]}


def rarely(draw, odds):
    """True about once in odds draws (the common value first, for the shrinker)."""
    return draw(st.sampled_from([False] * (odds - 1) + [True]))


@st.composite
def fields(draw, m):
    """The six fields of a data row of a file of one m, one of them bad now and then; a bad map may be
    a good one of the other m, which mixes return maps."""
    maps = GOOD_MAPS[m] + BAD_MAPS[m] + GOOD_MAPS[3 - m] if rarely(draw, 10) else GOOD_MAPS[m]
    entries = draw(st.sampled_from(maps))
    entries = [draw(st.sampled_from(["0.0", "-0.0"])) if x == "0" else x for x in entries]
    row = [draw(st.sampled_from(LENGTHS)), draw(st.sampled_from(HUGE if rarely(draw, 20) else ["1", "2", "3"])),
           "2" if len(entries) == 16 else "1", ";".join(entries), *draw(st.sampled_from(RHOS))]
    if rarely(draw, 15):
        bad = draw(st.integers(0, 5))
        row[bad] = draw(st.sampled_from(BAD_FIELDS[bad]))
    return row


def quote(field):
    return '"' + field.replace('"', '""') + '"'


@st.composite
def lines(draw, kinds, ends, m):
    """One physical line or more of a spectrum file of one m, its line ends included."""
    kind = draw(st.sampled_from(kinds))
    end = draw(st.sampled_from(ends))
    if kind == "comment":  # with a space first it is a row, of one field
        return draw(st.sampled_from(["", " "])) + "# a comment, with a comma" + end
    if kind == "blank":
        return end
    row = draw(fields(m))
    if kind == "short":
        row = row[:draw(st.integers(1, 5))] if draw(st.booleans()) else row + ["1"]
    elif kind == "long":
        row[3] = "1" * 130
    elif kind == "spaced":  # int and float read past spaces; the spaces stay in the fields
        at = draw(st.integers(0, 5))
        row[at] = f" {row[at]} "
    elif kind == "nul":
        row[draw(st.integers(0, 5))] += "\0"
    elif kind == "quoted":
        at = draw(st.integers(0, 5))
        text = row[at]
        if at == 3 and draw(st.booleans()):  # a quoted P that spans two lines
            text = text.replace(";", ";\n", 1)
        row[at] = quote(text)
    return ",".join(row) + end


@st.composite
def spectrum_files(draw):
    """A plain file, split line by line throughout, or one that csv.reader reads from its first line
    with a quote, carriage return or NUL, or one past the field size limit; its rows draw one m."""
    plain, m = draw(st.sampled_from([True, True, False])), draw(st.sampled_from([1, 2]))
    header = ",".join(HEADER if plain or draw(st.booleans()) else map(quote, HEADER))
    if rarely(draw, 20):
        header = draw(st.sampled_from(["length,mult", "# only a comment", ",".join(HEADER[:5])]))
    text = draw(st.sampled_from(["", "# preamble\n", "\n"])) + header
    kinds = ["row"] * 16 + ["comment", "blank", "short", "spaced"] + ([] if plain else ["long", "nul", "quoted"])
    ends = ["\n"] if plain else draw(st.sampled_from([["\n"], ["\n", "\n", "\n", "\r\n"], ["\r\n"]]))
    text += draw(st.sampled_from(ends)) + "".join(draw(st.lists(lines(kinds, ends, m), max_size=25)))
    data = text.encode("utf-8")
    if rarely(draw, 30):  # a byte that is not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=spectrum_files(), small_limit=st.booleans())
def test_the_column_reader_matches_the_row_by_row_reference(tmp_path_factory, data, small_limit):
    path = tmp_path_factory.mktemp("spectrum") / "spectrum.csv"
    path.write_bytes(data)
    limit = csv.field_size_limit()
    csv.field_size_limit(120 if small_limit else limit)  # the "long" rows' P field is past 120
    try:
        got, want = outcome(load_length_spectrum, path), outcome(reference_load_length_spectrum, path)
    finally:
        csv.field_size_limit(limit)
    assert got == want


def test_duplicates_merge_as_in_the_reference_in_both_readers(tmp_path):
    # the same rows, plain and every field quoted: the plain file is split, the quoted one read by csv
    rng = np.random.default_rng(7)
    for m in (1, 2):
        rows = []
        for _ in range(200):
            entries = GOOD_MAPS[m][int(rng.integers(len(GOOD_MAPS[m])))]
            entries = ["-0.0" if x == "0" and rng.integers(2) else "0.0" if x == "0" else x for x in entries]
            rows.append([LENGTHS[int(rng.integers(len(LENGTHS)))], str(int(rng.integers(1, 4))), str(m),
                         ";".join(entries), *RHOS[int(rng.integers(len(RHOS)))]])
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        plain.write_text("\n".join(",".join(row) for row in [HEADER] + rows) + "\n")
        quoted.write_text("\r\n".join(",".join(map(quote, row)) for row in [HEADER] + rows) + "\r\n")
        want = outcome(reference_load_length_spectrum, plain)
        assert want[0][4] == (2 * m, 2 * m) and len(want) < len(rows)
        assert outcome(load_length_spectrum, plain) == want == outcome(load_length_spectrum, quoted)


M1_ROW, M2_ROW = "1.0,1,1,2;0;0;0.5,1,0\n", "2.0,1,2,2;0;0;0;0;0.5;0;0;0;0;3;0;0;0;0;0.25,1,0\n"


@pytest.mark.parametrize("rows, error", [
    ([M1_ROW, M2_ROW, "abc,1,1,2;0;0;0.5,1,0\n"], "line 3: m = 2 mixes return maps with the m = 1 of the first row"),
    ([M1_ROW, M2_ROW, "abc,1,1\n"], "line 3: m = 2 mixes return maps with the m = 1 of the first row"),
    ([M1_ROW, "1.5,1,1,1;0;0;1,1,0\n", M2_ROW], "line 3: Poincare map has an eigenvalue on the unit circle"),
    ([M2_ROW, "1.5,1,2,1;2;3,1,0\n", M1_ROW], "line 3: P_entries has 3 values, expected 16"),
], ids=["format-error-after", "short-row-after", "bad-map-before", "the-first-row-sets-m"])
def test_a_row_of_another_m_is_a_format_error_at_its_line(tmp_path, rows, error):
    # the first bad line wins: a row that fails validation before the mixing row, and no row after it
    path = tmp_path / "mixed.csv"
    path.write_text(",".join(HEADER) + "\n" + "".join(rows))
    for load in (load_length_spectrum, reference_load_length_spectrum):
        with pytest.raises(SpectrumFormatError) as info:
            load(path)
        assert (str(info.value), info.value.line) == (error, 3)


@pytest.mark.parametrize("row3", ["1.5,2,1,3.0;0.0;0.0;0.25,0.6,0.8\n", "1.5,2,1,x,0.6,0.8\n"],
                         ids=["good-row-3", "bad-row-3"])
@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_a_utf8_byte_order_mark_is_read_past(tmp_path, quoted, row3):
    # spreadsheet tools save CSV with a BOM: the orbits, or the error and its line, are those without it
    text = ",".join(map(quote, HEADER) if quoted else HEADER) + "\n" + M1_ROW + row3
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    want = outcome(reference_load_length_spectrum, plain)
    assert (want[0], want[2]) == ("error", 3) if "x" in row3 else len(want) == 2
    for load in (load_length_spectrum, reference_load_length_spectrum):
        assert outcome(load, plain) == outcome(load, marked) == want


@pytest.mark.parametrize("rows_before, bad_row, end, error", [
    (10, True, "\n", "line 12: could not convert string to float: 'oops'"),
    (400, True, "\n", "line 402: could not convert string to float: 'oops'"),
    (400, False, "\n", "file is not UTF-8 text: invalid start byte"),
    (10, True, "\r", "line 12: could not convert string to float: 'oops'"),
], ids=["under-8-KB", "over-8-KB", "late-byte-only", "carriage-returns"])
def test_a_bad_row_before_an_undecodable_byte_wins(tmp_path, rows_before, bad_row, end, error):
    # the rows end before the line that holds the byte, and the first bad line in file order is
    # reported, wherever the file's bytes would fall in the chunks of a streaming decoder (8 KB); a
    # carriage return ends a line, as in open(newline="")
    rows = [M1_ROW] * rows_before + ["oops,1,1,2;0;0;0.5,1,0\n" if bad_row else M1_ROW, M1_ROW, M1_ROW]
    text = ",".join(HEADER) + "\n" + "".join(rows)
    data = (text + "# caf").replace("\n", end).encode() + b"\xff" + (end + M1_ROW).encode()
    assert (len(data) > 8192) == (rows_before > 100)
    path = tmp_path / "undecodable.csv"
    path.write_bytes(data)
    for load in (load_length_spectrum, reference_load_length_spectrum):
        with pytest.raises(SpectrumFormatError) as info:
            load(path)
        assert (str(info.value), info.value.line) == (error, rows_before + 2 if bad_row else None)
