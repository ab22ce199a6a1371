"""The row-by-row length-spectrum loader that the column reader of ruellebf.orbits replaced, kept as
the reference the loader is compared with: every row through csv.reader and parsed on its own, a
row whose m differs from the first row's refused at its line, one value id per parsed P tuple, each
distinct (P, rho) record validated once, and the rows merged over one sort of the record and length
keys; a class whose summed multiplicity float() refuses fails at the earliest line that opens one. A
row is numbered by the physical line it starts on. The file is decoded line by line: the first line
holding a byte that is not UTF-8 ends the text, and that byte is the error that stops the rows.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from ruellebf.orbits import (
    SPECTRUM_HEADER,
    PrimeOrbit,
    SpectrumFormatError,
    _class_starts,
    _map_errors,
    _rho_errors,
    _scalar_error,
)


def _parse_row(row: list[str], line: int, parsed: dict[str, tuple], m_first: int | None) -> tuple:
    """(line, length, multiplicity, P index, rho, m) of one data row; raises on a format error, m_first
    the m of the first data row (None for that row).

    parsed maps each P_entries text already read to (its P index, its floats), indices in order of
    first appearance: rows repeating a text share one parse and one tuple.
    """
    if len(row) != len(SPECTRUM_HEADER):
        raise SpectrumFormatError(f"expected {len(SPECTRUM_HEADER)} fields, found {len(row)}", line)
    try:
        length = float(row[0])
        multiplicity = int(row[1])
        m = int(row[2])
        p = parsed.get(row[3])
        if p is None:
            p = parsed[row[3]] = (len(parsed), tuple(map(float, row[3].split(";"))))
        rho = complex(float(row[4]), float(row[5]))
    except ValueError as exc:
        raise SpectrumFormatError(str(exc), line) from None
    if m < 1:
        raise SpectrumFormatError(f"m must be a positive integer, found {m}", line)
    if m_first is not None and m != m_first:
        raise SpectrumFormatError(f"m = {m} mixes return maps with the m = {m_first} of the first row", line)
    side = 2 * m
    if len(p[1]) != side * side:
        raise SpectrumFormatError(f"P_entries has {len(p[1])} values, expected {side * side}", line)
    return line, length, multiplicity, p[0], rho, m


def _overflows_float(n: int) -> bool:
    try:
        float(n)
    except OverflowError:
        return True
    return False


def _record_errors(records: list[tuple], side: int) -> list[str | None]:
    """PrimeOrbit's map and rho checks of each distinct (P entries, rho) record, its P side x side,
    stacked: one eigvals call and one svd call."""
    maps = np.array([entries for entries, _ in records], dtype=float).reshape(len(records), side, side)
    map_errors = _map_errors(maps)
    rho_errors = _rho_errors(np.array([rho for _, rho in records], dtype=complex).reshape(-1, 1, 1))
    return [a or b for a, b in zip(map_errors, rho_errors)]


def reference_load_length_spectrum(path) -> list[PrimeOrbit]:
    """load_length_spectrum, one row at a time."""
    rows = []
    parsed: dict[str, tuple] = {}
    stop = None
    header = None
    with open(path, "rb") as fh:
        raw_lines = fh.read().splitlines(keepends=True)  # at b"\n", b"\r" and b"\r\n", as open(newline="")
    decoded = []
    for number, raw in enumerate(raw_lines):
        try:
            decoded.append(raw.decode("utf-8-sig" if number == 0 else "utf-8"))
        except UnicodeDecodeError as exc:
            stop = SpectrumFormatError(f"file is not UTF-8 text: {exc.reason}")
            break
    reader = csv.reader(io.StringIO("".join(decoded), newline=""))
    try:
        line_no = 1  # the line the next row starts on: a quoted field may span lines
        for row in reader:
            start, line_no = line_no, reader.line_num + 1
            if not row or (row[0].startswith("#")):
                continue
            if header is None:
                header = [c.strip() for c in row]
                if header != SPECTRUM_HEADER:
                    raise SpectrumFormatError(f"bad header {header}, expected {SPECTRUM_HEADER}", start)
                continue
            rows.append(_parse_row(row, start, parsed, rows[0][-1] if rows else None))
    except SpectrumFormatError as exc:
        stop = exc
    except csv.Error as exc:
        stop = SpectrumFormatError(str(exc), reader.line_num)
    lines, lengths, multiplicities, texts, rhos, ms = zip(*rows) if rows else ((),) * 6
    side = 2 * ms[0] if rows else 0
    lengths, rho, texts = np.array(lengths, dtype=float), np.array(rhos, dtype=complex), np.array(texts, dtype=int)
    entries = [floats for _, floats in parsed.values()]
    # one value id per parsed P tuple; tuples of floats compare -0.0 == 0.0, as the merge requires
    value_ids: dict[tuple, int] = {}
    value_of = np.array([value_ids.setdefault(floats, len(value_ids)) for floats in entries], dtype=int)[texts]
    order = np.lexsort((lengths, rho.imag, rho.real, value_of))
    value, re, im = value_of[order], rho.real[order], rho.imag[order]
    record_starts = np.ones(order.size, dtype=bool)
    record_starts[1:] = (value[1:] != value[:-1]) | (re[1:] != re[:-1]) | (im[1:] != im[:-1])
    record_of = np.empty(order.size, dtype=int)
    record_of[order] = np.cumsum(record_starts) - 1
    firsts = np.minimum.reduceat(order, np.flatnonzero(record_starts)).tolist() if order.size else []
    record_errors = _record_errors([(entries[texts[i]], rhos[i]) for i in firsts], side)
    bad = np.array([e is not None for e in record_errors], dtype=bool)[record_of]
    bad |= ~(np.isfinite(lengths) & (lengths > 0.0))
    if min(multiplicities, default=1) < 1:
        bad |= np.array([x < 1 for x in multiplicities], dtype=bool)
    if bad.any():
        i = int(np.argmax(bad))
        raise SpectrumFormatError(_scalar_error(lengths[i], multiplicities[i]) or record_errors[record_of[i]], lines[i])
    if stop is not None:
        raise stop
    if header is None:
        raise SpectrumFormatError("missing header row")
    if not rows:
        return []
    starts = np.flatnonzero(_class_starts(lengths[order], record_starts))
    multiplicity = np.add.reduceat(np.array(multiplicities, dtype=object)[order], starts)
    first = order[starts]
    past = [lines[i] for i, total in zip(first.tolist(), multiplicity.tolist()) if _overflows_float(total)]
    if past:
        raise SpectrumFormatError("class multiplicity is past the float range", min(past))
    by_length = np.lexsort((first, lengths[first]))
    first, multiplicity = first[by_length], multiplicity[by_length].tolist()
    maps = np.array([entries[k] for k in texts[first].tolist()], dtype=float).reshape(first.size, side, side)
    maps.flags.writeable = False
    return [PrimeOrbit._from_checked(length, p, r, mult)
            for length, p, r, mult in zip(lengths[first].tolist(), maps, rho[first].reshape(-1, 1, 1), multiplicity)]
