"""Explicit Anosov models and their prime periodic-orbit data.

Built-in models are suspensions of hyperbolic toral automorphisms with a
constant roof, so orbit lengths are exact multiples of the roof and the
period-n census is the exact integer |det(A^n - I)|, read off one running
exact product A^n after one Anosov check per model. Externally computed
length spectra are ingested from CSV.

Conventions: the rank of the stable bundle is m = 1 for every built-in
model, the stored return map is P = A^n (the forward section map), kept as
exact integers, and the winding class of a period-n orbit in the suspension
circle is n, which is what a character representation is evaluated on.
Contact-ness of the suspension is not certified; every downstream formula
consumes only (length, P, rho, m).

The loader reads a spectrum file in one piece, one reader for the whole
file (see _read_rows); a row is numbered by the physical line it starts on.
Every data row has the m of the first one: a flow has one stable rank, and
a row of another m is a format error at its line. The rows are kept in one
list, transposed once into columns and converted one column at a time, and
each distinct P_entries text is parsed once, into one float stack. The (P,
rho) records are keyed by np.unique over the sign-normalised stack rows and
each is validated once (one stacked eigvals call for the unit-circle check,
one stacked svd for the representation values); the rows then merge into
classes over one sort of the record and length keys, and each class's
PrimeOrbit is built once, its P a read-only row of the stack. A loaded
orbit carries its fields and nothing else: the traces and determinants of
its return map are flat_zeta's. Errors are those of row-by-row reading:
when the column pass fails, the rows are walked to find the first format
error, and the first bad line in file order wins.
"""

from __future__ import annotations

import cmath
import csv
import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

UNIT_CIRCLE_TOL = 1e-9


class SpectrumFormatError(ValueError):
    """A length-spectrum file row failed validation."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Representation:
    """Rank-1 unitary twist: trivial, or the character n -> exp(i theta n)."""

    kind: str = "trivial"
    character_angle: float = 0.0

    def __post_init__(self):
        if self.kind not in ("trivial", "character"):
            raise ValueError(f"unknown representation kind {self.kind!r}")
        if not math.isfinite(self.character_angle):
            raise ValueError("character angle must be finite")

    def matrix(self, winding: int) -> np.ndarray:
        if self.kind == "trivial":
            return np.eye(1, dtype=complex)
        return np.array([[cmath.exp(1j * self.character_angle * winding)]])


def _scalar_error(length: float, multiplicity: int) -> str | None:
    """Why PrimeOrbit rejects this length or multiplicity, None if it does not."""
    if not (math.isfinite(length) and length > 0):
        return "orbit length must be positive and finite"
    if isinstance(multiplicity, bool) or not isinstance(multiplicity, (int, np.integer)) or multiplicity < 1:
        return "multiplicity must be a positive integer"
    return None


def _map_errors(maps: np.ndarray) -> list[str | None]:
    """Why PrimeOrbit rejects each map of an (n, 2m, 2m) float stack, None where it passes; the finite
    maps share one stacked eigvals call."""
    finite = np.all(np.isfinite(maps), axis=(1, 2))
    on_circle = np.zeros(len(maps), dtype=bool)
    on_circle[finite] = np.any(np.abs(np.abs(np.linalg.eigvals(maps[finite])) - 1.0) <= UNIT_CIRCLE_TOL, axis=-1)
    return ["Poincare map entries must be finite" if not fin
            else "Poincare map has an eigenvalue on the unit circle" if hit else None
            for fin, hit in zip(finite.tolist(), on_circle.tolist())]


def _rho_errors(rhos: np.ndarray) -> list[str | None]:
    """Why PrimeOrbit rejects each matrix of an (n, r, r) complex stack, None where it passes."""
    finite = np.all(np.isfinite(rhos), axis=(1, 2))
    off_unit = np.zeros(len(rhos), dtype=bool)
    off_unit[finite] = np.any(np.abs(np.linalg.svd(rhos[finite], compute_uv=False) - 1.0) > 1e-8, axis=-1)
    return ["representation value must be finite" if not fin
            else "representation value must be unitary (every singular value 1)" if off else None
            for fin, off in zip(finite.tolist(), off_unit.tolist())]


@dataclass(frozen=True)
class PrimeOrbit:
    """One aggregated class of prime closed orbits sharing (length, P, rho).

    An integer P (the built-in maps A^n) is kept exact, so that downstream
    traces and determinants of it stay exact; any other P is stored as float.
    """

    length: float
    poincare: np.ndarray
    rho: np.ndarray
    multiplicity: int = 1
    period: int | None = None

    def __post_init__(self):
        error = _scalar_error(self.length, self.multiplicity)
        if error:
            raise ValueError(error)
        p = np.asarray(self.poincare)
        # an integer map stays exact: int64, or Python ints where int64 would overflow
        if not (p.dtype.kind in "iu" or (p.dtype.kind == "O" and all(type(x) is int for x in p.flat))):
            p = np.asarray(p, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] % 2:
            raise ValueError("Poincare matrix must be square of even dimension 2m")
        (error,) = _map_errors(np.asarray(p, dtype=float)[None])
        if error:
            raise ValueError(error)
        r = np.asarray(self.rho, dtype=complex)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("representation value must be a square matrix")
        error = _rho_errors(r[None])[0]
        if error:
            raise ValueError(error)
        object.__setattr__(self, "poincare", p)
        object.__setattr__(self, "rho", r)

    @classmethod
    def _from_checked(cls, length: float, poincare: np.ndarray, rho: np.ndarray, multiplicity: int,
                      period: int | None = None) -> "PrimeOrbit":
        """A PrimeOrbit of fields that already passed its checks (the loader checks its records in bulk)."""
        orbit = object.__new__(cls)
        # the fields go straight into the instance dict, past the frozen __setattr__
        orbit.__dict__.update(length=length, poincare=poincare, rho=rho, multiplicity=multiplicity, period=period)
        return orbit

    @property
    def m(self) -> int:
        return self.poincare.shape[0] // 2


@dataclass(frozen=True)
class HyperbolicToralModel:
    """Suspension of a hyperbolic toral automorphism with constant roof."""

    A: tuple[tuple[int, int], tuple[int, int]]
    roof: float = 1.0
    rep: Representation = field(default_factory=Representation)

    def __post_init__(self):
        try:  # a non-integral entry is dropped, leaving its row short; int() raises on NaN or infinity
            a = tuple(tuple(int(x) for x in row if int(x) == x) for row in np.asarray(self.A, dtype=object))
        except (TypeError, ValueError, OverflowError):
            a = ()
        if len(a) != 2 or any(len(r) != 2 for r in a):
            raise ValueError("A must be a 2x2 integer matrix")
        object.__setattr__(self, "A", a)
        if not (math.isfinite(self.roof) and self.roof > 0):
            raise ValueError("roof must be positive and finite")
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        if det not in (1, -1):
            raise ValueError(f"A must be unimodular, got det = {det}")

    def matrix(self) -> np.ndarray:
        return np.array(self.A, dtype=float)


def anosov_check(model: HyperbolicToralModel) -> tuple[bool, float]:
    """Whether the suspension is Anosov, and its contraction rate theta.

    theta is log of the smallest eigenvalue modulus above 1, divided by the
    roof; it is 0.0 when the model fails the check.
    """
    moduli = np.abs(np.linalg.eigvals(model.matrix()))
    if np.any(np.abs(moduli - 1.0) <= UNIT_CIRCLE_TOL):
        return False, 0.0
    expanding = moduli[moduli > 1.0]
    if expanding.size == 0:
        return False, 0.0
    with np.errstate(over="ignore"):  # a roof below the float range's reciprocal gives theta = inf
        return True, float(np.log(np.min(expanding)) / model.roof)


def _census(model: HyperbolicToralModel, n_max: int) -> list[tuple[int, tuple, int]]:
    """(n, A^n, prime-orbit count) for n = 1..n_max: one Anosov check, then A^n by a running exact
    product, its |det(A^n - I)| fixed points sieved over the divisors of n."""
    if not anosov_check(model)[0]:
        raise ValueError("not Anosov: an eigenvalue lies on the unit circle")
    (a, b), (c, d) = model.A
    census, power = [], ((1, 0), (0, 1))
    sieved = [0] * (n_max + 1)  # the fixed points of A^n on orbits of the periods k < n dividing n
    for n in range(1, n_max + 1):
        (p, q), (r, s) = power
        power = ((p * a + q * c, p * b + q * d), (r * a + s * c, r * b + s * d))
        total = abs((power[0][0] - 1) * (power[1][1] - 1) - power[0][1] * power[1][0]) - sieved[n]
        if total % n:
            raise ArithmeticError(f"sieve produced a non-integer count at period {n}")
        census.append((n, power, total // n))
        for multiple in range(2 * n, n_max + 1, n):  # each period's n * count goes to its multiples once
            sieved[multiple] += total
    return census


def enumerate_prime_orbits(model: HyperbolicToralModel, n_max: int) -> list[PrimeOrbit]:
    """Aggregated prime orbits with period <= n_max for the suspension flow. Each A^n of an Anosov A
    is off the unit circle and each character unitary, so only lengths are checked; past int64 A^n
    keeps its Python ints."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    orbits = []
    for n, power, count in _census(model, n_max):
        if count == 0:
            continue
        error = _scalar_error(n * model.roof, count)
        if error:
            raise ValueError(error)
        poincare = np.array(power, dtype=object if max(abs(x) for row in power for x in row) >= 2**63 else None)
        orbits.append(PrimeOrbit._from_checked(n * model.roof, poincare, model.rep.matrix(n), count, n))
    return orbits


SPECTRUM_HEADER = ["length", "multiplicity", "m", "P_entries", "rho_re", "rho_im"]
# the least int that float() overflows on: from 2**1024 - 2**970 on it rounds to 2**1024
FLOAT_OVERFLOW = 2 ** 1024 - 2 ** 970


def _parse_row(row: list[str], line: int, m_first: int | None) -> int:
    """The m of one six-field data row; raises the SpectrumFormatError of its first format error, in
    the order the fields are read, m_first the m of the first data row (None for that row). The column
    pass of the loader calls it only to locate a failure."""
    try:
        float(row[0])
        int(row[1])
        m = int(row[2])
        entries = len(list(map(float, row[3].split(";"))))
        float(row[4]), float(row[5])
    except ValueError as exc:
        raise SpectrumFormatError(str(exc), line) from None
    if m < 1:
        raise SpectrumFormatError(f"m must be a positive integer, found {m}", line)
    if m_first not in (None, m):
        raise SpectrumFormatError(f"m = {m} mixes return maps with the m = {m_first} of the first row", line)
    if entries != 4 * m * m:
        raise SpectrumFormatError(f"P_entries has {entries} values, expected {4 * m * m}", line)
    return m


def _read_rows(path):
    """(line, fields) of each nonempty row of a spectrum file, as csv.reader reads it from
    open(path, newline="", encoding="utf-8-sig"), line the physical line the row starts on. The file
    is decoded in one piece and one reader reads it all: a text with no '"', carriage return or NUL,
    and no line longer than csv.field_size_limit(), is split at its line feeds and commas, which gives
    csv.reader's rows; any other goes through csv.reader, its csv.Error a SpectrumFormatError at the
    line where it stopped. At a byte that is not UTF-8 the rows end before the line that holds it, and
    the byte's SpectrumFormatError is raised after them."""
    with open(path, "rb") as fh:
        try:
            text, stop = fh.read().decode("utf-8-sig"), None
        except UnicodeDecodeError as exc:
            head = exc.object[:exc.start]  # the bytes past a byte-order mark, up to the byte
            text = head[:max(head.rfind(b"\n"), head.rfind(b"\r")) + 1].decode("utf-8")
            stop = SpectrumFormatError(f"file is not UTF-8 text: {exc.reason}")
    lines = text.split("\n")
    if not ('"' in text or "\r" in text or "\0" in text or max(map(len, lines)) > csv.field_size_limit()):
        del text  # the lines hold it: the rows do not keep a second copy alive
        for line_no, line in enumerate(lines, 1):
            if line:
                yield line_no, line.split(",")
    else:
        del lines  # csv.reader splits the text itself
        reader = csv.reader(io.StringIO(text, newline=""))  # the lines of open(path, newline="")
        start = 1
        try:
            for row in reader:
                if row:
                    yield start, row
                start = reader.line_num + 1
        except csv.Error as exc:  # a field past csv.field_size_limit(), or a NUL byte before Python 3.11
            raise SpectrumFormatError(str(exc), reader.line_num) from None
    if stop is not None:
        raise stop


def _parse_columns(rows):
    """(lengths, multiplicities, rho, p_ids, stack) of the data rows, each (line, length, multiplicity,
    m, P_entries, rho_re, rho_im) as read, or None if some row has a format error or the rows' m values
    differ. Each distinct P text is parsed once, in order of first appearance, into one read-only
    (texts, 2m, 2m) float stack: row i's P is stack[p_ids[i]]."""
    n = len(rows)
    _, lengths, multiplicities, ms, ps, rho_re, rho_im = zip(*rows) if rows else ((),) * 7
    try:
        length = np.fromiter(map(float, lengths), float, n)
        multiplicity = list(map(int, multiplicities))
        m = set(map(int, ms))
        rho = np.empty(n, dtype=complex)
        rho.real, rho.imag = np.fromiter(map(float, rho_re), float, n), np.fromiter(map(float, rho_im), float, n)
    except ValueError:
        return None
    if len(m) > 1 or n and not 1 <= min(m) <= 2**20:  # no text in memory holds 4 m^2 entries at m = 2**20
        return None
    side = 2 * max(m, default=0)  # no rows: a (0, 0, 0) stack
    texts = dict(zip(dict.fromkeys(ps), itertools.count()))  # each distinct text to its stack row
    if any(t.count(";") + 1 != side * side for t in texts):
        return None
    try:
        stack = np.fromiter(map(float, itertools.chain.from_iterable(t.split(";") for t in texts)), float,
                            len(texts) * side * side)
    except ValueError:
        return None
    stack = stack.reshape(len(texts), side, side)
    stack.flags.writeable = False  # each orbit's P is a row of it: a checked map of a frozen orbit
    return length, multiplicity, rho, np.fromiter(map(texts.__getitem__, ps), int, n), stack


def _class_starts(lengths: np.ndarray, record_starts: np.ndarray) -> np.ndarray:
    """Which rows open a class, for rows sorted by (record, length, file order) with record_starts
    marking each record's first row.

    A row joins the open class of its record when its length lies within 1e-12 of the class's first
    length; that open class is the only candidate, since every earlier one started more than 1e-12
    lower. A gap over 1e-12 to the previous row always opens a class, so only runs of close lengths
    that span more than 1e-12 are walked row by row.
    """
    opens = record_starts.copy()
    opens[1:] |= lengths[1:] - lengths[:-1] > 1e-12
    starts = np.flatnonzero(opens)
    ends = np.append(starts[1:], opens.size) - 1
    wide = lengths[ends] - lengths[starts] > 1e-12
    for start, end in zip(starts[wide].tolist(), ends[wide].tolist()):
        first = lengths[start]
        for i in range(start + 1, end + 1):
            if lengths[i] - first > 1e-12:
                opens[i], first = True, lengths[i]
    return opens


def load_length_spectrum(path) -> list[PrimeOrbit]:
    """Read a length-spectrum CSV; see SPECTRUM_HEADER for the column contract.

    Lines starting with '#' are skipped. Identical records (same P and rho,
    -0.0 == 0.0, lengths within 1e-12) are aggregated by summing
    multiplicities; output is sorted by ascending length. Reading stops at
    the first format error, which is raised unless an earlier row fails
    validation. Rows are read as csv.reader reads them (see _read_rows) and
    numbered by the physical line they start on; a byte that is not UTF-8
    ends them before its line and is the format error that stops them. Once
    every row passes, a class whose summed multiplicity is past the float
    range is refused at the line that opens it.
    """
    rows = []  # (line, length, multiplicity, m, P_entries, rho_re, rho_im) of each data row
    header = stop = None
    try:
        for line_no, row in _read_rows(path):
            if row[0].startswith("#"):
                continue
            if header is None:
                header = [c.strip() for c in row]
                if header != SPECTRUM_HEADER:
                    raise SpectrumFormatError(f"bad header {header}, expected {SPECTRUM_HEADER}", line_no)
                continue
            if len(row) != len(SPECTRUM_HEADER):
                raise SpectrumFormatError(f"expected {len(SPECTRUM_HEADER)} fields, found {len(row)}", line_no)
            rows.append((line_no, *row))
    except SpectrumFormatError as exc:
        stop = exc
    parsed = _parse_columns(rows)
    if parsed is None:  # some row has a format error: the first one stops the rows, as if read one by one
        m_first = None
        try:
            for i, (line_no, *fields) in enumerate(rows):
                m_first = _parse_row(fields, line_no, m_first)
        except SpectrumFormatError as exc:
            stop = exc
        del rows[i:]
        parsed = _parse_columns(rows)
    lengths, multiplicities, rho, p_ids, stack = parsed
    # one value id per P text, shared by texts of equal floats (-0.0 == 0.0, as the merge requires):
    # np.unique over the bytes of the stack's sign-normalised rows; a (0, 0, 0) stack has no rows to key
    value_of = p_ids
    if len(stack):
        keys = (stack.reshape(len(stack), -1) + 0.0).view(np.dtype((np.void, stack[0].nbytes)))
        value_of = np.unique(keys.ravel(), return_inverse=True)[1].ravel()[p_ids]
    # rows by record (P value, then rho: == also holds -0.0 == 0.0, and never for NaN), then by
    # length, then in file order
    order = np.lexsort((lengths, rho.imag, rho.real, value_of))
    value, re, im = value_of[order], rho.real[order], rho.imag[order]
    record_starts = np.ones(order.size, dtype=bool)
    record_starts[1:] = (value[1:] != value[:-1]) | (re[1:] != re[:-1]) | (im[1:] != im[:-1])
    record_of = np.empty(order.size, dtype=int)
    record_of[order] = np.cumsum(record_starts) - 1
    # each record is checked with the P and rho of its first row in the file: one eigvals call, one
    # svd call
    firsts = np.minimum.reduceat(order, np.flatnonzero(record_starts)) if order.size else order
    record_errors = [map_error or rho_error for map_error, rho_error
                     in zip(_map_errors(stack[p_ids[firsts]]), _rho_errors(rho[firsts].reshape(-1, 1, 1)))]
    bad = np.array([e is not None for e in record_errors], dtype=bool)[record_of]
    bad |= ~(np.isfinite(lengths) & (lengths > 0.0))
    if min(multiplicities, default=1) < 1:
        bad |= np.array([x < 1 for x in multiplicities], dtype=bool)
    if bad.any():
        i = int(np.argmax(bad))
        error = _scalar_error(lengths[i], multiplicities[i]) or record_errors[record_of[i]]
        raise SpectrumFormatError(error, rows[i][0])
    if stop is not None:
        raise stop
    if header is None:
        raise SpectrumFormatError("missing header row")
    if not order.size:
        return []
    # rows of one record merge when their lengths lie within 1e-12 of the class's first length
    starts = np.flatnonzero(_class_starts(lengths[order], record_starts))
    multiplicity = np.add.reduceat(np.array(multiplicities, dtype=object)[order], starts)
    first = order[starts]  # each class's first row in (length, file) order
    # the earliest line opening a class whose multiplicity float() refuses fails
    past = [row for row, total in zip(first.tolist(), multiplicity.tolist()) if total >= FLOAT_OVERFLOW]
    if past:
        raise SpectrumFormatError("class multiplicity is past the float range", rows[min(past)][0])
    by_length = np.lexsort((first, lengths[first]))
    first, multiplicity = first[by_length], multiplicity[by_length].tolist()
    # each class's P is a read-only row of the map stack, its rho a view of one stack
    maps = [stack[k] for k in p_ids[first].tolist()]
    return [PrimeOrbit._from_checked(length, p, r, mult)
            for length, p, r, mult in zip(lengths[first].tolist(), maps, rho[first].reshape(-1, 1, 1), multiplicity)]
