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

The loader parses every row first, validates each distinct (P, rho) record
once (one stacked eigvals call per map size for the unit-circle check, one
stacked svd for the representation values), then merges the rows into
classes and builds each class's PrimeOrbit once. Errors are those of
row-by-row validation: the first bad line in file order wins.
"""

from __future__ import annotations

import cmath
import csv
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

    def matrix(self, winding: int) -> np.ndarray:
        if self.kind == "trivial":
            return np.eye(1, dtype=complex)
        return np.array([[cmath.exp(1j * self.character_angle * winding)]])


def _scalar_error(length: float, multiplicity: int) -> str | None:
    """Why PrimeOrbit rejects this length or multiplicity, None if it does not."""
    if not (math.isfinite(length) and length > 0):
        return "orbit length must be positive and finite"
    if multiplicity < 1:
        return "multiplicity must be a positive integer"
    return None


def _map_errors(maps: np.ndarray) -> list[str | None]:
    """Why PrimeOrbit rejects each map of an (n, 2m, 2m) float stack, None where it passes;
    the finite maps share one stacked eigvals call."""
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
        error = _map_errors(np.asarray(p, dtype=float)[None])[0]
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
        for name, value in (("length", length), ("poincare", poincare), ("rho", rho),
                            ("multiplicity", multiplicity), ("period", period)):
            object.__setattr__(orbit, name, value)
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
        a = tuple(tuple(int(x) for x in row) for row in np.asarray(self.A, dtype=object))
        if len(a) != 2 or any(len(r) != 2 for r in a):
            raise ValueError("A must be a 2x2 integer matrix")
        object.__setattr__(self, "A", a)
        if self.roof <= 0:
            raise ValueError("roof must be positive")
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        if det not in (1, -1):
            raise ValueError(f"A must be unimodular, got det = {det}")

    def matrix(self) -> np.ndarray:
        return np.array(self.A, dtype=float)

    def power(self, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """Exact integer power A^n (Python big ints)."""
        an = np.linalg.matrix_power(np.array(self.A, dtype=object), n)
        return tuple(tuple(int(x) for x in row) for row in an)


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
    return True, float(np.log(np.min(expanding)) / model.roof)


def fixed_point_count(model: HyperbolicToralModel, n: int) -> int:
    """Number of fixed points of the n-th iterate on the torus: |det(A^n - I)|."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not anosov_check(model)[0]:
        raise ValueError("not Anosov: an eigenvalue lies on the unit circle")
    an = model.power(n)
    det = (an[0][0] - 1) * (an[1][1] - 1) - an[0][1] * an[1][0]
    return abs(det)


def _census(model: HyperbolicToralModel, n_max: int) -> list[tuple[int, tuple, int]]:
    """(n, A^n, prime-orbit count) for n = 1..n_max: one Anosov check, then A^n by a running exact
    product, its |det(A^n - I)| fixed points sieved over the divisors of n."""
    if not anosov_check(model)[0]:
        raise ValueError("not Anosov: an eigenvalue lies on the unit circle")
    (a, b), (c, d) = model.A
    census, power = [], ((1, 0), (0, 1))
    for n in range(1, n_max + 1):
        (p, q), (r, s) = power
        power = ((p * a + q * c, p * b + q * d), (r * a + s * c, r * b + s * d))
        total = abs((power[0][0] - 1) * (power[1][1] - 1) - power[0][1] * power[1][0])
        total -= sum(k * census[k - 1][2] for k in range(1, n) if n % k == 0)
        if total % n:
            raise ArithmeticError(f"sieve produced a non-integer count at period {n}")
        census.append((n, power, total // n))
    return census


def prime_orbit_counts(model: HyperbolicToralModel, n_max: int) -> dict[int, int]:
    """Prime-orbit census per period via the divisor sieve on fixed-point counts."""
    return {n: count for n, _, count in _census(model, n_max)}


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


def _parse_row(row: list[str], line: int, parsed: dict[str, tuple]) -> tuple:
    """(line, length, multiplicity, P entries, rho) of one data row; raises on a format error.

    parsed maps P_entries texts already read to their floats: rows repeating a text share one
    tuple, which keeps a file of duplicated records small in memory.
    """
    if len(row) != len(SPECTRUM_HEADER):
        raise SpectrumFormatError(
            f"expected {len(SPECTRUM_HEADER)} fields, found {len(row)}", line
        )
    try:
        length = float(row[0])
        multiplicity = int(row[1])
        m = int(row[2])
        entries = parsed.get(row[3]) or parsed.setdefault(row[3], tuple(map(float, row[3].split(";"))))
        rho = complex(float(row[4]), float(row[5]))
    except ValueError as exc:
        raise SpectrumFormatError(str(exc), line) from None
    if m < 1:
        raise SpectrumFormatError(f"m must be a positive integer, found {m}", line)
    side = 2 * m
    if len(entries) != side * side:
        raise SpectrumFormatError(
            f"P_entries has {len(entries)} values, expected {side * side}", line
        )
    return line, length, multiplicity, entries, rho


def _record_errors(records: list[tuple]) -> list[str | None]:
    """PrimeOrbit's map and rho checks of each distinct (P entries, rho) record, stacked:
    one eigvals call per map size and one det call."""
    map_errors = [None] * len(records)
    by_size: dict[int, list[int]] = {}
    for i, (entries, _) in enumerate(records):
        by_size.setdefault(len(entries), []).append(i)
    for size, idx in by_size.items():
        side = math.isqrt(size)
        maps = np.array([records[i][0] for i in idx], dtype=float).reshape(-1, side, side)
        for i, error in zip(idx, _map_errors(maps)):
            map_errors[i] = error
    rho_errors = _rho_errors(np.array([rho for _, rho in records], dtype=complex).reshape(-1, 1, 1))
    return [a or b for a, b in zip(map_errors, rho_errors)]


def load_length_spectrum(path) -> list[PrimeOrbit]:
    """Read a length-spectrum CSV; see SPECTRUM_HEADER for the column contract.

    Lines starting with '#' are skipped. Identical records (same P and rho,
    -0.0 == 0.0, lengths within 1e-12) are aggregated by summing
    multiplicities; output is sorted by ascending length. Reading stops at
    the first format error, which is raised unless an earlier row fails
    validation.
    """
    rows = []
    parsed: dict[str, tuple] = {}
    stop = None
    header = None
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            for line_no, row in enumerate(csv.reader(fh), start=1):
                if not row or (row[0].startswith("#")):
                    continue
                if header is None:
                    header = [c.strip() for c in row]
                    if header != SPECTRUM_HEADER:
                        raise SpectrumFormatError(
                            f"bad header {header}, expected {SPECTRUM_HEADER}", line_no
                        )
                    continue
                rows.append(_parse_row(row, line_no, parsed))
        except SpectrumFormatError as exc:
            stop = exc
        except UnicodeDecodeError as exc:
            stop = SpectrumFormatError(f"file is not UTF-8 text: {exc.reason}")
    # tuples of floats compare -0.0 == 0.0, as the merge requires
    records: dict[tuple, int] = {}
    record_of = [records.setdefault((entries, rho), len(records)) for _, _, _, entries, rho in rows]
    record_errors = _record_errors(list(records))
    for (line, length, multiplicity, _, _), record in zip(rows, record_of):
        error = _scalar_error(length, multiplicity) or record_errors[record]
        if error:
            raise SpectrumFormatError(error, line)
    if stop is not None:
        raise stop
    if header is None:
        raise SpectrumFormatError("missing header row")
    # rows of one record merge when their lengths lie within 1e-12 of the class's first length
    classes: list[list[int]] = []  # [representative row, multiplicity]
    buckets: dict[int, list[int]] = {}
    for i in sorted(range(len(rows)), key=lambda i: rows[i][1]):
        bucket = buckets.setdefault(record_of[i], [])
        for c in bucket:
            if math.isclose(rows[classes[c][0]][1], rows[i][1], rel_tol=0, abs_tol=1e-12):
                classes[c][1] += rows[i][2]
                break
        else:
            bucket.append(len(classes))
            classes.append([i, rows[i][2]])
    orbits = []
    for i, multiplicity in classes:
        _, length, _, entries, rho = rows[i]
        side = math.isqrt(len(entries))
        p = np.array(entries, dtype=float).reshape(side, side)
        orbits.append(PrimeOrbit._from_checked(length, p, np.array([[rho]], dtype=complex), multiplicity))
    return orbits
