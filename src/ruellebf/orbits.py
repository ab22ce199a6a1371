"""Explicit Anosov models and their prime periodic-orbit data.

Built-in models are suspensions of hyperbolic toral automorphisms with a
constant roof, so orbit lengths are exact multiples of the roof and the
period-n census is the exact integer |det(A^n - I)|. Externally computed
length spectra are ingested from CSV.

Conventions: the rank of the stable bundle is m = 1 for every built-in
model, the stored return map is P = A^n (the forward section map), and the
winding class of a period-n orbit in the suspension circle is n, which is
what a character representation is evaluated on. Contact-ness of the
suspension is not certified; every downstream formula consumes only
(length, P, rho, m).
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass, field, replace

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


@dataclass(frozen=True)
class PrimeOrbit:
    """One aggregated class of prime closed orbits sharing (length, P, rho)."""

    length: float
    poincare: np.ndarray
    rho: np.ndarray
    multiplicity: int = 1
    period: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length > 0):
            raise ValueError("orbit length must be positive and finite")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be a positive integer")
        p = np.asarray(self.poincare, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] % 2:
            raise ValueError("Poincare matrix must be square of even dimension 2m")
        moduli = np.abs(np.linalg.eigvals(p))
        if np.any(np.abs(moduli - 1.0) <= UNIT_CIRCLE_TOL):
            raise ValueError("Poincare map has an eigenvalue on the unit circle")
        r = np.asarray(self.rho, dtype=complex)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("representation value must be a square matrix")
        if not np.all(np.isfinite(r)):
            raise ValueError("representation value must be finite")
        if abs(abs(np.linalg.det(r)) - 1.0) > 1e-8:
            raise ValueError("representation value must be unitary (|det| = 1)")
        object.__setattr__(self, "poincare", p)
        object.__setattr__(self, "rho", r)

    @property
    def m(self) -> int:
        return self.poincare.shape[0] // 2


def _mat_mul_2x2(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _mat_pow_2x2(a, n):
    """Exact integer power of a 2x2 matrix (Python big ints)."""
    result = ((1, 0), (0, 1))
    base = a
    while n:
        if n & 1:
            result = _mat_mul_2x2(result, base)
        base = _mat_mul_2x2(base, base)
        n >>= 1
    return result


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

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.matrix())

    def power(self, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
        return _mat_pow_2x2(self.A, n)


def anosov_check(model: HyperbolicToralModel) -> tuple[bool, float]:
    """Whether the suspension is Anosov, and its contraction rate theta.

    theta is log of the smallest eigenvalue modulus above 1, divided by the
    roof; it is 0.0 when the model fails the check.
    """
    moduli = np.abs(model.eigenvalues())
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
    ok, _ = anosov_check(model)
    if not ok:
        raise ValueError("not Anosov: an eigenvalue lies on the unit circle")
    an = model.power(n)
    det = (an[0][0] - 1) * (an[1][1] - 1) - an[0][1] * an[1][0]
    return abs(det)


def prime_orbit_counts(model: HyperbolicToralModel, n_max: int) -> dict[int, int]:
    """Prime-orbit census per period via the divisor sieve on fixed-point counts."""
    counts = {}
    for n in range(1, n_max + 1):
        total = fixed_point_count(model, n)
        for d in range(1, n):
            if n % d == 0:
                total -= d * counts[d]
        if total % n:
            raise ArithmeticError(f"sieve produced a non-integer count at period {n}")
        counts[n] = total // n
    return counts


def enumerate_prime_orbits(model: HyperbolicToralModel, n_max: int) -> list[PrimeOrbit]:
    """Aggregated prime orbits with period <= n_max for the suspension flow."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    counts = prime_orbit_counts(model, n_max)
    orbits = []
    for n in range(1, n_max + 1):
        if counts[n] == 0:
            continue
        an = np.array(model.power(n), dtype=float)
        orbits.append(
            PrimeOrbit(
                length=n * model.roof,
                poincare=an,
                rho=model.rep.matrix(n),
                multiplicity=counts[n],
                period=n,
            )
        )
    return orbits


SPECTRUM_HEADER = ["length", "multiplicity", "m", "P_entries", "rho_re", "rho_im"]


def _parse_row(row: list[str], line: int) -> PrimeOrbit:
    if len(row) != len(SPECTRUM_HEADER):
        raise SpectrumFormatError(
            f"expected {len(SPECTRUM_HEADER)} fields, found {len(row)}", line
        )
    try:
        length = float(row[0])
        multiplicity = int(row[1])
        m = int(row[2])
        entries = [float(x) for x in row[3].split(";")]
        rho = complex(float(row[4]), float(row[5]))
    except ValueError as exc:
        raise SpectrumFormatError(str(exc), line) from None
    side = 2 * m
    if len(entries) != side * side:
        raise SpectrumFormatError(
            f"P_entries has {len(entries)} values, expected {side * side}", line
        )
    p = np.array(entries, dtype=float).reshape(side, side)
    try:
        return PrimeOrbit(length=length, poincare=p, rho=np.array([[rho]]), multiplicity=multiplicity)
    except ValueError as exc:
        raise SpectrumFormatError(str(exc), line) from None


def load_length_spectrum(path) -> list[PrimeOrbit]:
    """Read a length-spectrum CSV; see SPECTRUM_HEADER for the column contract.

    Lines starting with '#' are skipped. Identical records (same length, P,
    rho) are aggregated by summing multiplicities; output is sorted by
    ascending length.
    """
    orbits: list[PrimeOrbit] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = None
        for line_no, row in enumerate(reader, start=1):
            if not row or (row[0].startswith("#")):
                continue
            if header is None:
                header = [c.strip() for c in row]
                if header != SPECTRUM_HEADER:
                    raise SpectrumFormatError(
                        f"bad header {header}, expected {SPECTRUM_HEADER}", line_no
                    )
                continue
            orbits.append(_parse_row(row, line_no))
    if header is None:
        raise SpectrumFormatError("missing header row")
    # records merge when P and rho match exactly (-0.0 == 0.0) and lengths
    # lie within 1e-12; a bucket per (P, rho) keeps the merge linear in rows
    merged: list[PrimeOrbit] = []
    counts: list[int] = []
    buckets: dict[tuple, list[int]] = {}
    for orbit in sorted(orbits, key=lambda o: o.length):
        key = (orbit.poincare.shape, (orbit.poincare + 0.0).tobytes(), (orbit.rho + 0.0).tobytes())
        bucket = buckets.setdefault(key, [])
        for i in bucket:
            if math.isclose(merged[i].length, orbit.length, rel_tol=0, abs_tol=1e-12):
                counts[i] += orbit.multiplicity
                break
        else:
            bucket.append(len(merged))
            merged.append(orbit)
            counts.append(orbit.multiplicity)
    return [
        orbit if count == orbit.multiplicity else replace(orbit, multiplicity=count)
        for orbit, count in zip(merged, counts)
    ]
