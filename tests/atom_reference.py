"""The per-atom atom table and log zeta sum that the stacked ones in flat_zeta replaced, kept as
the references the stacked columns are compared with bit for bit.

Each atom is formed on its own: P^j by one product per repetition (on an object array of Python
ints for an integer or integer-valued map), its transversality scale by the scalar
_transversality_scale and its determinant in Python floats (or exact ints), its Euler coefficient
from np.linalg.matrix_power of rho, its weights by Python complex division; log zeta adds the
atoms' terms one at a time. The scalar transversality check, _transversality_denominator, lives
here: atom_table checks every atom in one stacked pass, and this check, atom by atom, is what that
pass is compared with. _integer_entries reads a map as rows of Python ints, the key of _char_poly.
"""

from __future__ import annotations

import math

import numpy as np

from ruellebf.flat_zeta import (
    EXACT_INT_LIMIT,
    NON_TRANSVERSE_RTOL,
    AtomTable,
    NonTransverseOrbitError,
    _char_poly,
    _float_char_polys,
    _float_or_inf,
    _geometric_tails,
)


def _integer_entries(P: np.ndarray) -> tuple[tuple[int, ...], ...] | None:
    """P as a tuple of rows of Python ints when every entry is an exact integer (floats below
    EXACT_INT_LIMIT in magnitude, Python ints at any size), else None."""
    rows = P.tolist()
    exact = P.dtype.kind in "iufO" and all(
        isinstance(x, int) or (isinstance(x, float) and x.is_integer() and abs(x) < EXACT_INT_LIMIT)
        for row in rows for x in row
    )
    return tuple(tuple(int(x) for x in row) for row in rows) if exact else None


def _transversality_scale(p_power) -> float:
    """max(1, max|I - P^j|)^d, the scale of the transversality threshold, of an array or of rows of
    numbers; inf past the float range."""
    rows = p_power.tolist() if isinstance(p_power, np.ndarray) else p_power
    base = max([1.0] + [abs((i == j) - x) for i, row in enumerate(rows) for j, x in enumerate(row)])
    with np.errstate(over="ignore"):  # an integer base keeps its exact power
        return _float_or_inf(base ** len(rows) if isinstance(base, int) else np.float64(base) ** len(rows))


def _transversality_denominator(e: list, scale: float) -> float:
    """det(I - P^j) = sum_k (-1)^k e_k from the traces e = _char_poly(P^j), exact
    for integer-valued P^j; raises when it is not finite or is below 1e-12 times the
    _transversality_scale of P^j, so always when that scale is inf. An exact det past
    the float range counts as inf, as a float one does."""
    det = sum((-1) ** k * x for k, x in enumerate(e))
    size = _float_or_inf(abs(det))
    if not NON_TRANSVERSE_RTOL * scale <= size < math.inf:
        raise NonTransverseOrbitError(f"non-transverse orbit: |det(I - P^j)| = {size:.3e}")
    return float(det.real)


def reference_atom_table(orbits, m: int, L_max: float) -> AtomTable:
    """atom_table, one atom at a time."""
    atoms = []  # (t, input position, j, P^j, scale)
    for pos, orbit in enumerate(orbits):
        if orbit.poincare.shape[0] != 2 * m:
            d = orbit.poincare.shape[0]
            raise ValueError(f"orbit carries a {d}x{d} return map, expected 2m = {2 * m}")
        if orbit.rho.shape != orbits[0].rho.shape:
            r, s = orbits[0].rho.shape[0], orbit.rho.shape[0]
            raise ValueError(f"orbit carries a {s}x{s} twist, expected the {r}x{r} of the first orbit")
        exact = _integer_entries(orbit.poincare)
        base = orbit.poincare if exact is None else np.array(exact, dtype=object).reshape(orbit.poincare.shape)
        j, p_power, scale = 1, base, 0.0
        while j * orbit.length <= L_max * (1 + 1e-12) and scale < math.inf:
            scale = _transversality_scale(p_power)
            atoms.append((j * orbit.length, pos, j, p_power, scale))
            j += 1
            with np.errstate(over="ignore", invalid="ignore"):
                p_power = p_power @ base
    atoms.sort(key=lambda atom: atom[:3])
    floating = [a for a, (*_, p, _) in enumerate(atoms) if p.dtype != object and _integer_entries(p) is None]
    maps = np.array([atoms[a][3] for a in floating], dtype=float).reshape(len(floating), 2 * m, 2 * m)
    finite = np.isfinite(maps).all(axis=(1, 2))
    polys = dict.fromkeys(floating, [math.nan] * (2 * m + 1))
    polys.update(zip(np.compress(finite, floating).tolist(), _float_char_polys(maps[finite]).tolist()))
    t, euler, weights, sign = [], [], [], []
    for a, (time, pos, j, p_power, scale) in enumerate(atoms):
        e = polys[a] if a in polys else _char_poly(_integer_entries(p_power))
        det = _transversality_denominator(e, scale)
        t.append(time)
        euler.append(-orbits[pos].multiplicity * complex(np.trace(np.linalg.matrix_power(orbits[pos].rho, j))) / j)
        weights.append([complex(x) / abs(det) for x in e])
        sign.append((-1) ** m * math.copysign(1.0, det))
    group_times, group = np.unique(np.array(t, dtype=float), return_inverse=True)
    return AtomTable(
        m, np.array(t, dtype=float), np.array(euler, dtype=complex),
        np.array(weights, dtype=complex).reshape(len(t), 2 * m + 1), np.array(sign, dtype=float),
        group, group_times, min((o.length for o in orbits), default=math.inf),
    )


def assert_same_table(table: AtomTable, reference: AtomTable) -> None:
    """Assert that two atom tables hold the same columns, bit for bit."""
    assert (table.m, table.t_min) == (reference.m, reference.t_min)
    for name in ("t", "euler", "weights", "sign", "group", "group_times"):
        got, want = getattr(table, name), getattr(reference, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name


def reference_log_zeta(table: AtomTable, lambdas) -> tuple[np.ndarray, np.ndarray]:
    """AtomTable.log_zeta, adding one atom's terms at a time to the whole grid."""
    lambdas = np.asarray(lambdas, dtype=complex).reshape(-1)
    columns = np.column_stack([table.weights * table.euler[:, None], table.euler, table.sign * table.euler])
    shape = (lambdas.size, columns.shape[1])
    re, im = np.zeros(shape), np.zeros(shape)
    mags = np.zeros(shape + (table.group_times.size,))
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.exp(np.outer(-lambdas, table.t))
        for a, g in enumerate(table.group):
            x, y, c = phase[:, a, None].real, phase[:, a, None].imag, columns[a]
            term_re, term_im = x * c.real - y * c.imag, x * c.imag + y * c.real
            re += term_re
            im += term_im
            mags[:, :, g] += np.hypot(term_re, term_im)
    values = re.astype(complex)
    values.imag = im
    tails = _geometric_tails(table.group_times, mags.reshape(shape[0] * shape[1], -1)).reshape(shape)
    if math.isfinite(table.t_min):
        tails[lambdas.real <= 0, 2 * table.m + 1] = math.inf
        if not table.t.size:
            tails[:] = math.inf
    return values, tails
