"""Orbit sums: flat traces as atomic distributions and regularized determinants.

Evolution semigroups of the orbit models have flat traces supported on the
closed-orbit lengths; truncating those atom sums gives the per-degree log
zeta factors, the Euler product, and the alternating assembly. All of them
reduce one AtomTable, built once per (orbits, m, L_max), with the
transversality check run once per atom. A lambda grid is evaluated in one
pass, summed in the fixed atom order (ascending time, then input order, then
repetition), so values are bit-stable, the same for a lambda alone as inside
any grid, and each carries a geometric tail estimate. An atom's exterior
traces tr(wedge^k P^j) and det(I - P^j) come from one characteristic
polynomial of P^j: in exact integers for integer-valued return maps, from
the eigenvalues for float ones. The finite float P^j of a whole table share
one stacked eigvals call and one recurrence for their coefficients, run in
real arithmetic over the stack and so independent of the BLAS build.

Branch convention: principal logarithms everywhere, with log zeta built
additively from per-orbit terms so no product-branch ambiguity arises.
Evaluations that cannot be certified convergent are returned with
tail_bound = inf rather than extrapolated.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

NON_TRANSVERSE_RTOL = 1e-12
# float64 holds every integer of smaller magnitude exactly
EXACT_INT_LIMIT = 2.0 ** 53
TAIL_WINDOW = 6


class NonTransverseOrbitError(ArithmeticError):
    """det(I - P^j) fell below the transversality threshold."""


class BranchCutError(ValueError):
    """An eigenvalue crossed the principal-branch cut of the logarithm."""


def _integer_entries(P: np.ndarray) -> list[list[int]] | None:
    """P as rows of Python ints when every entry is an exact integer (floats
    below EXACT_INT_LIMIT in magnitude, Python ints at any size), else None."""
    rows = P.tolist()
    exact = P.dtype.kind in "iufO" and all(
        isinstance(x, int) or (isinstance(x, float) and x.is_integer() and abs(x) < EXACT_INT_LIMIT)
        for row in rows for x in row
    )
    return [[int(x) for x in row] for row in rows] if exact else None


def _float_char_polys(maps: np.ndarray) -> np.ndarray:
    """[e_0, ..., e_d] for each map of an (n, d, d) stack of finite float maps, from one stacked eigvals call.

    The recurrence c[1:] -= r * c[:-1] runs root by root in LAPACK order over the whole stack, the
    complex product spelled out in real arithmetic: each row is bit for bit a plain complex
    recurrence over its map's eigenvalues, whatever the BLAS build. A real map gets the real part.
    """
    roots = np.linalg.eigvals(maps)
    n, d = roots.shape
    re, im = np.zeros((n, d + 1)), np.zeros((n, d + 1))
    re[:, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: inf or nan coefficients
        for k in range(d):
            a, b, x, y = roots.real[:, k, None], roots.imag[:, k, None], re[:, :k + 1], im[:, :k + 1]
            product_re, product_im = a * x - b * y, a * y + b * x
            re[:, 1:k + 2] -= product_re
            im[:, 1:k + 2] -= product_im
    return (re + 1j * im if np.iscomplexobj(maps) else re) * (-1.0) ** np.arange(d + 1)


def _char_poly(P) -> list:
    """[e_0, ..., e_d], e_k = tr(wedge^k P), the sum of all k x k principal minors.

    Integer-valued P: Faddeev-LeVerrier in exact integers, M_1 = I,
    e_k = (-1)^(k+1) tr(A M_k) / k (an exact division), M_{k+1} = A M_k + (-1)^k e_k I.
    Otherwise the elementary symmetric functions of the eigenvalues, as
    _float_char_polys computes them for a stack.
    """
    P = np.asarray(P)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("P must be square")
    a = _integer_entries(P)
    if a is None:
        return _float_char_polys(P[None])[0].tolist()
    d = len(a)
    e = [1]
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        am = [[sum(a[i][l] * m[l][j] for l in range(d)) for j in range(d)] for i in range(d)]
        e.append((-1) ** (k + 1) * sum(am[i][i] for i in range(d)) // k)
        shift = (-1) ** k * e[k]
        m = [[am[i][j] + (shift if i == j else 0) for j in range(d)] for i in range(d)]
    return e


def exterior_power_trace(P: np.ndarray, k: int) -> complex:
    """tr of the k-th exterior power: e_k of the characteristic polynomial of P
    (exact when P is integer-valued)."""
    e = _char_poly(P)
    if not 0 <= k < len(e):
        raise ValueError(f"k = {k} outside 0..{len(e) - 1}")
    return complex(e[k])


@dataclass(frozen=True)
class AtomicDistribution:
    """Finite sum of Dirac atoms on the positive half-line."""

    atoms: tuple[tuple[float, complex], ...]
    t_min: float

    def __post_init__(self):
        atoms = tuple((float(t), complex(w)) for t, w in self.atoms)
        if any(t < self.t_min or t <= 0 for t, _ in atoms):
            raise ValueError("atom times must be >= t_min > 0")
        if any(not (math.isfinite(w.real) and math.isfinite(w.imag)) for _, w in atoms):
            raise ValueError("atom weights must be finite")
        if list(atoms) != sorted(atoms, key=lambda a: a[0]):
            raise ValueError("atoms must be sorted by time")
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def empty(cls) -> "AtomicDistribution":
        return cls((), math.inf)


@dataclass(frozen=True)
class ZetaSeries:
    """Truncated log zeta value with its truncation metadata."""

    lam: complex
    k: int | None
    value: complex
    L_max: float
    tail_bound: float


def _float_or_inf(x) -> float:
    """float(x), or an infinity of its sign for an exact integer past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _transversality_scale(p_power: np.ndarray) -> float:
    """max(1, max|I - P^j|)^d, the scale of the transversality threshold; inf past the float range."""
    rows = p_power.tolist()
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


def _orbit_power_terms(orbits, L_max: float):
    """(t, orbit, j, P^j, scale) for j * length <= L_max, ascending t then input order;
    integer-valued return maps are raised to powers in Python ints. An orbit's powers stop
    at the first P^j whose _transversality_scale is inf: that atom fails its check, and
    the powers past it, which grow without bound, are never built."""
    items = []
    for pos, orbit in enumerate(orbits):
        exact = _integer_entries(orbit.poincare)
        base = orbit.poincare if exact is None else np.array(exact, dtype=object).reshape(orbit.poincare.shape)
        j, p_power, scale = 1, base, 0.0
        while j * orbit.length <= L_max * (1 + 1e-12) and scale < math.inf:
            scale = _transversality_scale(p_power)
            items.append((j * orbit.length, pos, j, p_power, scale))
            j += 1
            # a P^j past the float range is reported at its atom, or an earlier one, by atom_table
            with np.errstate(over="ignore", invalid="ignore"):
                p_power = p_power @ base
    items.sort(key=lambda item: item[:3])
    return [(t, orbits[pos], j, p, scale) for t, pos, j, p, scale in items]


def _geometric_tails(times: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """Tail estimate per row of mags (rows x time groups) from its trailing groups.

    A least-squares line through the logs of the last TAIL_WINDOW positive
    groups absorbs the lumpiness of period-truncated orbit censuses; the
    fitted decay ratio is inflated by 10% because the ratio approaches its
    limit from below for the built-in models (a 1/n prefactor). A row with
    under two positive groups or no decay gets inf; no groups at all give 0.
    """
    if times.size == 0:
        return np.zeros(mags.shape[0])
    positive = mags > 0.0
    window = positive & (np.cumsum(positive[:, ::-1], axis=1)[:, ::-1] <= TAIL_WINDOW)
    first = np.argmax(window, axis=1)
    last = times.size - 1 - np.argmax(window[:, ::-1], axis=1)
    n = window.sum(axis=1)
    with np.errstate(all="ignore"):  # rows with under two points divide by zero here and are dropped
        logs = np.log(np.where(window, mags, 1.0))
        t_mean = (window * times).sum(axis=1) / n
        log_mean = (window * logs).sum(axis=1) / n
        dt = window * (times - t_mean[:, None])
        slope = (dt * (logs - log_mean[:, None])).sum(axis=1) / (dt * dt).sum(axis=1)
        ratio = np.exp(slope * (times[last] - times[first]) / (n - 1)) * 1.1
        amplitude = np.maximum(mags[np.arange(n.size), last], np.exp(log_mean + slope * (times[last] - t_mean)))
        tails = amplitude * ratio / (1.0 - ratio)
    return np.where((n >= 2) & (slope < 0.0) & (ratio < 1.0), tails, math.inf)


@dataclass(frozen=True)
class AtomTable:
    """Per-atom columns of an orbit set up to L_max, in the fixed summation order.

    t: atom time j * length; euler: -mult tr(rho^j) / j; weights[:, k]:
    tr(wedge^k P^j) / |det(I - P^j)|, k = 0..2m; sign: the assembly sign
    (-1)^m sum_k (-1)^k weights[:, k]; group: index into group_times, the
    distinct atom times. t_min is the shortest orbit length (inf for none).
    """

    m: int
    t: np.ndarray
    euler: np.ndarray
    weights: np.ndarray
    sign: np.ndarray
    group: np.ndarray
    group_times: np.ndarray
    t_min: float

    def flat_weights(self) -> np.ndarray:
        """Atoms x degrees: mult * length * tr(rho^j) * weights."""
        return (-self.t * self.euler)[:, None] * self.weights

    def log_zeta(self, lambdas) -> tuple[np.ndarray, np.ndarray]:
        """(values, tails), lambdas x (2m + 3): log zeta_k for k = 0..2m, the
        Euler sum, the assembly. With orbits, the Euler tail is inf at Re lambda <= 0.
        Terms are formed in real arithmetic and added atom by atom in table
        order, so no lambda's result depends on the rest of the grid."""
        lambdas = np.asarray(lambdas, dtype=complex).reshape(-1)
        columns = np.column_stack([self.weights * self.euler[:, None], self.euler, self.sign * self.euler])
        shape = (lambdas.size, columns.shape[1])
        re, im = np.zeros(shape), np.zeros(shape)
        mags = np.zeros(shape + (self.group_times.size,))
        # far left of the axis e^{-lambda t} overflows: inf or nan values with inf tail bounds
        with np.errstate(over="ignore", invalid="ignore"):
            phase = np.exp(np.outer(-lambdas, self.t))
            for a, g in enumerate(self.group):
                x, y, c = phase[:, a, None].real, phase[:, a, None].imag, columns[a]
                term_re, term_im = x * c.real - y * c.imag, x * c.imag + y * c.real
                re += term_re
                im += term_im
                mags[:, :, g] += np.hypot(term_re, term_im)
        values = re.astype(complex)
        values.imag = im
        tails = _geometric_tails(self.group_times, mags.reshape(shape[0] * shape[1], -1)).reshape(shape)
        if math.isfinite(self.t_min):
            tails[lambdas.real <= 0, 2 * self.m + 1] = math.inf
        return values, tails


def atom_table(orbits, m: int, L_max: float) -> AtomTable:
    """The atom table of orbits up to L_max; every return map must be 2m x 2m.

    The characteristic polynomials of all finite float P^j come from one stacked eigendecomposition;
    integer-valued P^j keep the exact route of _char_poly; a non-finite P^j fails its transversality check.
    """
    terms = _orbit_power_terms(orbits, L_max)
    # object arrays hold the Python-int powers of integer maps; a float P^j may still be integer-valued
    floating = [a for a, (*_, p, _) in enumerate(terms)
                if p.dtype != object and p.shape[0] == 2 * m and _integer_entries(p) is None]
    maps = np.array([terms[a][3] for a in floating], dtype=float).reshape(len(floating), 2 * m, 2 * m)
    finite = np.isfinite(maps).all(axis=(1, 2))
    polys = dict.fromkeys(floating, [math.nan] * (2 * m + 1))
    polys.update(zip(np.compress(finite, floating).tolist(), _float_char_polys(maps[finite]).tolist()))
    t, euler, weights, sign = [], [], [], []
    for a, (time, orbit, j, p_power, scale) in enumerate(terms):
        if p_power.shape[0] != 2 * m:
            d = p_power.shape[0]
            raise ValueError(f"orbit carries a {d}x{d} return map, expected 2m = {2 * m}")
        e = polys[a] if a in polys else _char_poly(p_power)
        det = _transversality_denominator(e, scale)
        t.append(time)
        euler.append(-orbit.multiplicity * complex(np.trace(np.linalg.matrix_power(orbit.rho, j))) / j)
        weights.append([complex(x) / abs(det) for x in e])
        sign.append((-1) ** m * math.copysign(1.0, det))
    group_times, group = np.unique(np.array(t, dtype=float), return_inverse=True)
    return AtomTable(
        m, np.array(t, dtype=float), np.array(euler, dtype=complex),
        np.array(weights, dtype=complex).reshape(len(t), 2 * m + 1), np.array(sign, dtype=float),
        group, group_times, min((o.length for o in orbits), default=math.inf),
    )


def _series(orbits, m: int, lam, L_max: float, column: int, k: int | None = None) -> ZetaSeries:
    values, tails = atom_table(orbits, m, L_max).log_zeta([lam])
    return ZetaSeries(lam, k, complex(values[0, column]), float(L_max), float(tails[0, column]))


def flat_trace_evolution(orbits, k: int, t_max: float) -> AtomicDistribution:
    """Atoms of the flat trace of the degree-k evolution semigroup up to t_max.

    Each (orbit, repetition) pair contributes the atom at t = j * length with
    weight length * tr(rho^j) * tr(wedge^k P^j) / |det(I - P^j)|.
    """
    if not orbits:
        return AtomicDistribution.empty()
    if not 0 <= k <= 2 * orbits[0].m:
        raise ValueError(f"k = {k} outside 0..{2 * orbits[0].m}")
    table = atom_table(orbits, orbits[0].m, t_max)
    merged = np.zeros(table.group_times.size, dtype=complex)
    np.add.at(merged, table.group, table.flat_weights()[:, k])
    return AtomicDistribution(tuple(zip(table.group_times.tolist(), merged.tolist())), table.t_min)


def log_zeta_k(orbits, k: int, lam: complex, L_max: float) -> ZetaSeries:
    """Truncated log of the degree-k zeta factor.

    Each (orbit, j) term is -exp(-lam j l) / j * tr(rho^j) tr(wedge^k P^j)
    / |det(I - P^j)|; divergence is reported through tail_bound = inf.
    """
    if not orbits:
        return ZetaSeries(lam, k, 0j, float(L_max), 0.0)
    if not 0 <= k <= 2 * orbits[0].m:
        raise ValueError(f"k = {k} outside 0..{2 * orbits[0].m}")
    return _series(orbits, orbits[0].m, lam, L_max, k, k)


def euler_product_log_zeta(orbits, lam: complex, L_max: float) -> ZetaSeries:
    """Truncated log of the Euler product via -sum_j tr(rho^j) e^{-lam j l} / j."""
    m = orbits[0].m if orbits else 0
    return _series(orbits, m, lam, L_max, 2 * m + 1)


def alternating_assembly(orbits, m: int, lam: complex, L_max: float) -> ZetaSeries:
    """(-1)^m alternating sum over form degrees of the log zeta factors.

    Combined atom-wise: per (orbit, j) the alternating minor sum equals
    det(I - P^j), so the degree-combined weight is the exact sign
    (-1)^m sgn det(I - P^j) times the Euler term. For integer return maps
    the sign is an exact +-1.0 and shared-truncation agreement with the
    Euler expansion is exact, not merely close.
    """
    return _series(orbits, m, lam, L_max, 2 * m + 2)


def flat_determinant_orbit(orbits, k: int, lam: complex, L_max: float) -> complex:
    """Flat determinant det(L_k + lam) from the orbit atoms: exp(log zeta_k)."""
    return cmath.exp(log_zeta_k(orbits, k, lam, L_max).value)


def flat_det_via_F(generator: np.ndarray, lam: complex = 0.0) -> complex:
    """Regularized determinant of a matrix semigroup generator, shifted by lam.

    The Mellin-normalized trace F(s, lam) = sum_i (mu_i + lam)^{-s} has
    -dF/ds at s = 0 equal to sum_i log(mu_i + lam), so the determinant is the
    plain eigenvalue product, provided every shifted eigenvalue stays off the
    principal branch cut (Re > 0 required).
    """
    mu = np.linalg.eigvals(np.asarray(generator, dtype=complex)) + lam
    if np.any(mu.real <= 0):
        raise BranchCutError("an eigenvalue of generator + lam has non-positive real part")
    return cmath.exp(complex(np.sum(np.log(mu))))


def flat_trace_cyclicity_check(A: np.ndarray, B: np.ndarray, tol: float = 1e-10) -> bool:
    """Finite-dimensional shadow of trace cyclicity: |tr(AB) - tr(BA)| < tol."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0] or B.shape[1] != A.shape[0]:
        raise ValueError("matrices are not composable both ways")
    return abs(complex(np.trace(A @ B)) - complex(np.trace(B @ A))) < tol


def zeta_grid_rows(orbits, m: int, lambdas, L_max: float) -> list[dict]:
    """Evaluation table rows for a lambda grid, from one atom table; the k = -1
    row is the Euler sum. The defect column repeats |assembly - euler| at
    shared truncation for every row of the same lambda.
    """
    lams = [complex(lam) for lam in lambdas]
    values, tails = atom_table(orbits, m, L_max).log_zeta(lams)
    rows = []
    for lam, vals, tls in zip(lams, values.tolist(), tails.tolist()):
        defect = abs(vals[-1] - vals[-2])
        for col, k in enumerate([*range(2 * m + 1), -1]):
            rows.append({"re_lambda": lam.real, "im_lambda": lam.imag, "k": k,
                         "re_logzeta": vals[col].real, "im_logzeta": vals[col].imag,
                         "tail_bound": tls[col], "L_max": float(L_max), "defect": defect})
    return rows
