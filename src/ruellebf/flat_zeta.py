"""Orbit sums: flat traces as atomic distributions and regularized determinants.

Evolution semigroups of the orbit models have flat traces supported on the
closed-orbit lengths; truncating those atom sums gives the per-degree log
zeta factors, the Euler product, and the alternating assembly. All of them
are columns of AtomTable.log_zeta: a caller builds one AtomTable per
(orbits, m, L_max), with the transversality check run once per atom, and
reads its columns over a whole lambda grid. An atom's exterior traces
tr(wedge^k P^j) and det(I - P^j) come from one characteristic polynomial of
P^j: in exact integers for integer-valued return maps, from the eigenvalues
for float ones, whose atoms atom_table builds in stacked arrays independent
of the BLAS build. A lambda grid is evaluated in blocks of a fixed element
budget, so temporaries stay small, and summed in the fixed atom order
(ascending time, then input order, then repetition), so values are
bit-stable, the same for a lambda alone as inside any grid, and each carries
a geometric tail estimate.

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
REACH_FACTOR = 1 + 1e-12  # an atom time j * length <= L_max * REACH_FACTOR is within L_max
# float64 holds every integer of smaller magnitude exactly
EXACT_INT_LIMIT = 2.0 ** 53
TAIL_WINDOW = 6
# elements of a log_zeta block (lambdas x columns x atoms): about 2 MB per float64 temporary
LOG_ZETA_BLOCK = 2 ** 18


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


def _float_char_polys(maps: np.ndarray, roots: np.ndarray | None = None) -> np.ndarray:
    """[e_0, ..., e_d] for each map of an (n, d, d) stack of finite float maps, from one stacked eigvals
    call, or from roots, the (n, d) eigenvalues of the maps when they are known already.

    The recurrence c[1:] -= r * c[:-1] runs root by root in LAPACK order over the whole stack, the
    complex product spelled out in real arithmetic: each row is bit for bit a plain complex
    recurrence over its map's eigenvalues, whatever the BLAS build. A real map gets the real part.
    """
    roots = np.linalg.eigvals(maps) if roots is None else roots
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


def _float_or_inf(x) -> float:
    """float(x), or an infinity of its sign for an exact integer past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _abs_or_inf(z: complex) -> float:
    """abs(z), or inf where both parts are finite but the modulus is past the float range."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


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


def _geometric_tails(times: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """Tail estimate per row of mags (rows x time groups) from its trailing groups.

    A least-squares line through the logs of the last TAIL_WINDOW positive
    groups absorbs the lumpiness of period-truncated orbit censuses; the
    fitted decay ratio is inflated by 10% because the ratio approaches its
    limit from below for the built-in models (a 1/n prefactor). It is an
    estimate and can fall short of the truncation error. A row with under two
    positive groups or no decay gets inf; no groups give 0, which
    AtomTable.log_zeta keeps only for an empty orbit set.
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
    (-1)^m sum_k (-1)^k weights[:, k], the exact +-1.0 (-1)^m sgn det(I - P^j)
    since the alternating minor sum is det(I - P^j): where every sign is +1, as
    for a cat map, the assembly equals the Euler sum exactly, not merely closely;
    group: index into group_times, the distinct atom times. t_min is the
    shortest orbit length (inf for none).
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
        """(values, tails), lambdas x (2m + 3): log zeta_k for k = 0..2m, the Euler sum, the assembly,
        where the (orbit, j) term of log zeta_k is -mult e^{-lambda j l} / j * tr(rho^j) tr(wedge^k P^j)
        / |det(I - P^j)|. tails are _geometric_tails estimates, not bounds. With orbits, the Euler tail
        is inf at Re lambda <= 0, and every tail is inf when L_max stops short of the first atom.

        The grid runs in blocks of at most LOG_ZETA_BLOCK lambdas x columns x
        atoms elements; a block's terms are formed at once in real arithmetic.
        The values are summed along the atoms in table order by a sequential
        cumsum, the magnitudes of each time group by np.add.at, both as a running
        sum from 0.0 adds them, so no lambda's result depends on the rest of the
        grid or on the block it falls in."""
        lambdas = np.asarray(lambdas, dtype=complex).reshape(-1)
        columns = np.column_stack([self.weights * self.euler[:, None], self.euler, self.sign * self.euler])
        n_atoms, n_columns, n_groups = self.t.size, columns.shape[1], self.group_times.size
        # columns x atoms, so that the sums run along the last axis
        c_re, c_im = np.ascontiguousarray(columns.real.T), np.ascontiguousarray(columns.imag.T)
        values = np.zeros((lambdas.size, n_columns), dtype=complex)
        tails = np.zeros((lambdas.size, n_columns))
        step = max(1, LOG_ZETA_BLOCK // max(1, n_columns * n_atoms))
        # far left of the axis e^{-lambda t} overflows: inf or nan values with inf tail bounds
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, lambdas.size, step):
                block = slice(lo, lo + step)
                phase = np.exp(np.outer(-lambdas[block], self.t))[:, None, :]
                x, y = phase.real, phase.imag
                term_re, term_im = x * c_re - y * c_im, x * c_im + y * c_re
                mags = np.zeros(term_re.shape[:2] + (n_groups,))
                np.add.at(mags, (slice(None), slice(None), self.group), np.hypot(term_re, term_im))
                if n_atoms:  # + 0.0: a sum of -0.0 terms started at 0.0 is 0.0
                    values.real[block] = np.cumsum(term_re, axis=2)[:, :, -1] + 0.0
                    values.imag[block] = np.cumsum(term_im, axis=2)[:, :, -1] + 0.0
                flat = mags.reshape(mags.shape[0] * n_columns, n_groups)
                tails[block] = _geometric_tails(self.group_times, flat).reshape(mags.shape[:2])
        if math.isfinite(self.t_min):
            tails[lambdas.real <= 0, 2 * self.m + 1] = math.inf
            if not self.t.size:  # orbits, but none short enough: nothing certifies the truncation
                tails[:] = math.inf
        return values, tails


def _integer_valued(maps: np.ndarray) -> np.ndarray:
    """Per map of an (n, d, d) float stack: whether _integer_entries reads it as integers."""
    return np.all((np.abs(maps) < EXACT_INT_LIMIT) & (maps == np.floor(maps)), axis=(1, 2))


def _transversality_scales(maps: np.ndarray) -> np.ndarray:
    """_transversality_scale of each map of an (n, d, d) float stack, bit for bit: fmax passes over
    NaN entries as Python's max from 1.0 does, and float_power is the libm pow of a float64 scalar,
    where the power ufunc may take a SIMD pow that rounds differently."""
    n, d = maps.shape[:2]
    deviation = np.abs(np.eye(d) - maps).reshape(n, d * d)
    with np.errstate(over="ignore"):
        return np.float_power(np.fmax.reduce(deviation, axis=1, initial=1.0), d)


def _float_powers(base: np.ndarray, lengths: np.ndarray, reach: float) -> tuple:
    """(index into base, j, P^j, scale) of every atom of an (n, d, d) stack of float return maps, one
    stacked product per repetition j over the maps still within reach whose last scale was finite."""
    index, js, powers, scales = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)], [base[:0]], [np.zeros(0)]
    alive, power, j = np.arange(len(base)), base, 1
    while alive.size:
        within = j * lengths[alive] <= reach
        alive, power = alive[within], power[within]
        scale = _transversality_scales(power)
        index.append(alive)
        js.append(np.full(alive.size, j))
        powers.append(power)
        scales.append(scale)
        finite = scale < math.inf
        alive, power = alive[finite], power[finite]
        # a P^j past the float range fails its check at its atom, or an earlier one fails first
        with np.errstate(over="ignore", invalid="ignore"):
            power = power @ base[alive]
        j += 1
    return tuple(np.concatenate(c) for c in (index, js, powers, scales))


def _euler_coefficients(orbits, pos: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(-mult * complex(tr rho^j) / j per atom, with the steps of Python's complex product and
    quotient on real parts, and whether mult is past the float range), one stacked matrix_power per
    rho shape and j."""
    traces = np.zeros(pos.size, dtype=complex)
    by_shape: dict[tuple, list[int]] = {}
    for p, orbit in enumerate(orbits):
        by_shape.setdefault(orbit.rho.shape, []).append(p)
    slot = np.zeros(len(orbits), dtype=int)
    for members in by_shape.values():
        slot[members] = np.arange(len(members))
        rhos = np.array([orbits[p].rho for p in members])
        in_shape = np.flatnonzero(np.isin(pos, members))
        for power in np.unique(j[in_shape]).tolist():
            at = in_shape[j[in_shape] == power]
            traces[at] = np.trace(np.linalg.matrix_power(rhos[slot[pos[at]]], power), axis1=1, axis2=2)
    mult = np.array([_float_or_inf(-orbit.multiplicity) for orbit in orbits])[pos]
    euler = np.zeros(pos.size, dtype=complex)
    with np.errstate(invalid="ignore"):
        product_re = mult * traces.real - 0.0 * traces.imag
        product_im = mult * traces.imag + 0.0 * traces.real
        euler.real = (product_re + product_im * 0.0) / j
        euler.imag = (product_im - product_re * 0.0) / j
    return euler, np.isinf(mult)


def atom_table(orbits, m: int, L_max: float) -> AtomTable:
    """The atom table of orbits up to L_max; every return map must be 2m x 2m, a PrimeOrbit's float,
    integer or Python-int matrix.

    Each orbit's powers stop at the first P^j whose _transversality_scale is inf; that atom, like any
    non-finite P^j, fails its check, and the first failing atom in table order raises. Integer-valued
    return maps are raised to powers in Python ints; their atoms, and any integer-valued float P^j,
    keep the exact route of _char_poly, one atom at a time. The other float maps are raised by
    _float_powers, and every column of their atoms comes from stacked arrays: one _float_char_polys
    call, det(I - P^j) = sum_k (-1)^k e_k added column by column as Python's sum adds it, and the
    weights as Python's complex division forms them. _euler_coefficients serves both routes.
    """
    d = 2 * m
    for orbit in orbits:
        if orbit.poincare.shape[0] != d:
            size = orbit.poincare.shape[0]
            raise ValueError(f"orbit carries a {size}x{size} return map, expected 2m = {d}")
    reach = L_max * REACH_FACTOR
    lengths = np.array([orbit.length for orbit in orbits], dtype=float)
    is_float = np.array([orbit.poincare.dtype.kind == "f" for orbit in orbits], dtype=bool)
    has_roots = np.array([hasattr(orbit, "_roots") for orbit in orbits], dtype=bool)
    floats = np.array([o.poincare for o, f in zip(orbits, is_float) if f], dtype=float)
    floats = floats.reshape(int(is_float.sum()), d, d)
    integral = _integer_valued(floats)
    exact = []  # (t, input position, j, P^j, scale) of the maps raised in Python ints
    for pos in sorted(np.flatnonzero(~is_float).tolist() + np.flatnonzero(is_float)[integral].tolist()):
        orbit = orbits[pos]
        base = np.array(_integer_entries(orbit.poincare), dtype=object).reshape(d, d)
        j, p_power, scale = 1, base, 0.0
        while j * orbit.length <= reach and scale < math.inf:
            scale = _transversality_scale(p_power)
            exact.append((j * orbit.length, pos, j, p_power, scale))
            j += 1
            p_power = p_power @ base
    float_pos = np.flatnonzero(is_float)[~integral]
    index, f_j, f_maps, f_scale = _float_powers(floats[~integral], lengths[float_pos], reach)
    t = np.concatenate([np.array([a[0] for a in exact], dtype=float), f_j * lengths[float_pos[index]]])
    pos = np.concatenate([np.array([a[1] for a in exact], dtype=int), float_pos[index]])
    j = np.concatenate([np.array([a[2] for a in exact], dtype=int), f_j])
    scale = np.concatenate([np.array([a[4] for a in exact], dtype=float), f_scale])
    # table order: ascending (t, input position, j)
    order = np.lexsort((j, pos, t))
    t, pos, j, scale = t[order], pos[order], j[order], scale[order]
    on_float = np.flatnonzero(order >= len(exact))
    maps = f_maps[order[on_float] - len(exact)]
    stays_exact = _integer_valued(maps)
    by_exact_route = {a: exact[order[a]][3] for a in np.flatnonzero(order < len(exact)).tolist()}
    by_exact_route.update(zip(on_float[stays_exact].tolist(), maps[stays_exact]))
    rows, maps = on_float[~stays_exact], maps[~stays_exact]

    weights, det, bad = np.zeros((t.size, d + 1), dtype=complex), np.zeros(t.size), np.zeros(t.size, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # atoms that fail their check
        finite = np.isfinite(maps).all(axis=(1, 2))
        # a j = 1 atom of a loaded orbit reads the eigenvalues its check found; one eigvals call serves the rest
        carried = finite & (j[rows] == 1) & has_roots[pos[rows]]
        fresh = finite & ~carried
        roots = np.zeros((rows.size, d), dtype=complex)
        if carried.any():
            roots[carried] = [orbits[p]._roots for p in pos[rows[carried]].tolist()]
        if fresh.any():
            roots[fresh] = np.linalg.eigvals(maps[fresh])
        e = np.full((rows.size, d + 1), math.nan)
        e[finite] = _float_char_polys(maps[finite], roots[finite])
        float_det = np.zeros(rows.size)
        for k in range(d + 1):
            float_det = float_det - e[:, k] if k % 2 else float_det + e[:, k]
        size = np.abs(float_det)
        bad[rows] = ~((NON_TRANSVERSE_RTOL * scale[rows] <= size) & (size < math.inf))
        det[rows] = float_det
        # complex(x) / size: real part (x + 0.0 * (0.0 / size)) / size, so -0.0 reads 0.0; the
        # imaginary part (0.0 - x * (0.0 / size)) / size is 0.0 for every finite x
        weights.real[rows] = (e + 0.0) / size[:, None]
    failures = {}
    for a, p_power in by_exact_route.items():
        e_exact = _char_poly(p_power)
        try:
            det[a] = _transversality_denominator(e_exact, float(scale[a]))
            weights[a] = [complex(x) / abs(float(det[a])) for x in e_exact]
        except ArithmeticError as exc:  # non-transverse, or an exact trace past the float range
            failures[a] = exc
            bad[a] = True
    euler, overflow = _euler_coefficients(orbits, pos, j)
    bad |= overflow
    if bad.any():  # raise what the first failing atom raises
        a = int(np.argmax(bad))
        if a in failures:
            raise failures[a]
        if a in rows:
            _transversality_denominator(e[np.searchsorted(rows, a)].tolist(), float(scale[a]))
        complex(-orbits[pos[a]].multiplicity)  # a multiplicity past the float range
    group_times, group = np.unique(t, return_inverse=True)
    return AtomTable(m, t, euler, weights, (-1.0) ** m * np.copysign(1.0, det), group, group_times,
                     min(lengths.tolist(), default=math.inf))


def flat_trace_evolution(orbits, k: int, t_max: float) -> AtomicDistribution:
    """Atoms of the flat trace of the degree-k evolution semigroup up to t_max.

    Each (orbit, repetition) pair contributes the atom at t = j * length with
    weight length * tr(rho^j) * tr(wedge^k P^j) / |det(I - P^j)|.
    """
    if not orbits:
        return AtomicDistribution((), math.inf)
    if not 0 <= k <= 2 * orbits[0].m:
        raise ValueError(f"k = {k} outside 0..{2 * orbits[0].m}")
    table = atom_table(orbits, orbits[0].m, t_max)
    merged = np.zeros(table.group_times.size, dtype=complex)
    np.add.at(merged, table.group, table.flat_weights()[:, k])
    return AtomicDistribution(tuple(zip(table.group_times.tolist(), merged.tolist())), table.t_min)


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


def flat_trace_cyclicity_check(A: np.ndarray, B: np.ndarray) -> bool:
    """Finite-dimensional shadow of trace cyclicity: |tr(AB) - tr(BA)| < 1e-10."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0] or B.shape[1] != A.shape[0]:
        raise ValueError("matrices are not composable both ways")
    return abs(complex(np.trace(A @ B)) - complex(np.trace(B @ A))) < 1e-10


def zeta_grid_rows(orbits, m: int, lambdas, L_max: float) -> list[dict]:
    """Evaluation table rows for a lambda grid, from one atom table; the k = -1
    row is the Euler sum. The defect column repeats |assembly - euler| at
    shared truncation for every row of the same lambda.
    """
    lams = [complex(lam) for lam in lambdas]
    values, tails = atom_table(orbits, m, L_max).log_zeta(lams)
    rows = []
    for lam, vals, tls in zip(lams, values.tolist(), tails.tolist()):
        defect = _abs_or_inf(vals[-1] - vals[-2])
        for col, k in enumerate([*range(2 * m + 1), -1]):
            rows.append({"re_lambda": lam.real, "im_lambda": lam.imag, "k": k,
                         "re_logzeta": vals[col].real, "im_logzeta": vals[col].imag,
                         "tail_bound": tls[col], "L_max": float(L_max), "defect": defect})
    return rows
