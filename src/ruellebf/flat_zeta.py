"""Orbit sums: the atom table, its log zeta columns and its loop traces.

Evolution semigroups of the orbit models have flat traces supported on the
closed-orbit lengths, read atom by atom from AtomTable.flat_weights. A caller
builds one AtomTable per (orbits, m, L_max) with atom_table, which computes
and transversality-checks every atom of plain PrimeOrbits of one map size 2m
and one twist rank r: an atom's exterior traces tr(wedge^k P^j) and
det(I - P^j) come from one characteristic polynomial of P^j, in exact
integers for integer-valued P^j (_exact_traces, once per distinct power),
else from stacked eigenvalues (_float_traces), independent of the BLAS
build. _float_route splits the return maps into a float stack and an
object stack of Python ints, and one power loop, _powers, raises either;
the orbits table reads both stacks too. The table has two kernels, each
summed in the fixed atom order (ascending time, then input order, then
repetition), so values are bit-stable:
  * AtomTable.log_zeta, the per-degree log zeta factors, the Euler product
    and the alternating assembly, columns over a whole lambda grid, each
    with a geometric tail estimate and the same for a lambda alone as inside
    any grid; zeta_grid_rows writes them as the zeta table's columns;
  * AtomTable.loop_traces, the flat traces of the resolvent powers at a base
    point, an orders x columns array over any weight columns. Signed by
    loop_sign, traces become loop terms by the one loop rule, _loop_terms,
    which bf_engine applies to a matrix model's block traces too.

Sign table (single source of truth for the graded exponents):
  * a closed fermion-style loop in form degree k contributes
    loop_sign(k) = (-1)**(k + 1), the field grading being shifted by one
    against the form degree;
  * determinant ratios assemble with exponents (-1)**k over form degrees;
  * the full zeta function carries the outer exponent (-1)**m.
AtomTable.sign applies the last two rows, loop_sign the first.

Branch convention: principal logarithms everywhere, with log zeta built
additively from per-orbit terms so no product-branch ambiguity arises.
Evaluations that cannot be certified convergent are returned with
tail_bound = inf rather than extrapolated.
"""

from __future__ import annotations

import math
import operator
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


def _int_product(a: tuple, b: tuple) -> tuple:
    """a @ b for square matrices given as rows of Python ints."""
    columns = tuple(zip(*b))
    return tuple([tuple([sum(map(operator.mul, row, column)) for column in columns]) for row in a])


def _float_char_polys(maps: np.ndarray) -> np.ndarray:
    """[e_0, ..., e_d] for each map of an (n, d, d) stack of finite float maps, from one stacked eigvals
    call.

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


def _char_poly(a: tuple) -> list:
    """[e_0, ..., e_d], e_k = tr(wedge^k P), the sum of all k x k principal minors, of an integer matrix
    P given as a tuple of rows of Python ints, the exact route's key: Faddeev-LeVerrier in exact
    integers, A M_1 = A, e_k = (-1)^(k+1) tr(A M_k) / k (an exact division),
    M_{k+1} = A M_k + (-1)^k e_k I. A float map takes _float_char_polys."""
    e, am = [1], a
    for k in range(1, len(a) + 1):
        e.append((-1) ** (k + 1) * sum(row[i] for i, row in enumerate(am)) // k)
        if k < len(a):
            shift = (-1) ** k * e[k]
            m_next = [[x + shift if i == j else x for j, x in enumerate(row)] for i, row in enumerate(am)]
            am = _int_product(a, m_next)
    return e


def _float_or_inf(x) -> float:
    """float(x), or an infinity of its sign for an exact integer past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _abs_or_inf(z: complex) -> float:
    """abs(z), or inf where both parts are finite but the modulus is past the float range.

    CPython's abs of a complex with a nan part leaves C's errno as it was, so after an earlier
    OverflowError (a complex power past the range, say) it raises too; math.hypot reads nan there."""
    try:
        return abs(z)
    except OverflowError:
        return math.hypot(z.real, z.imag)


def _exact_traces(ints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e, det(I - P^j)) as float columns of an (n, d, d) integer stack of P^j, int64 or Python ints:
    one exact _char_poly and one exact det(I - P^j) = sum_k (-1)^k e_k per distinct P^j, each value
    rounded once by _float_or_inf."""
    n, d = ints.shape[:2]
    powers = [tuple(map(tuple, p)) for p in ints.tolist()]
    rows = {}
    for p_power in powers:
        if p_power not in rows:
            e = _char_poly(p_power)
            rows[p_power] = [*map(_float_or_inf, e), _float_or_inf(sum((-1) ** k * x for k, x in enumerate(e)))]
    traces = np.array([rows[p_power] for p_power in powers], dtype=float).reshape(n, d + 2)
    return traces[:, :-1], traces[:, -1]


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


def loop_sign(degree: int) -> int:
    """Sign of a closed loop in form degree k (see the sign table)."""
    return (-1) ** (degree + 1)


def _loop_terms(traces) -> list:
    """The loop rule: term N is (-1)**N / N * T_N, over the signed traces T_1, T_2, ... of a 1-d array."""
    return [(-1) ** n / n * t for n, t in enumerate(np.asarray(traces, dtype=complex).tolist(), 1)]


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

    def loop_traces(self, lambda0: complex, orders: int, weights: np.ndarray) -> np.ndarray:
        """orders x columns: row N - 1 holds sum_atoms w t**(N-1) e^{-lambda0 t} / (N-1)! for each column w of
        an atoms x columns weight matrix, one np.sum along the atoms in table order; flat_weights() gives the
        degree-k flat traces of the N-th resolvent power at lambda0. Far left of the axis: inf or nan."""
        rows = [None] * orders  # an order count too large to allocate fails here, before any trace
        with np.errstate(over="ignore", invalid="ignore"):
            columns = np.ascontiguousarray(weights.T) * np.exp(-lambda0 * self.t)
            for n in range(1, orders + 1):  # from N = 172 on, (N-1)! is past the float range: logarithms
                power = self.t ** (n - 1) if n <= 171 else np.exp((n - 1) * np.log(self.t) - math.lgamma(n))
                sums = [complex(np.sum(w * power)) for w in columns]
                rows[n - 1] = [s / math.factorial(n - 1) for s in sums] if n <= 171 else sums
        return np.array(rows, dtype=complex).reshape(orders, weights.shape[1])

    def log_zeta(self, lambdas) -> tuple[np.ndarray, np.ndarray]:
        """(values, tails), lambdas x (2m + 3): log zeta_k for k = 0..2m, the Euler sum, the assembly,
        where the (orbit, j) term of log zeta_k is -mult e^{-lambda j l} / j * tr(rho^j) tr(wedge^k P^j)
        / |det(I - P^j)|. tails are _geometric_tails estimates, not bounds. With orbits, the Euler tail
        is inf at Re lambda <= 0, and every tail is inf when L_max stops short of the first atom.

        Each distinct column, equal bit for bit, is evaluated once and copied out (on a cat map k = 0
        repeats k = 2 and the assembly the Euler sum). The grid runs in blocks of at most LOG_ZETA_BLOCK
        lambdas x distinct columns x atoms elements; a block gathers one phase e^{-lambda t} per time
        group to the atoms and forms its terms at once in real arithmetic. The values are summed along
        the atoms in table order by a sequential cumsum, the magnitudes of each time group by one
        np.bincount, both as a running sum from 0.0 adds them, so no lambda's result depends on the
        rest of the grid or on the block it falls in."""
        lambdas = np.asarray(lambdas, dtype=complex).reshape(-1)
        # a weight times an Euler weight past the float range reads inf, and so do the sums it enters
        with np.errstate(over="ignore", invalid="ignore"):
            columns = np.column_stack([self.weights * self.euler[:, None], self.euler, self.sign * self.euler]).T
        keys = [column.tobytes() for column in columns]
        distinct = list(dict.fromkeys(keys))
        # distinct columns x atoms, so that the sums run along the last axis
        kept = columns[[keys.index(key) for key in distinct]]
        c_re, c_im = np.ascontiguousarray(kept.real), np.ascontiguousarray(kept.imag)
        n_atoms, n_columns, n_groups = self.t.size, len(distinct), self.group_times.size
        values = np.zeros((lambdas.size, n_columns), dtype=complex)
        tails = np.zeros((lambdas.size, n_columns))
        step = max(1, min(lambdas.size, LOG_ZETA_BLOCK // max(1, n_columns * n_atoms)))
        # the bin of each term's magnitude, (lambda, column, time group) flattened
        bins = (np.arange(step * n_columns)[:, None] * n_groups + self.group).reshape(-1)
        # far left of the axis e^{-lambda t} overflows: inf or nan values with inf tail bounds
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, lambdas.size, step):
                block = slice(lo, lo + step)
                phase = np.exp(np.outer(-lambdas[block], self.group_times))[:, None, self.group]
                x, y = phase.real, phase.imag
                term_re, term_im = x * c_re - y * c_im, x * c_im + y * c_re
                rows = term_re.shape[0] * n_columns
                mags = np.bincount(bins[:rows * n_atoms], np.hypot(term_re, term_im).reshape(-1), rows * n_groups)
                if n_atoms:  # + 0.0: a sum of -0.0 terms started at 0.0 is 0.0
                    values.real[block] = np.cumsum(term_re, axis=2)[:, :, -1] + 0.0
                    values.imag[block] = np.cumsum(term_im, axis=2)[:, :, -1] + 0.0
                tails[block] = _geometric_tails(self.group_times, mags.reshape(rows, n_groups)).reshape(-1, n_columns)
        which = [distinct.index(key) for key in keys]
        values, tails = values[:, which], tails[:, which]
        if math.isfinite(self.t_min):
            tails[lambdas.real <= 0, 2 * self.m + 1] = math.inf
            if not self.t.size:  # orbits, but none short enough: nothing certifies the truncation
                tails[:] = math.inf
        return values, tails


def _integer_valued(maps: np.ndarray) -> np.ndarray:
    """Per map of an (n, d, d) float stack: whether every entry is an integer below EXACT_INT_LIMIT in
    magnitude, so that the map reads exactly as Python ints."""
    return np.all((np.abs(maps) < EXACT_INT_LIMIT) & (maps == np.floor(maps)), axis=(1, 2))


def _float_route(orbits, d: int) -> tuple[tuple, tuple]:
    """The two routes of the orbits' d x d return maps, each (positions ascending, (n, d, d) stack): the
    float maps that are not integer-valued as a float stack, and the others, integer, Python-int or
    integer-valued float maps, as an object stack of Python ints."""
    is_float = [orbit.poincare.dtype.kind == "f" for orbit in orbits]
    maps = np.array([o.poincare for o, f in zip(orbits, is_float) if f], dtype=float).reshape(sum(is_float), d, d)
    keep = ~_integer_valued(maps)
    on_float = np.array(is_float, dtype=bool)
    on_float[on_float] = keep
    exact = np.flatnonzero(~on_float)
    ints = np.array([[list(map(int, row)) for row in orbits[i].poincare.tolist()] for i in exact.tolist()],
                    dtype=object).reshape(exact.size, d, d)
    return (np.flatnonzero(on_float), maps[keep]), (exact, ints)


def _transversality_scales(maps: np.ndarray) -> np.ndarray:
    """max(1, max|I - P^j|)^d, the scale of the transversality threshold, of each map of an (n, d, d)
    float stack or object stack of Python ints; inf past the float range. fmax passes over NaN entries.
    On Python ints the power is exact and rounded once by _float_or_inf; on floats float_power is the
    libm pow of a float64 scalar, where the power ufunc may take a SIMD pow that rounds differently."""
    n, d = maps.shape[:2]
    base = np.fmax.reduce(np.abs(np.eye(d, dtype=int) - maps).reshape(n, d * d), axis=1, initial=1)
    if maps.dtype == object:
        return np.array([_float_or_inf(x ** d) for x in base.tolist()], dtype=float)
    with np.errstate(over="ignore"):
        return np.float_power(base, d)


def _powers(base: np.ndarray, lengths: np.ndarray, reach: float) -> tuple:
    """(index into base, j, P^j, scale) of every atom of an (n, d, d) stack of return maps, float or
    Python ints: one stacked product per repetition j, exact on Python ints, over the maps still within
    reach whose last scale was finite. That stop bounds the Python ints too."""
    index, js, powers, scales = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)], [base[:0]], [np.zeros(0)]
    alive, j = np.flatnonzero(lengths <= reach), 1
    power = base[alive]
    # a P^j past the float range fails its check at its atom, or an earlier one fails first
    with np.errstate(over="ignore", invalid="ignore"):
        while alive.size:
            scale = _transversality_scales(power)
            index.append(alive)
            js.append(np.full(alive.size, j))
            powers.append(power)
            scales.append(scale)
            j += 1
            go_on = (scale < math.inf) & (j * lengths[alive] <= reach)
            alive, power = alive[go_on], power[go_on] @ base[alive[go_on]]
    return tuple(np.concatenate(c) for c in (index, js, powers, scales))


def _euler_coefficients(orbits, pos: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(-mult * complex(tr rho^j) / j per atom, with the steps of Python's complex product and
    quotient on real parts, and whether mult is past the float range), the powers rho^j of the orbit
    set's r x r twists from one np.linalg.matrix_power call per distinct j (a set, not np.unique, which
    imports numpy.ma)."""
    shape = orbits[0].rho.shape if orbits else (0, 0)
    rhos = np.array([orbit.rho for orbit in orbits], dtype=complex).reshape(len(orbits), *shape)
    traces = np.zeros(pos.size, dtype=complex)
    for k in set(j.tolist()):
        at = j == k
        traces[at] = np.trace(np.linalg.matrix_power(rhos[pos[at]], k), axis1=1, axis2=2)
    mult = np.array([_float_or_inf(-orbit.multiplicity) for orbit in orbits])[pos]
    euler = np.zeros(pos.size, dtype=complex)
    with np.errstate(invalid="ignore"):
        product_re = mult * traces.real - 0.0 * traces.imag
        product_im = mult * traces.imag + 0.0 * traces.real
        euler.real = (product_re + product_im * 0.0) / j
        euler.imag = (product_im - product_re * 0.0) / j
    return euler, np.isinf(mult)


def _float_traces(maps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e, det(I - P^j)) of an (n, d, d) stack of float P^j: one _float_char_polys call (e is nan on a
    non-finite P^j), det(I - P^j) = sum_k (-1)^k e_k added column by column as Python's sum adds it."""
    with np.errstate(over="ignore", invalid="ignore"):  # atoms that fail their check
        finite = np.isfinite(maps).all(axis=(1, 2))
        e = np.full((len(maps), maps.shape[1] + 1), math.nan)
        e[finite] = _float_char_polys(maps[finite])
        det = np.zeros(len(maps))
        for k in range(e.shape[1]):
            det = det - e[:, k] if k % 2 else det + e[:, k]
    return e, det


def _traces(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e, det(I - P^j)) of an (n, d, d) stack of P^j, row by row: _exact_traces for an object stack of
    Python ints and for the integer-valued maps of a float stack, _float_traces for the other float maps,
    skipped when there are none."""
    n, d = stack.shape[:2]
    exact = np.ones(n, dtype=bool) if stack.dtype == object else _integer_valued(stack)
    e, det = np.zeros((n, d + 1)), np.zeros(n)
    e[exact], det[exact] = _exact_traces(stack if stack.dtype == object else stack[exact].astype(np.int64))
    if not exact.all():
        e[~exact], det[~exact] = _float_traces(stack[~exact])
    return e, det


def atom_table(orbits, m: int, L_max: float) -> AtomTable:
    """The atom table of orbits up to L_max; every return map must be 2m x 2m, a PrimeOrbit's float,
    integer or Python-int matrix, and every twist rho r x r, the r of the first orbit.

    _float_route splits the maps into a float stack and an object stack of Python ints. Each route is
    raised by _powers, which stops an orbit's powers at the first P^j whose transversality scale is
    inf (that atom, like any non-finite P^j, fails its check), and takes its traces from _traces. The
    atoms of both routes are then sorted once into table order; _euler_coefficients serves both. One
    pass over every atom in table order checks |det(I - P^j)| against 1e-12 times the scale and
    divides the weights; the first atom that fails, or whose exact trace or multiplicity is past the
    float range, raises NonTransverseOrbitError or OverflowError.
    """
    d, r = 2 * m, orbits[0].rho.shape[0] if orbits else 0
    for orbit in orbits:
        size, rank = orbit.poincare.shape[0], orbit.rho.shape[0]
        if size != d:
            raise ValueError(f"orbit carries a {size}x{size} return map, expected 2m = {d}")
        if rank != r:
            raise ValueError(f"orbit carries a {rank}x{rank} twist, expected the {r}x{r} of the first orbit")
    lengths = np.array([orbit.length for orbit in orbits], dtype=float)
    routes = []  # per route: (t, input position, j, scale, e, det(I - P^j)) of its atoms
    for positions, stack in _float_route(orbits, d):
        index, j, powers, scale = _powers(stack, lengths[positions], L_max * REACH_FACTOR)
        pos = positions[index]
        routes.append((j * lengths[pos], pos, j, scale, *_traces(powers)))
    t, pos, j, scale, e, det = map(np.concatenate, zip(*routes))
    # table order: ascending (t, input position, j)
    order = np.lexsort((j, pos, t))
    t, pos, j, scale, e, det = t[order], pos[order], j[order], scale[order], e[order], det[order]
    euler, overflow = _euler_coefficients(orbits, pos, j)
    size = np.abs(det)
    bad = ~((NON_TRANSVERSE_RTOL * scale <= size) & (size < math.inf))
    fails = bad | overflow | np.isinf(e).any(axis=1)
    if fails.any():
        a = int(np.argmax(fails))
        if bad[a]:
            raise NonTransverseOrbitError(f"non-transverse orbit: |det(I - P^j)| = {size[a]:.3e}")
        raise OverflowError("int too large to convert to float")
    # complex(e_k) / size: real part (e_k + 0.0 * (0.0 / size)) / size, so -0.0 reads 0.0; the imaginary
    # part (0.0 - e_k * (0.0 / size)) / size is 0.0 for every finite e_k
    weights = np.zeros(e.shape, dtype=complex)
    weights.real = (e + 0.0) / size[:, None]
    group_times, group = np.unique(t, return_inverse=True)
    return AtomTable(m, t, euler, weights, (-1.0) ** m * np.copysign(1.0, det), group, group_times,
                     min(lengths.tolist(), default=math.inf))


def zeta_grid_rows(orbits, m: int, lambdas, L_max: float) -> dict[str, list]:
    """The evaluation table of a lambda grid as columns, from one atom table: per lambda a row for each
    k = 0..2m and the Euler sum at k = -1, each with |assembly - euler| at shared truncation (np.hypot
    forms abs) as its defect."""
    lams = np.array([complex(lam) for lam in lambdas], dtype=complex)
    values, tails = atom_table(orbits, m, L_max).log_zeta(lams)
    n = 2 * m + 2
    with np.errstate(over="ignore", invalid="ignore"):  # inf past the float range, as _abs_or_inf
        defect = np.hypot(values[:, -1].real - values[:, -2].real, values[:, -1].imag - values[:, -2].imag)
    return {"re_lambda": np.repeat(lams.real, n).tolist(), "im_lambda": np.repeat(lams.imag, n).tolist(),
            "k": [*range(2 * m + 1), -1] * lams.size,
            "re_logzeta": values[:, :n].real.ravel().tolist(), "im_logzeta": values[:, :n].imag.ravel().tolist(),
            "tail_bound": tails[:, :n].ravel().tolist(), "L_max": [float(L_max)] * (n * lams.size),
            "defect": np.repeat(defect, n).tolist()}
