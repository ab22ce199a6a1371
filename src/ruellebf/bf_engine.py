"""Matrix-scale perturbed BF theory: chain and loop diagram series.

The quadratic perturbation attaches exactly two propagators to every
vertex, so the connected diagrams are chains (carrying the external fields)
and loops (carrying a graded trace). Both series resum in closed form, and
the loop series exponentiates to the alternating determinant ratio that the
orbit-side zeta machinery reproduces independently. The matrix side reads
the spectrum of each graded block (once per model) and the gauge-fixed
inverse L1^{-1} (once per complex): the determinant ratio is a product of
1 + hbar/mu, the partition value a product of |mu + hbar|, and the
resolvent-power traces, sums of (mu + lam)**(-N) that need only mu + lam != 0
(only the propagator checks damping), one array from MatrixBFModel.loop_traces.
flat_zeta.AtomTable.loop_traces gives the orbit side's. flat_zeta's loop_sign
and loop rule, _loop_terms, turn the traces into every loop series, built
once per grid (the sign table is flat_zeta's). An hbar series is a tuple of
Python complex numbers, index p holding the coefficient of hbar**p. Both
bridge grids share _bridge_grid for the exponential and the radius flag (one
array pass); each returns one BridgeGrid of columns over its hbar grid.
No explicit factor of two for the doubled (A, B) field content appears
anywhere in this module. A propagator is its complex matrix.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import flat_zeta
from .flat_zeta import _loop_terms, loop_sign
from .graded_core import ToyBFComplex


class IRDivergenceError(ArithmeticError):
    """Scale-infinity propagator with Re(mu + lambda) <= 0 on some mode, or a trace at mu + lambda = 0."""


@dataclass(frozen=True)
class MatrixBFModel:
    """Toy complex plus the degree bookkeeping of its gauge-fixed generator.

    graded_split lists (form degree, size) pairs whose blocks tile L,
    restricted to the image of the contraction, along its diagonal; L must
    vanish off those blocks. None, the default, is stored as one degree-0
    block ((0, n),). spectra holds the eigenvalues of each block, as (form
    degree, eigenvalues) pairs in block order, computed once here.
    """

    complex: ToyBFComplex
    graded_split: tuple | None = None
    spectra: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        l0, n = self.complex.L0, self.complex.n
        split = ((0, n),) if self.graded_split is None else tuple((int(k), int(s)) for k, s in self.graded_split)
        sizes = [s for _, s in split]
        if min(sizes, default=0) < 0 or sum(sizes) != n:
            raise ValueError(f"graded_split sizes must be >= 0 and sum to the dimension {n}")
        owner = np.repeat(np.arange(len(sizes)), sizes)  # the block of each row and column
        on_blocks = owner[:, None] == owner
        scale = max(1.0, float(np.max(np.abs(l0[on_blocks]), initial=0.0)))
        if np.any(np.abs(l0[~on_blocks]) > 1e-10 * scale):
            raise ValueError("L restricted to im(iota) couples two graded_split blocks")
        edges = np.cumsum([0] + sizes).tolist()
        object.__setattr__(self, "graded_split", split)
        object.__setattr__(self, "spectra", tuple(
            (k, np.linalg.eigvals(l0[at:end, at:end])) for (k, _), at, end in zip(split, edges, edges[1:])))

    def loop_traces(self, lam: complex, orders: int) -> np.ndarray:
        """orders x blocks: row N - 1 holds np.sum((mu + lam)**(-N)) over each block spectrum, the trace of
        the N-th resolvent power on its block; IRDivergenceError where mu + lam = 0."""
        shifted = _shifted_spectra(self, lam)
        rows = [None] * orders  # an order count too large to allocate fails here, before any trace
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(1, orders + 1):
                rows[n - 1] = [np.sum(s ** -n) for _, s in shifted]
        return np.array(rows, dtype=complex).reshape(orders, len(shifted))

    def min_spectrum_abs(self, lam=0.0):
        """min |mu + lam| over the block spectra: a float for one lam, an array for a grid of them, folded
        one eigenvalue at a time so that every temporary has the size of the grid."""
        nearest = functools.reduce(np.minimum, (np.abs(mu + lam) for _, spectrum in self.spectra for mu in spectrum))
        return float(nearest) if np.ndim(nearest) == 0 else nearest


def regularized_propagator(
    model: MatrixBFModel, L1: float, L2: float, lam: complex = 0.0
) -> np.ndarray:
    """Windowed propagator integral of the heat semigroup e^{-t (L + lam)} against iota.

    Equals (L + lam)^{-1} (e^{-L1 (L + lam)} - e^{-L2 (L + lam)}) iota; the
    infinite window needs Re(spec L + lam) > 0.
    """
    cx = model.complex
    if not 0 <= L1 <= L2:
        raise ValueError("window must satisfy 0 <= L1 <= L2")
    n = cx.n
    if L1 == L2:
        return np.zeros((n, n), dtype=np.complex128)
    shifted = cx.L0 + lam * np.eye(n)
    if L1 > 0 or not math.isinf(L2):
        # only finite window edges need expm; importing it here keeps scipy out of the CLI
        from scipy.linalg import expm
    if math.isinf(L2):
        for degree, mu in model.spectra:
            if np.any((mu + lam).real <= 0):
                raise IRDivergenceError(f"IR divergence: degree-{degree} block + lambda has Re <= 0; regularize")
        upper = np.zeros((n, n), dtype=np.complex128)
    else:
        upper = expm(-L2 * shifted)
    lower = np.eye(n, dtype=np.complex128) if L1 == 0 else expm(-L1 * shifted)
    matrix = np.linalg.solve(shifted, (lower - upper) @ cx.iota)
    if not np.all(np.isfinite(matrix)):
        raise IRDivergenceError("IR divergence: the propagator overflows")
    return matrix


def gamma_int(
    model: MatrixBFModel,
    propagator: np.ndarray,
    A: np.ndarray,
    B: np.ndarray,
    K: int,
) -> tuple[complex, ...]:
    """Chain-diagram series; the order-N coefficient is
    (-1)**(N-1) i <W* B, M^(N-1) A> with W = L1^{-1} d and M = propagator W, the chain link:
    the windowed heat integral times L^{-1} iota d on V0."""
    if K < 1:
        raise ValueError("K must be >= 1")
    cx = model.complex
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    w = cx.L1_inv @ cx.d
    w_adj_b = w.T @ B
    link = propagator @ w
    coeffs = [0j] * (K + 1)
    vec = A
    # high powers of a link of norm above 1 overflow: those coefficients read inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, K + 1):
            coeffs[n] = (-1) ** (n - 1) * 1j * complex(w_adj_b @ vec)
            vec = link @ vec
    return tuple(coeffs)


def _shifted_spectra(model: MatrixBFModel, lam: complex) -> list:
    """(degree, mu + lam) of each block; raises IRDivergenceError where mu + lam = 0."""
    shifted = [(degree, mu + lam) for degree, mu in model.spectra]
    for degree, s in shifted:
        if np.any(s == 0):
            raise IRDivergenceError(f"IR divergence: degree-{degree} block + lambda has a zero eigenvalue")
    return shifted


def gamma_tr(model: MatrixBFModel, lam: complex, K: int) -> tuple[complex, ...]:
    """Loop-diagram series starting at second order: the degree-signed trace of the N-th resolvent
    power on the image of the contraction is sum loop_sign(k) (mu + lam)**(-N) over the blocks in
    order; it needs mu + lam != 0, not damping (an acyclic spectrum such as +-0.7i is fine)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    signs = [loop_sign(degree) for degree, _ in model.spectra]
    traces = [sum((sign * t for sign, t in zip(signs, row)), 0j) for row in model.loop_traces(lam, K - 1).tolist()]
    return (0j, 0j, *_loop_terms(traces))


@dataclass(frozen=True)
class BridgeGrid:
    """A bridge over an hbar grid, every column in grid order. routes maps "det" (every model) and
    "orbit" (the Euler product, orbit models) to the route's values, tails to its truncation bounds
    (0.0 for a matrix model's exact ratio); series holds exp of the resummed loop series, None where
    it was not evaluated, and diverges the radius flag of each point."""

    hbars: list
    routes: dict
    tails: dict
    series: list
    diverges: list

    def defects(self, route: str) -> list:
        """|series - route| at each point, None where the series is None."""
        return [None if s is None else flat_zeta._abs_or_inf(s - v) for s, v in zip(self.series, self.routes[route])]


def _exp(z: complex) -> complex:
    """cmath.exp, except that a value past the float range reads inf times its phase, component
    by component (a zero component stays 0), and an undefined one (ValueError) reads nan."""
    try:
        return cmath.exp(z)
    except OverflowError:
        return complex(*(c * math.inf if c else c for c in (math.cos(z.imag), math.sin(z.imag))))
    except ValueError:
        return complex(math.nan, math.nan)


def _pow_or_inf(z: complex, n: int) -> complex:
    """z ** n, or inf + inf j where Python raises OverflowError for it."""
    try:
        return z ** n
    except OverflowError:
        return complex(math.inf, math.inf)


def _terms_grow(terms, hbars) -> np.ndarray:
    """Term-decay heuristic for the Taylor radius at each point of a grid, from the loop terms c_1..c_K in
    one (grid x order) pass: the last nonzero |c_n hbar**n| is no smaller than the first, or a term is past
    the float range (Python raises OverflowError). Python's complex products are spelled out on real parts,
    abs is np.hypot, and hbar**n is formed as CPython forms it: binary powers (c_powu) up to n = 100, a polar
    form past it."""
    hbars, n = np.asarray(hbars, dtype=complex), np.arange(1, len(terms) + 1)
    if not n.size:
        return np.zeros(hbars.size, dtype=bool)
    re, im = np.ones((hbars.size, n.size)), np.zeros((hbars.size, n.size))
    p_re, p_im = hbars.real[:, None], hbars.imag[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for bit in range(min(n.size, 100).bit_length()):  # r = r * p at each set bit, then p = p * p
            take = (n <= 100) & ((n >> bit) & 1 == 1)
            r_re, r_im = re[:, take], im[:, take]
            re[:, take], im[:, take] = r_re * p_re - r_im * p_im, r_re * p_im + r_im * p_re
            p_re, p_im = p_re * p_re - p_im * p_im, p_re * p_im + p_im * p_re
        for k in range(100, n.size):  # n = k + 1 > 100
            powers = np.array([_pow_or_inf(h, k + 1) for h in hbars.tolist()], dtype=complex)
            re[:, k], im[:, k] = powers.real, powers.imag
        c = np.array(terms, dtype=complex)
        t_re, t_im = c.real * re - c.imag * im, c.real * im + c.imag * re
        mags = np.hypot(t_re, t_im)
        # Python raises for a power with an inf part, and for an inf modulus of finite parts
        overflow = np.isinf(re) | np.isinf(im) | (np.isfinite(t_re) & np.isfinite(t_im) & np.isinf(mags))
        positive, rows = mags > 0, np.arange(hbars.size)
        first = mags[rows, np.argmax(positive, axis=1)]
        last = mags[rows, n.size - 1 - np.argmax(positive[:, ::-1], axis=1)]
        return overflow.any(axis=1) | ((positive.sum(axis=1) >= 2) & (last >= first))


def _horner(coeffs, hbar: complex) -> complex:
    """sum_p coeffs[p] hbar**p by Horner's rule; each step ends in + coeffs[p], so a real series at a real
    hbar keeps the +0.0 imaginary part that its order-0 zero gives."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * hbar + c
    return acc


def _bridge_grid(hbars, routes: dict, tails: dict, loop_terms, radius: float | None = None) -> BridgeGrid:
    """The BridgeGrid of a grid, for both model kinds; routes and tails map each route to its values
    and bounds over the grid. loop_terms() gives the loop terms of orders 1..K, the log-ratio series in
    hbar, only if some point needs them. An exact Taylor radius leaves the series None outside it; without
    one, the term-decay heuristic flags a point and its value is still given, as is a non-finite one."""
    inside = [radius is None or math.hypot(h.real, h.imag) < radius for h in hbars]  # abs(h), inf past the range
    loop = (0j, *loop_terms()) if any(inside) else None
    series = [_exp(_horner(loop, h)) if ok else None for h, ok in zip(hbars, inside)]
    grows = _terms_grow(loop[1:], hbars).tolist() if radius is None and hbars else [False] * len(hbars)
    diverges = [not ok or not cmath.isfinite(value) or g for ok, value, g in zip(inside, series, grows)]
    return BridgeGrid(hbars, routes, tails, series, diverges)


def _closed_form_grid(model: MatrixBFModel, hbars, lambda0: complex = 0.0) -> list[complex]:
    """prod_k det((L_k + lambda0 + hbar)/(L_k + lambda0))**((-1)**k) at every hbar of a grid, each ratio one
    np.prod of 1 + hbar/(mu + lambda0) over a block spectrum for the whole grid, the blocks combined point by
    point in Python complex arithmetic. A product past the float range reads inf or nan, and a pole, a zero
    ratio of an odd-degree block, inf + nan j. At lambda0 = 0 the spectra are read as they are (adding 0 would
    turn a -0.0 part into 0.0); elsewhere a zero mu + lambda0 raises IRDivergenceError."""
    hbars = np.asarray(hbars, dtype=complex)[:, None]
    out = [1.0 + 0j] * len(hbars)
    for degree, mu in model.spectra if lambda0 == 0 else _shifted_spectra(model, lambda0):
        with np.errstate(over="ignore", invalid="ignore"):
            ratios = np.prod(1 + hbars / mu, axis=1).tolist()
        out = [o * r if degree % 2 == 0 else o / r if r else complex(math.inf, math.nan) for o, r in zip(out, ratios)]
    return out


def expectation_grid(model: MatrixBFModel, hbars, K: int, lambda0: complex = 0.0) -> BridgeGrid:
    """Expectation of the exponentiated perturbation at every hbar of a grid, at base point lambda0:
    route det is the exact determinant ratio det(L + lambda0 + hbar) / det(L + lambda0) (tail 0.0),
    the series exp(Gamma_tr / hbar) at lambda0 with loop orders 1..K resummed, a defect of
    O(hbar**(K+1)), and None outside the exact Taylor radius min |spec L + lambda0|. A lambda0 on
    the spectrum of -L raises IRDivergenceError."""
    hbars = [complex(h) for h in hbars]
    return _bridge_grid(hbars, {"det": _closed_form_grid(model, hbars, lambda0)}, {"det": [0.0] * len(hbars)},
                        lambda: gamma_tr(model, lambda0, K + 1)[2:], model.min_spectrum_abs(lambda0))


def _abs_product(factors, size: int) -> np.ndarray:
    """prod |f| over factors, each a scalar or an array of the given size, one factor at a time.

    The binary exponent is carried apart from the mantissa, so only a product past the float
    range reads inf, never a partial one; short of that the bits are those of a running product.
    """
    mantissa, exponent = np.ones(size), np.zeros(size, dtype=int)
    for f in factors:
        mantissa, e = np.frexp(mantissa * np.abs(f))
        exponent += e
    with np.errstate(over="ignore"):
        return np.ldexp(mantissa, exponent)


def partition_grid(model: MatrixBFModel, hbars) -> np.ndarray:
    """Gauge-fixed partition value |det(L + hbar)| at every hbar of a grid, from the block spectra.

    The value is the product of |mu + hbar| over the spectra. Each point is cross-checked
    against the gauge-fixed operator iota (1 + hbar L1^{-1}) d = L0 (1 + hbar N), with
    N = L0^{-1} iota L1^{-1} d: its determinant is |det L0| times the product of |1 + hbar nu|
    over the eigenvalues nu of N, computed once per call. The bound is that of the per-point
    LU reference in the tests: a gap above
    1e-10 * max(1, either value, max|L0|**n) raises ArithmeticError naming the first such hbar.
    Every temporary has the size of the grid.
    """
    cx = model.complex
    hbars = np.asarray(hbars, dtype=complex)
    direct = _abs_product((mu + hbars for _, spectrum in model.spectra for mu in spectrum), hbars.size)
    nu = np.linalg.eigvals(np.linalg.solve(cx.L0, cx.iota @ cx.L1_inv @ cx.d))
    with np.errstate(over="ignore", invalid="ignore"):  # a det L0 past the float range reads inf
        det_l0 = np.linalg.det(cx.L0)
    gauge = _abs_product(itertools.chain([det_l0], (1 + hbars * v for v in nu)), hbars.size)
    # max|L0|^n may exceed the float range: the scale is then inf; two inf values differ by nan
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(np.maximum(direct, gauge), np.max(np.abs(cx.L0)) ** cx.n)
        bad = np.flatnonzero(np.abs(direct - gauge) > 1e-10 * np.maximum(scale, 1.0))
    if bad.size:
        i = bad[0]
        raise ArithmeticError(f"gauge-fixed and direct determinants disagree at hbar = {complex(hbars[i])!r}: "
                              f"{gauge[i].item()!r} vs {direct[i].item()!r}")
    return direct


def zeta_expectation_bridge_grid(
    orbits, m: int, hbars, L_max: float, lambda0: complex = 3.0, K: int = 8
) -> BridgeGrid:
    """Ratio zeta(lambda0 + hbar) / zeta(lambda0) to the power (-1)**m at every hbar of a grid,
    from one atom table; the lambda0 sums and the loop series do not depend on hbar and are
    computed once.

    The base point shifts the evaluation into the verified convergence region of the truncated
    orbit sums; the identity being checked is unchanged. Each route's tail is the sum of its two
    truncation bounds; the Taylor radius is the term-decay heuristic."""
    hbars, lambda0 = [complex(h) for h in hbars], complex(lambda0)
    table = flat_zeta.atom_table(orbits, m, L_max)
    values, tails = table.log_zeta([lambda0] + [lambda0 + h for h in hbars])
    (base, *values), (base_tail, *tails) = values.tolist(), tails.tolist()
    degrees, euler = range(2 * m + 1), 2 * m + 1
    routes = {"det": [_exp(sum(((-1) ** k * (v[k] - base[k]) for k in degrees), 0j)) for v in values],
              "orbit": [_exp((-1) ** m * (v[euler] - base[euler])) for v in values]}
    route_tails = {"det": [sum((base_tail[k] + t[k] for k in degrees), 0.0) for t in tails],
                   "orbit": [base_tail[euler] + t[euler] for t in tails]}
    with np.errstate(over="ignore", invalid="ignore"):  # one degree-signed column, signed before the atom sum
        signed = (table.flat_weights() * [loop_sign(k) for k in degrees]).sum(axis=1, keepdims=True)
    return _bridge_grid(hbars, routes, route_tails, lambda: _loop_terms(table.loop_traces(lambda0, K, signed)[:, 0]))
