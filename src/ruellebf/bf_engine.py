"""Matrix-scale perturbed BF theory: chain and loop diagram series.

The quadratic perturbation attaches exactly two propagators to every
vertex, so the connected diagrams are chains (carrying the external fields)
and loops (carrying a graded trace). Both series resum in closed form, and
the loop series exponentiates to the alternating determinant ratio that the
orbit-side zeta machinery reproduces independently. The matrix side reads
the spectrum of each graded block (once per model) and the gauge-fixed
inverse L1^{-1} (once per complex): the resolvent-power traces are sums of
(mu + lam)**(-N), the determinant ratio is a product of 1 + hbar/mu, the
partition value a product of |mu + hbar|, and a grid builds its loop series
once. The traces need only mu + lam != 0; only the propagator checks damping.
Both loop series, from spectra and from orbit atoms, share one coefficient
rule, _loop_coefficients.
Both bridge grids, matrix and orbit, compute their routes and loop series and
share _bridge_grid for the exponential, the radius flag and the BridgeResults.

Sign table (single source of truth for the graded exponents):
  * a closed fermion-style loop in form degree k contributes
    loop_sign(k) = (-1)**(k + 1), the field grading being shifted by one
    against the form degree;
  * determinant ratios assemble with exponents (-1)**k over form degrees;
  * the full zeta function carries the outer exponent (-1)**m.
The doubled (A, B) field content is realized by the doubled vertex tensor
and propagator of doubled_field_tensors, whose loop contraction doubles; no
explicit factor of two appears anywhere in this module. A propagator is its
complex matrix.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import flat_zeta
from .graded_core import ToyBFComplex
from .series import HbarSeries


class IRDivergenceError(ArithmeticError):
    """Scale-infinity propagator with Re(mu + lambda) <= 0 on some mode, or a trace at mu + lambda = 0."""


class ConvergenceRadiusError(ArithmeticError):
    """The Taylor radius |hbar| < min |spec L| was violated."""


def loop_sign(degree: int) -> int:
    """Sign of a closed loop in form degree k (see the sign table)."""
    return (-1) ** (degree + 1)


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

    def min_spectrum_abs(self) -> float:
        return float(np.min(np.abs(np.concatenate([mu for _, mu in self.spectra]))))


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


def chain_contraction_matrix(model: MatrixBFModel, propagator: np.ndarray) -> np.ndarray:
    """One chain link: the windowed heat integral times L^{-1} iota d on V0."""
    cx = model.complex
    return propagator @ (cx.L1_inv @ cx.d)


def perturbing_functional(model: MatrixBFModel, A: np.ndarray, B: np.ndarray) -> complex:
    """Quadratic perturbation <B, L^{-1} d A> in the bilinear toy pairing."""
    cx = model.complex
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    return complex(B @ (cx.L1_inv @ (cx.d @ A)))


def gamma_int(
    model: MatrixBFModel,
    propagator: np.ndarray,
    A: np.ndarray,
    B: np.ndarray,
    K: int,
) -> HbarSeries:
    """Chain-diagram series; the order-N coefficient is
    (-1)**(N-1) i <W* B, M^(N-1) A> with M the chain link matrix."""
    if K < 1:
        raise ValueError("K must be >= 1")
    cx = model.complex
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    w_adj_b = (cx.L1_inv @ cx.d).T @ B
    link = chain_contraction_matrix(model, propagator)
    coeffs = [0j] * (K + 1)
    vec = A
    # high powers of a link of norm above 1 overflow: those coefficients read inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, K + 1):
            coeffs[n] = (-1) ** (n - 1) * 1j * complex(w_adj_b @ vec)
            vec = link @ vec
    return HbarSeries(tuple(coeffs))


def _loop_coefficients(traces, K: int) -> HbarSeries:
    """Loop series whose order-(N + 1) coefficient is (-1)**N / N * traces(N), N < K."""
    if K < 1:
        raise ValueError("K must be >= 1")
    coeffs = [0j] * (K + 1)
    # a trace past the float range at high order leaves an inf or nan coefficient
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, K):
            coeffs[n + 1] = (-1) ** n / n * traces(n)
    return HbarSeries(tuple(coeffs))


def gamma_tr(model: MatrixBFModel, lam: complex, K: int) -> HbarSeries:
    """Loop-diagram series starting at second order.

    The degree-signed trace of the N-th resolvent power on the image of the
    contraction is sum loop_sign(k) (mu + lam)**(-N) over the block spectra; it
    needs mu + lam != 0, not damping (an acyclic spectrum such as +-0.7i is fine).
    """
    shifted = [(degree, mu + lam) for degree, mu in model.spectra]
    for degree, s in shifted:
        if np.any(s == 0):
            raise IRDivergenceError(f"IR divergence: degree-{degree} block + lambda has a zero eigenvalue")
    return _loop_coefficients(
        lambda n: sum((loop_sign(degree) * complex(np.sum(s ** -n)) for degree, s in shifted), 0j), K
    )


def simplex_volume_check(N: int, t: float) -> float:
    """Volume of the ordered (N-1)-simplex of flow times: t**(N-1) / (N-1)!."""
    if N < 1 or t <= 0:
        raise ValueError("need N >= 1 and t > 0")
    return t ** (N - 1) / math.factorial(N - 1)


def full_space_operators(model: MatrixBFModel):
    """d, iota and the graded commutator on the full two-term space V0 + V1."""
    cx = model.complex
    n = cx.n
    zeros = np.zeros((n, n), dtype=np.complex128)
    d_full = np.block([[zeros, zeros], [cx.d, zeros]])
    iota_full = np.block([[zeros, cx.iota], [zeros, zeros]])
    l_full = np.block([[cx.L0, zeros], [zeros, cx.L1]])
    return d_full, iota_full, l_full


def projection_lemma_check(model: MatrixBFModel, B_op: np.ndarray) -> bool:
    """tr(B L^{-1} iota d) equals tr(B restricted to im(iota)) on the full space, to within 1e-10.

    B_op must leave im(iota) = V0 + 0 invariant; the lower-left block is the
    invariance defect and any nonzero defect is a precondition violation.
    """
    cx = model.complex
    n = cx.n
    B_op = np.asarray(B_op, dtype=np.complex128)
    if B_op.shape != (2 * n, 2 * n):
        raise ValueError(f"operator must act on the full {2 * n}-dimensional space")
    defect = float(np.linalg.norm(B_op[n:, :n]))
    scale = max(1.0, float(np.max(np.abs(B_op))))
    if defect > 1e-10 * scale:
        raise ValueError(
            f"operator does not leave im(iota) invariant: defect norm {defect:.3e}"
        )
    d_full, iota_full, l_full = full_space_operators(model)
    projector = np.linalg.solve(l_full, iota_full @ d_full)
    lhs = complex(np.trace(B_op @ projector))
    rhs = complex(np.trace(B_op[:n, :n]))
    return abs(lhs - rhs) < 1e-10


@dataclass(frozen=True)
class BridgeResult:
    """One hbar of a bridge grid. routes maps "det" (every model) and "orbit" (the Euler product,
    orbit models) to the route's value, tails to its truncation bound (0.0 for a matrix model's
    exact ratio); series_value is None where the series was not evaluated."""

    hbar: complex
    routes: dict
    tails: dict
    series_value: complex | None
    series_diverges: bool

    def defect(self, route: str) -> float | None:
        if self.series_value is None:
            return None
        return flat_zeta._abs_or_inf(self.series_value - self.routes[route])


def _exp(z: complex) -> complex:
    """cmath.exp, except that a value past the float range reads inf times its phase, component
    by component (a zero component stays 0), and an undefined one (ValueError) reads nan."""
    try:
        return cmath.exp(z)
    except OverflowError:
        return complex(*(c * math.inf if c else c for c in (math.cos(z.imag), math.sin(z.imag))))
    except ValueError:
        return complex(math.nan, math.nan)


def _terms_grow(series: HbarSeries, hbar: complex) -> bool:
    """Term-decay heuristic for the Taylor radius: the last nonzero |c_n hbar**n| is no smaller than
    the first, or a term is past the float range."""
    try:
        magnitudes = [abs(series.coefficient(n) * hbar ** n) for n in range(1, series.order + 1)]
    except OverflowError:
        return True
    magnitudes = [v for v in magnitudes if v > 0]
    return len(magnitudes) >= 2 and magnitudes[-1] >= magnitudes[0]


def _bridge_grid(hbars, routes: dict, tails: dict, loop_series, radius: float | None = None) -> list[BridgeResult]:
    """The BridgeResults of a grid, for both model kinds; routes and tails map each route to its
    values and bounds over the grid. loop_series() builds the log-ratio series in hbar, only if
    some point needs it. An exact Taylor radius leaves series_value None outside it; without one,
    the term-decay heuristic flags a point and its value is still given. A series value that is
    not finite is flagged too."""
    inside = [radius is None or math.hypot(h.real, h.imag) < radius for h in hbars]  # abs(h), inf past the range
    series, results = loop_series() if any(inside) else None, []
    for i, (hbar, ok) in enumerate(zip(hbars, inside)):
        value = _exp(series.eval(hbar)) if ok else None
        diverges = not ok or not cmath.isfinite(value) or (radius is None and _terms_grow(series, hbar))
        results.append(BridgeResult(hbar, {r: v[i] for r, v in routes.items()}, {r: t[i] for r, t in tails.items()},
                                    value, diverges))
    return results


def _closed_form_grid(model: MatrixBFModel, hbars) -> list[complex]:
    """prod_k det((L_k + hbar)/L_k)**((-1)**k) at every hbar of a grid, each ratio one np.prod of 1 + hbar/mu
    over a block spectrum for the whole grid, the blocks combined point by point in Python complex arithmetic.
    A product past the float range reads inf or nan, and a pole, a zero ratio of an odd-degree block, inf + nan j."""
    hbars = np.asarray(hbars, dtype=complex)[:, None]
    out = [1.0 + 0j] * len(hbars)
    for degree, mu in model.spectra:
        with np.errstate(over="ignore", invalid="ignore"):
            ratios = np.prod(1 + hbars / mu, axis=1).tolist()
        out = [o * r if degree % 2 == 0 else o / r if r else complex(math.inf, math.nan) for o, r in zip(out, ratios)]
    return out


def expectation_grid(model: MatrixBFModel, hbars, K: int) -> list[BridgeResult]:
    """Expectation of the exponentiated perturbation at every hbar of a grid: route det is the
    exact determinant ratio (tail 0.0), series_value exp(Gamma_tr / hbar) with loop orders 1..K
    resummed, a defect of O(hbar**(K+1)), and None outside the exact Taylor radius min |spec L|.
    The hbar-independent loop series is built once, and not at all for a grid wholly outside it."""
    hbars = [complex(h) for h in hbars]
    return _bridge_grid(hbars, {"det": _closed_form_grid(model, hbars)}, {"det": [0.0] * len(hbars)},
                        lambda: gamma_tr(model, 0.0, K + 1).shift_down(), model.min_spectrum_abs())


def expectation_value(model: MatrixBFModel, hbar: complex, K: int = 8) -> BridgeResult:
    """expectation_grid at one hbar, which must lie inside the Taylor radius."""
    result = expectation_grid(model, [hbar], K)[0]
    if result.series_value is None:
        raise ConvergenceRadiusError(f"|hbar| = {math.hypot(hbar.real, hbar.imag):.6g} outside Taylor radius "
                                     f"{model.min_spectrum_abs():.6g}; evaluate the determinant ratio directly")
    return result


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
    gauge = _abs_product(itertools.chain([np.linalg.det(cx.L0)], (1 + hbars * v for v in nu)), hbars.size)
    # max|L0|^n may exceed the float range: the scale is then inf; two inf values differ by nan
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(np.maximum(direct, gauge), np.max(np.abs(cx.L0)) ** cx.n)
        bad = np.flatnonzero(np.abs(direct - gauge) > 1e-10 * np.maximum(scale, 1.0))
    if bad.size:
        i = bad[0]
        raise ArithmeticError(f"gauge-fixed and direct determinants disagree at hbar = {complex(hbars[i])!r}: "
                              f"{gauge[i].item()!r} vs {direct[i].item()!r}")
    return direct


def doubled_field_tensors(model: MatrixBFModel, propagator: np.ndarray):
    """Vertex tensor and edge matrix on the doubled field space V0 (A) + V1 (B).

    Fed to feynman.gamma_sum, or to the graph weights of the tests, these
    reproduce the chain and loop coefficients including the doubling that
    cancels the 1/2 of the loop symmetry factor; tests pin this equivalence
    order by order.
    """
    cx = model.complex
    n = cx.n
    w = cx.L1_inv @ cx.d
    vertex = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    vertex[:n, n:] = w.T
    vertex[n:, :n] = w
    edge = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    edge[:n, n:] = propagator
    edge[n:, :n] = propagator.T
    return vertex, edge


def _loop_series(table: flat_zeta.AtomTable, lambda0: complex, K: int) -> HbarSeries:
    """Loop series from an atom table: the degree-k flat trace of the N-th resolvent power at base
    point lambda0 is the sum over its atoms of w * t**(N-1) e^{-lambda0 t} / (N-1)!."""
    degree_signs = np.array([loop_sign(k) for k in range(2 * table.m + 1)])
    signed = (table.flat_weights() * degree_signs).sum(axis=1) * np.exp(-lambda0 * table.t)
    # from n = 172 on, (n - 1)! is past the float range and t**(n - 1) / (n - 1)! goes through logarithms
    return _loop_coefficients(
        lambda n: complex(np.sum(signed * table.t ** (n - 1))) / math.factorial(n - 1) if n <= 171
        else complex(np.sum(signed * np.exp((n - 1) * np.log(table.t) - math.lgamma(n)))), K
    )


def zeta_expectation_bridge(
    orbits, m: int, hbar: complex, L_max: float, lambda0: complex = 3.0, K: int = 8
) -> BridgeResult:
    """Ratio zeta(lambda0 + hbar) / zeta(lambda0) to the power (-1)**m.

    The base point shifts the evaluation into the verified convergence
    region of the truncated orbit sums; the identity being checked is
    unchanged. Convergence problems surface through the tail bounds.
    """
    return zeta_expectation_bridge_grid(orbits, m, [hbar], L_max, lambda0, K)[0]


def zeta_expectation_bridge_grid(
    orbits, m: int, hbars, L_max: float, lambda0: complex = 3.0, K: int = 8
) -> list[BridgeResult]:
    """zeta_expectation_bridge at every hbar of a grid, from one atom table; the
    lambda0 sums and the loop series do not depend on hbar and are computed once.
    Each route's tail is the sum of its two truncation bounds; the Taylor radius
    is the term-decay heuristic."""
    hbars, lambda0 = [complex(h) for h in hbars], complex(lambda0)
    table = flat_zeta.atom_table(orbits, m, L_max)
    values, tails = table.log_zeta([lambda0] + [lambda0 + h for h in hbars])
    (base, *values), (base_tail, *tails) = values.tolist(), tails.tolist()
    degrees, euler = range(2 * m + 1), 2 * m + 1
    routes = {"det": [_exp(sum(((-1) ** k * (v[k] - base[k]) for k in degrees), 0j)) for v in values],
              "orbit": [_exp((-1) ** m * (v[euler] - base[euler])) for v in values]}
    route_tails = {"det": [sum((base_tail[k] + t[k] for k in degrees), 0.0) for t in tails],
                   "orbit": [base_tail[euler] + t[euler] for t in tails]}
    return _bridge_grid(hbars, routes, route_tails, lambda: _loop_series(table, lambda0, K + 1).shift_down())
