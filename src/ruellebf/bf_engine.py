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


def projection_lemma_check(model: MatrixBFModel, B_op: np.ndarray, tol: float = 1e-10) -> bool:
    """tr(B L^{-1} iota d) equals tr(B restricted to im(iota)) on the full space.

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
    return abs(lhs - rhs) < tol


@dataclass(frozen=True)
class ExpectationResult:
    """Closed-form expectation value with the recorded series-route defect;
    series_value is None outside the Taylor radius, and so is the defect."""

    closed_form: complex
    series_value: complex | None
    K: int

    @property
    def defect(self) -> float | None:
        return None if self.series_value is None else abs(self.closed_form - self.series_value)


def _closed_form_grid(model: MatrixBFModel, hbars) -> list[complex]:
    """closed_form_expectation at every hbar of a grid: one np.prod over each block for the whole
    grid, the blocks then combined point by point in Python complex arithmetic. A product past
    the float range reads inf or nan, and a pole, a zero ratio of an odd-degree block, inf + nan j."""
    hbars = np.asarray(hbars, dtype=complex)[:, None]
    out = [1.0 + 0j] * len(hbars)
    for degree, mu in model.spectra:
        with np.errstate(over="ignore", invalid="ignore"):
            ratios = np.prod(1 + hbars / mu, axis=1).tolist()
        out = [o * r if degree % 2 == 0 else o / r if r else complex(math.inf, math.nan) for o, r in zip(out, ratios)]
    return out


def closed_form_expectation(model: MatrixBFModel, hbar: complex) -> complex:
    """Alternating determinant ratio prod_k det((L_k + hbar)/L_k)**((-1)**k),
    each ratio the product of 1 + hbar/mu over the block spectrum."""
    return _closed_form_grid(model, [hbar])[0]


def expectation_grid(model: MatrixBFModel, hbars, K: int) -> list[ExpectationResult]:
    """Expectation of the exponentiated perturbation at every hbar of a grid.

    Each result holds the closed-form determinant ratio, alongside the value
    of exp(Gamma_tr / hbar) with loop orders 1..K resummed, so the series
    defect is O(hbar**(K+1)). The loop series does not depend on hbar and is
    built once, and not at all for a grid wholly outside the Taylor radius
    min |spec L|; outside it series_value is None.
    """
    radius = model.min_spectrum_abs()
    inside = [math.hypot(hbar.real, hbar.imag) < radius for hbar in hbars]  # abs(hbar), inf past the float range
    series = gamma_tr(model, 0.0, K + 1).shift_down() if any(inside) else None
    return [
        ExpectationResult(closed, cmath.exp(series.eval(hbar)) if ok else None, K)
        for hbar, ok, closed in zip(hbars, inside, _closed_form_grid(model, hbars))
    ]


def expectation_value(model: MatrixBFModel, hbar: complex, K: int = 8) -> ExpectationResult:
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


def embed_doubled(model: MatrixBFModel, A=None, B=None) -> dict:
    """External-slot vectors for the doubled space, keyed by tail label."""
    n = model.complex.n
    a_vec = np.zeros(2 * n, dtype=np.complex128)
    b_vec = np.zeros(2 * n, dtype=np.complex128)
    if A is not None:
        a_vec[:n] = np.asarray(A, dtype=np.complex128)
    if B is not None:
        b_vec[n:] = np.asarray(B, dtype=np.complex128)
    return {"A": a_vec, "B": b_vec}


def _loop_series(table: flat_zeta.AtomTable, lambda0: complex, K: int) -> HbarSeries:
    """gamma_tr_orbits from an atom table: moments of its degree-signed flat-trace atoms."""
    degree_signs = np.array([loop_sign(k) for k in range(2 * table.m + 1)])
    signed = (table.flat_weights() * degree_signs).sum(axis=1) * np.exp(-lambda0 * table.t)
    # from n = 172 on, (n - 1)! is past the float range and t**(n - 1) / (n - 1)! goes through logarithms
    return _loop_coefficients(
        lambda n: complex(np.sum(signed * table.t ** (n - 1))) / math.factorial(n - 1) if n <= 171
        else complex(np.sum(signed * np.exp((n - 1) * np.log(table.t) - math.lgamma(n)))), K
    )


def gamma_tr_orbits(orbits, m: int, lambda0: complex, L_max: float, K: int) -> HbarSeries:
    """Loop series with resolvent-power traces read off the orbit atoms.

    The degree-k flat trace of the N-th resolvent power at base point
    lambda0 is sum over atoms of w * t**(N-1) e^{-lambda0 t} / (N-1)!.
    """
    return _loop_series(flat_zeta.atom_table(orbits, m, L_max), lambda0, K)


@dataclass(frozen=True)
class BridgeResult:
    """Zeta ratio at a shifted base point, through three truncated routes."""

    hbar: complex
    lambda0: complex
    m: int
    L_max: float
    K: int
    euler_value: complex
    det_value: complex
    series_value: complex
    euler_tail: float
    det_tail: float
    series_diverges: bool = False

    @property
    def defect_euler_det(self) -> float:
        return abs(self.euler_value - self.det_value)

    @property
    def defect_series_det(self) -> float:
        return abs(self.series_value - self.det_value)


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
    lambda0 sums and the loop series do not depend on hbar and are computed once."""
    hbars, lambda0 = [complex(h) for h in hbars], complex(lambda0)
    table = flat_zeta.atom_table(orbits, m, L_max)
    values, tails = (a.tolist() for a in table.log_zeta([lambda0] + [lambda0 + h for h in hbars]))
    series = _loop_series(table, lambda0, K + 1).shift_down()
    euler, results = 2 * m + 1, []
    for hbar, vals, tls in zip(hbars, values[1:], tails[1:]):
        det_log = sum(((-1) ** k * (vals[k] - values[0][k]) for k in range(2 * m + 1)), 0j)
        det_tail = sum((tails[0][k] + tls[k] for k in range(2 * m + 1)), 0.0)
        # outside the Taylor radius around lambda0 the term magnitudes stop
        # decaying; report that rather than trusting the truncated sum
        magnitudes = [abs(series.coefficient(n) * hbar ** n) for n in range(1, series.order + 1)]
        magnitudes = [v for v in magnitudes if v > 0]
        results.append(BridgeResult(
            hbar, lambda0, m, float(L_max), K, cmath.exp((-1) ** m * (vals[euler] - values[0][euler])),
            cmath.exp(det_log), cmath.exp(series.eval(hbar)), tails[0][euler] + tls[euler], det_tail,
            series_diverges=len(magnitudes) >= 2 and magnitudes[-1] >= magnitudes[0],
        ))
    return results
