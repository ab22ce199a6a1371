"""Textbook linear algebra and orbit counts that no route of the library calls, kept as the
references its kernels and the acceptance criteria are tested against.

Graded vector spaces and block operators with their supertrace, superdeterminant and Gaussian
partition value (the graded algebra that the block spectra of a MatrixBFModel replace); the
full two-term space of a toy complex, its projection lemma and the quadratic perturbing
functional; the regularized determinant of a matrix generator and trace cyclicity; and, for
hyperbolic toral models, the exact power A^n, the fixed-point count |det(A^n - I)| and the
prime-orbit census per period; the volume of the ordered simplex of flow times by quadrature;
and the per-point term-decay heuristic of the bridge, which bf_engine._terms_grow evaluates for a
whole grid.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ruellebf.bf_engine import MatrixBFModel
from ruellebf.graded_core import _check_nonsingular
from ruellebf.orbits import HyperbolicToralModel, _census, anosov_check
from ruellebf.series import HbarSeries


# ------------------------------------------------------------------ graded algebra

@dataclass(frozen=True)
class GradedVectorSpace:
    """Finite-dimensional Z-graded vector space: degree -> dimension."""

    dims: Mapping[int, int]

    def __post_init__(self):
        clean = {}
        for k, n in self.dims.items():
            if int(n) < 0:
                raise ValueError(f"negative dimension {n} in degree {k}")
            clean[int(k)] = int(n)
        object.__setattr__(self, "dims", dict(sorted(clean.items())))

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self.dims)

    def dim(self, degree: int) -> int:
        return self.dims.get(degree, 0)


def _as_block(mat) -> np.ndarray:
    block = np.asarray(mat, dtype=complex)
    if block.ndim != 2:
        raise ValueError("graded blocks must be matrices")
    return block


@dataclass(frozen=True)
class GradedOperator:
    """Block operator mapping degree k to degree k + degree_shift."""

    domain: GradedVectorSpace
    blocks: Mapping[int, np.ndarray]
    degree_shift: int = 0

    def __post_init__(self):
        blocks = {int(k): _as_block(b) for k, b in self.blocks.items()}
        for k, b in blocks.items():
            rows = self.domain.dim(k + self.degree_shift)
            cols = self.domain.dim(k)
            if b.shape != (rows, cols):
                raise ValueError(
                    f"block at degree {k} has shape {b.shape}, expected {(rows, cols)}"
                )
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def identity(cls, domain: GradedVectorSpace) -> "GradedOperator":
        return cls(domain, {k: np.eye(n) for k, n in domain.dims.items() if n > 0})

    def block(self, degree: int) -> np.ndarray:
        rows = self.domain.dim(degree + self.degree_shift)
        cols = self.domain.dim(degree)
        return self.blocks.get(degree, np.zeros((rows, cols), dtype=complex))

    def compose(self, other: "GradedOperator") -> "GradedOperator":
        """self after other; inner degrees and dimensions must match."""
        if other.domain != self.domain:
            raise ValueError("composition needs a shared graded space")
        shift = self.degree_shift + other.degree_shift
        blocks = {}
        for k in other.blocks:
            left = self.block(k + other.degree_shift)
            if left.size or other.blocks[k].size:
                blocks[k] = left @ other.blocks[k]
        return GradedOperator(self.domain, blocks, shift)


def supertrace(op: GradedOperator) -> complex:
    """Alternating trace sum_k (-1)**k tr(op_k) of a degree-preserving operator."""
    if op.degree_shift != 0:
        raise ValueError("not degree-preserving")
    total = 0j
    for k in sorted(op.domain.degrees):
        blk = op.block(k)
        if blk.size:
            total += (-1) ** k * complex(np.trace(blk))
    return total


def superdeterminant(op: GradedOperator) -> complex:
    """Alternating product prod_k det(op_k)**((-1)**k); every block must be invertible."""
    if op.degree_shift != 0:
        raise ValueError("not degree-preserving")
    result = 1.0 + 0j
    for k in sorted(op.domain.degrees):
        if op.domain.dim(k) == 0:
            continue
        _check_nonsingular(op.block(k), k)
        det = complex(np.linalg.det(op.block(k)))
        result = result * det if k % 2 == 0 else result / det
    return result


def gaussian_partition(op: GradedOperator) -> float:
    """Gaussian partition value |sdet(op)|**(-1/2); the phase is dropped."""
    return float(abs(superdeterminant(op)) ** -0.5)


# ------------------------------------------------------ the full two-term space

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


def perturbing_functional(model: MatrixBFModel, A: np.ndarray, B: np.ndarray) -> complex:
    """Quadratic perturbation <B, L^{-1} d A> in the bilinear toy pairing."""
    cx = model.complex
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    return complex(B @ (cx.L1_inv @ (cx.d @ A)))


# ------------------------------------------------------ regularized determinants

class BranchCutError(ValueError):
    """An eigenvalue crossed the principal-branch cut of the logarithm."""


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


# ------------------------------------------------------------ toral orbit counts

def power(model: HyperbolicToralModel, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Exact integer power A^n (Python big ints), by binary powers."""
    an = np.linalg.matrix_power(np.array(model.A, dtype=object), n)
    return tuple(tuple(int(x) for x in row) for row in an)


def fixed_point_count(model: HyperbolicToralModel, n: int) -> int:
    """Number of fixed points of the n-th iterate on the torus: |det(A^n - I)|."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not anosov_check(model)[0]:
        raise ValueError("not Anosov: an eigenvalue lies on the unit circle")
    an = power(model, n)
    det = (an[0][0] - 1) * (an[1][1] - 1) - an[0][1] * an[1][0]
    return abs(det)


def prime_orbit_counts(model: HyperbolicToralModel, n_max: int) -> dict[int, int]:
    """Prime-orbit census per period via the divisor sieve on fixed-point counts."""
    return {n: count for n, _, count in _census(model, n_max)}


# ------------------------------------------------------------- the ordered simplex

def simplex_volume_quadrature(n: int, t: float, nodes: int = 2001) -> float:
    """Volume of the ordered (n - 1)-simplex of flow times 0 <= t_1 <= ... <= t_(n-1) <= t, by an
    iterated cumulative trapezoid rule; t**(n - 1) / (n - 1)! in closed form."""
    grid = np.linspace(0.0, t, nodes)
    vol = np.ones_like(grid)
    for _ in range(n - 1):
        vol = np.concatenate(([0.0], np.cumsum((vol[1:] + vol[:-1]) * 0.5 * np.diff(grid))))
    return vol[-1]


# ------------------------------------------------------- the bridge's radius heuristic

def terms_grow(series: HbarSeries, hbar: complex) -> bool:
    """Term-decay heuristic for the Taylor radius at one point: the last nonzero |c_n hbar**n| is
    no smaller than the first, or a term is past the float range."""
    try:
        magnitudes = [abs(series.coefficient(n) * hbar ** n) for n in range(1, series.order + 1)]
    except OverflowError:
        return True
    magnitudes = [v for v in magnitudes if v > 0]
    return len(magnitudes) >= 2 and magnitudes[-1] >= magnitudes[0]
