"""Finite-dimensional graded linear algebra.

Graded operators with their supertraces and superdeterminants, Gaussian
partition values, and the two-term matrix complex that serves as the
desk-scale analogue of the gauge-fixed field theory. The complex inverts
its gauge-fixed generator L1 once, at construction; every gauge route reads
that inverse.

Scalars are complex throughout; absolute values are taken only where a
partition value is formed. Determinants go through LU factorization with
partial pivoting (LAPACK getrf), and a block is flagged singular when its
smallest singular value is at most 1e-12 times its largest, a test that
does not depend on the scale or the dimension of the block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

SINGULARITY_RTOL = 1e-12


class SingularBlockError(ValueError):
    """A graded block (or the toy generator) is numerically singular."""

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


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


def _checked_det(block: np.ndarray, degree) -> complex:
    if block.shape[0] == 0:
        return 1.0 + 0j
    sigma = np.linalg.svd(block, compute_uv=False)
    if sigma[-1] <= SINGULARITY_RTOL * sigma[0]:
        raise SingularBlockError(f"singular block in degree {degree}", degree=degree)
    return complex(np.linalg.det(block))


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
        det = _checked_det(op.block(k), k)
        result = result * det if k % 2 == 0 else result / det
    return result


def gaussian_partition(op: GradedOperator) -> float:
    """Gaussian partition value |sdet(op)|**(-1/2); the phase is dropped."""
    return float(abs(superdeterminant(op)) ** -0.5)


@dataclass(frozen=True)
class ToyBFComplex:
    """Two-term complex d: V0 -> V1, iota: V1 -> V0 with invertible L = iota @ d.

    The graded commutator acts as L0 = iota @ d on V0 and L1 = d @ iota on V1;
    both share the nonzero spectrum, and invertibility of one gives the other.
    L1_inv is the gauge-fixed inverse, computed once after the singularity check.
    """

    d: np.ndarray
    iota: np.ndarray = None
    L0: np.ndarray = field(init=False, repr=False)
    L1: np.ndarray = field(init=False, repr=False)
    L1_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = np.asarray(self.d, dtype=complex)
        iota = np.eye(d.shape[0], dtype=complex) if self.iota is None else np.asarray(self.iota, dtype=complex)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("d must be square (equal-dimension V0 and V1)")
        if iota.shape != d.shape[::-1]:
            raise ValueError("iota must map V1 back to V0")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "iota", iota)
        object.__setattr__(self, "L0", iota @ d)
        object.__setattr__(self, "L1", d @ iota)
        try:
            _checked_det(self.L0, 0)
        except SingularBlockError:
            raise SingularBlockError(
                "zero is a Pollicott-Ruelle resonance of the toy model", degree=0
            ) from None
        object.__setattr__(self, "L1_inv", np.linalg.inv(self.L1))

    @property
    def n(self) -> int:
        return self.d.shape[0]


def toy_bf_partition(complex_: ToyBFComplex, hbar: complex) -> float:
    """Gauge-fixed partition value |det(L + hbar)| of the perturbed toy complex.

    Evaluated through the gauge-fixed operator iota (1 + hbar L1^{-1}) d on V0
    and cross-checked against the direct determinant: the two may differ by
    1e-10 * max(1, either value, max|L0|**n), far looser than relative once
    n exceeds a few.
    """
    n = complex_.n
    direct = abs(complex(np.linalg.det(complex_.L0 + hbar * np.eye(n))))
    inner = np.eye(n, dtype=complex) + hbar * complex_.L1_inv
    gauge = abs(complex(np.linalg.det(complex_.iota @ inner @ complex_.d)))
    with np.errstate(over="ignore"):  # max|L0|^n may exceed the float range: the scale is then inf
        scale = max(direct, gauge, np.max(np.abs(complex_.L0)) ** n)
    if abs(direct - gauge) > 1e-10 * max(scale, 1.0):
        raise ArithmeticError(
            f"gauge-fixed and direct determinants disagree: {gauge!r} vs {direct!r}"
        )
    return direct
