"""The two-term matrix complex of the matrix route.

The complex d: V0 -> V1, iota: V1 -> V0 serves as the desk-scale analogue
of the gauge-fixed field theory. It inverts its gauge-fixed generator L1
once, at construction; every gauge route reads that inverse.

Scalars are complex throughout. A block is flagged singular when its
smallest singular value is at most 1e-12 times its largest, a test that
does not depend on the scale or the dimension of the block; the check takes
no determinant. The partition value |det(L + hbar)| of the complex is
bf_engine.partition_grid, read off the block spectra; its per-point LU
reference and the graded operator algebra (supertrace, superdeterminant)
live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SINGULARITY_RTOL = 1e-12


class SingularBlockError(ValueError):
    """A graded block (or the toy generator) is numerically singular."""

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


def _check_nonsingular(block: np.ndarray, degree) -> None:
    """Raise SingularBlockError when the smallest singular value of a nonempty block is at most
    SINGULARITY_RTOL times its largest."""
    if block.shape[0] == 0:
        return
    sigma = np.linalg.svd(block, compute_uv=False)
    if sigma[-1] <= SINGULARITY_RTOL * sigma[0]:
        raise SingularBlockError(f"singular block in degree {degree}", degree=degree)


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
            _check_nonsingular(self.L0, 0)
        except SingularBlockError:
            raise SingularBlockError(
                "zero is a Pollicott-Ruelle resonance of the toy model", degree=0
            ) from None
        object.__setattr__(self, "L1_inv", np.linalg.inv(self.L1))

    @property
    def n(self) -> int:
        return self.d.shape[0]
