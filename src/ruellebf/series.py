"""Truncated formal power series in a single bookkeeping parameter.

Expansion coefficients are kept as exact coefficient lists until a caller
evaluates at a concrete complex value; nothing here evaluates eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HbarSeries:
    """Polynomial truncation sum_p coeffs[p] * hbar**p."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, power: int) -> complex:
        if not 0 <= power <= self.order:
            raise IndexError(f"power {power} outside truncation order {self.order}")
        return self.coeffs[power]

    def eval(self, hbar: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * hbar + c
        return acc
