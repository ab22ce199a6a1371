"""Connected-diagram sums and the quadratic renormalisation-group flow.

The perturbative quantisation scheme over a finite-dimensional space: a
propagator is its complex matrix, and gamma_sum sums the connected diagrams
of an interaction without building a graph, chains and cycles in closed
form for quadratic vertices, the linked-cluster theorem for any other
degrees. rge_evolve flows a quadratic effective form through a propagator
window. The Feynman graphs, automorphism counts and tensor-contraction
weights these closed forms are checked against live with the tests.

Tensor normalization: the degree-d term stores the fully symmetric tensor
T_d with I_d(x) = T_d(x,...,x)/d!, so T_d itself is the vertex factor and
the 1/|Aut| symmetry weights of the connected-graph expansion come out in
the standard normalization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .series import HbarSeries


class ConvergenceError(ArithmeticError):
    """A resummed series was requested outside its convergence region."""

    def __init__(self, message, norm=None):
        super().__init__(message)
        self.norm = norm


@dataclass(frozen=True)
class Interaction:
    """Map degree -> fully symmetric coefficient tensor (see module docstring)."""

    terms: Mapping[int, np.ndarray]

    def __post_init__(self):
        clean = {int(d): np.asarray(t, dtype=complex) for d, t in self.terms.items()}
        if len({n for t in clean.values() for n in t.shape}) > 1:
            raise ValueError("every axis of every term must have the same length")
        for d, t in clean.items():
            if t.ndim != d:
                raise ValueError(f"degree-{d} term must be a rank-{d} tensor")
            scale = float(np.max(np.abs(t))) if t.size else 0.0
            for perm in itertools.permutations(range(d)):
                if np.max(np.abs(t - np.transpose(t, perm))) > 1e-12 * max(scale, 1.0):
                    raise ValueError(f"degree-{d} tensor is not symmetric")
        object.__setattr__(self, "terms", clean)

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(d for d, t in self.terms.items() if t.size and np.any(t)))

    @property
    def dim(self) -> int:
        for t in self.terms.values():
            if t.ndim:
                return t.shape[0]
        return 0


@dataclass(frozen=True)
class GammaExpansion:
    """Connected-diagram sum bucketed by (vertex count, loop count).

    The two gradings in play collapse differently: a coupling constant on the
    interaction counts vertices, while the semiclassical parameter counts
    loops plus one per vertex when the vertex itself is first order in it.
    """

    terms: Mapping[tuple[int, int], complex]
    max_order: int

    def hbar_series(self, count_loops: bool = True) -> HbarSeries:
        if self.terms:
            top = max(n + (l if count_loops else 0) for n, l in self.terms)
        else:
            top = 0
        coeffs = [0j] * (max(top, self.max_order) + 1)
        for (n, l), value in sorted(self.terms.items()):
            coeffs[n + (l if count_loops else 0)] += value
        return HbarSeries(tuple(coeffs))

    def vertex_coefficients(self) -> HbarSeries:
        """Coefficients graded by vertex count alone (coupling-constant grading)."""
        return self.hbar_series(count_loops=False)


def _poly_mul(p: dict, q: dict) -> dict:
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            k = tuple(i + j for i, j in zip(a, b))
            out[k] = out.get(k, 0j) + x * y
    return out


def _wick_step(poly: dict, edge: np.ndarray) -> dict:
    """One contraction (1/2) sum_ij E_ij d_i d_j of a polynomial, E symmetric."""
    out = {}
    for a, c in poly.items():
        for i, j in itertools.combinations_with_replacement(range(len(a)), 2):
            mult = a[i] * (a[i] - 1) // 2 if i == j else a[i] * a[j]
            if mult:
                k = tuple(x - (m == i) - (m == j) for m, x in enumerate(a))
                out[k] = out.get(k, 0j) + mult * edge[i, j] * c
    return out


def _linked_cluster_terms(edge, verts, ext, max_order):
    """Connected sums for any vertex degrees, by the linked-cluster theorem.

    Polynomials are {exponent tuple: coefficient} dicts. With the vertex
    polynomial I(x) = sum_d T_d(x,...,x)/d!, all graphs with n vertices and
    e edges sum to Z_n[e] = (D^e/e! I^n/n!)(ext), D the Wick step; the
    connected ones are the log of 1 + sum_n g^n Z_n in g, e kept as a grade.
    """
    point = ext.tolist()
    vertex = {}
    for d, t in verts.items():
        for idx in itertools.combinations_with_replacement(range(len(point)), d):
            alpha = tuple(idx.count(i) for i in range(len(point)))
            vertex[alpha] = t[idx] / math.prod(map(math.factorial, alpha))
    z, w, poly = [None], [None], {(0,) * len(point): 1.0}
    for n in range(1, max_order + 1):
        poly = {a: c / n for a, c in _poly_mul(poly, vertex).items()}
        z_n, step = [], poly
        while step:
            z_n.append(sum(c * math.prod(x**k for x, k in zip(point, a)) for a, c in step.items()))
            step = {a: c / len(z_n) for a, c in _wick_step(step, edge).items()}
        # n W_n = n Z_n - sum_{0<k<n} k W_k Z_{n-k}, termwise in e
        w_n = dict(enumerate(z_n))
        for k in range(1, n):
            for i, x in w[k].items():
                for j, y in enumerate(z[n - k]):
                    w_n[i + j] = w_n.get(i + j, 0j) - k * x * y / n
        z.append(z_n)
        w.append(w_n)
    # e < n - 1 edges cannot connect n vertices; only rounding residue sits there
    return {(n, e - n + 1): c for n in range(1, max_order + 1) for e, c in w[n].items() if e >= n - 1}


def gamma_sum(
    propagator: np.ndarray,
    interaction: Interaction,
    external,
    max_order: int,
    damped: bool = False,
) -> GammaExpansion:
    """Connected-diagram expansion sum_gamma weight(gamma)/|Aut(gamma)|.

    `damped` switches from the oscillatory factors (i P, i T_d) to the real
    Gaussian convention (P, -T_d). The propagator enters through its
    symmetric part, the covariance of the Gaussian. A purely quadratic
    interaction sums its chains and cycles in closed form, as matrix powers;
    any other degree set goes through the linked-cluster theorem. Neither
    builds a graph.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    dim = interaction.dim
    propagator = np.asarray(propagator, dtype=complex)
    ext = np.zeros(dim, dtype=complex) if external is None else np.asarray(external, dtype=complex)
    if dim and (propagator.shape != (dim, dim) or ext.shape != (dim,)):
        raise ValueError(f"propagator must be {dim} x {dim} and the external field of length {dim}")
    degrees = interaction.degrees()
    edge = (1.0 if damped else 1j) * (propagator + propagator.T) / 2
    verts = {d: (-1.0 if damped else 1j) * interaction.terms[d] for d in degrees}
    if degrees == (2,):
        # chains ext.V(EV)^(n-1).ext / 2 and cycles tr (EV)^n / (2n)
        terms, hop = {}, edge @ verts[2]
        chain, cycle = verts[2], hop
        for n in range(1, max_order + 1):
            terms[(n, 0)] = ext @ chain @ ext / 2
            terms[(n, 1)] = np.trace(cycle) / (2 * n)
            chain, cycle = chain @ hop, cycle @ hop
    else:
        terms = _linked_cluster_terms(edge, verts, ext, max_order)
    return GammaExpansion({k: complex(v) for k, v in terms.items() if v != 0}, max_order)


@dataclass(frozen=True)
class EffectiveQuadraticInteraction:
    """Scale-dependent quadratic form as a formal series: kernels[j] at order j+1."""

    kernels: tuple[np.ndarray, ...]

    def __post_init__(self):
        ks = tuple(np.asarray(k, dtype=complex) for k in self.kernels)
        if not ks:
            raise ValueError("at least one kernel order is required")
        shape = ks[0].shape
        if any(k.shape != shape for k in ks):
            raise ValueError("all kernel orders must share one shape")
        object.__setattr__(self, "kernels", ks)

    @classmethod
    def from_kernel(cls, kernel: np.ndarray, order: int) -> "EffectiveQuadraticInteraction":
        k = np.asarray(kernel, dtype=complex)
        zeros = np.zeros_like(k)
        return cls((k,) + (zeros,) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.kernels)


def rge_evolve(
    effective: EffectiveQuadraticInteraction,
    propagator: np.ndarray,
) -> EffectiveQuadraticInteraction:
    """Flow a quadratic effective form through a propagator window.

    The chain diagrams resum to the geometric update J -> J (1 + P J)^{-1},
    carried out order by order on the kernel series. The update requires the
    spectral radius of P J_1 below 1 so the resummed form converges.
    """
    p = np.asarray(propagator, dtype=complex)
    order = effective.order
    a = (None,) + effective.kernels  # 1-based
    radius = float(np.max(np.abs(np.linalg.eigvals(p @ a[1])))) if a[1].size else 0.0
    if radius >= 1.0:
        raise ConvergenceError(
            f"geometric kernel update diverges: spectral radius {radius:.6g} >= 1",
            norm=radius,
        )
    # invert C = 1 + P A as a series, then multiply by A
    c = [None] + [p @ a[n] for n in range(1, order + 1)]
    b = [np.eye(p.shape[0], dtype=complex)]
    for n in range(1, order + 1):
        acc = np.zeros_like(b[0])
        for j in range(1, n + 1):
            acc -= c[j] @ b[n - j]
        b.append(acc)
    out = []
    for n in range(1, order + 1):
        acc = np.zeros_like(b[0])
        for i in range(1, n + 1):
            acc += a[i] @ b[n - i]
        out.append(acc)
    return EffectiveQuadraticInteraction(tuple(out))
