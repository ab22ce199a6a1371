"""Feynman graphs and connected-diagram sums over finite-dimensional spaces.

A graph is the combinatorial quadruple (vertices, half-edges, incidence,
involution); fixed points of the involution are tails, 2-orbits are edges.
Weights are plain tensor contractions: tails take the external vector, edges
take i times the propagator matrix, order-d vertices take i times the stored
interaction tensor. The connected-diagram sum builds no graph: chains and
cycles in closed form for quadratic vertices, the linked-cluster theorem for
any other degrees. The graphs, their automorphism counts and their weights
are the reference those closed forms are tested against; no command of the
CLI builds a graph.

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

MAX_HALF_EDGES = 40


class ConvergenceError(ArithmeticError):
    """A resummed series was requested outside its convergence region."""

    def __init__(self, message, norm=None):
        super().__init__(message)
        self.norm = norm


@dataclass(frozen=True)
class FeynmanGraph:
    """Vertices 0..n_vertices-1, half-edges 0..len(incidence)-1.

    ``tail_labels`` optionally tags the involution's fixed points (in
    ascending half-edge order) with external-slot labels; automorphisms must
    preserve the labels, so distinctly labeled chain ends kill the end swap.
    """

    n_vertices: int
    incidence: tuple[int, ...]
    involution: tuple[int, ...]
    tail_labels: tuple | None = None

    def __post_init__(self):
        inc = tuple(int(v) for v in self.incidence)
        inv = tuple(int(h) for h in self.involution)
        object.__setattr__(self, "incidence", inc)
        object.__setattr__(self, "involution", inv)
        if len(inv) != len(inc):
            raise ValueError("incidence and involution must cover the same half-edges")
        n_h = len(inc)
        if sorted(inv) != list(range(n_h)):
            raise ValueError("involution is not a permutation of the half-edges")
        for h, s in enumerate(inv):
            if inv[s] != h:
                raise ValueError("involution composed with itself is not the identity")
        if any(not 0 <= v < self.n_vertices for v in inc):
            raise ValueError("incidence points outside the vertex set")
        if self.tail_labels is not None:
            if len(self.tail_labels) != len(self.tails):
                raise ValueError("one label per tail required")
            object.__setattr__(self, "tail_labels", tuple(self.tail_labels))

    @property
    def n_half_edges(self) -> int:
        return len(self.incidence)

    @property
    def tails(self) -> tuple[int, ...]:
        return tuple(h for h, s in enumerate(self.involution) if s == h)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((h, s) for h, s in enumerate(self.involution) if h < s)

    def tail_label(self, h: int):
        if self.tail_labels is None:
            return None
        return self.tail_labels[self.tails.index(h)]

    def vertex_degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n_vertices
        for v in self.incidence:
            deg[v] += 1
        return tuple(deg)

    def without_tail_labels(self) -> "FeynmanGraph":
        return FeynmanGraph(self.n_vertices, self.incidence, self.involution)


def is_connected(graph: FeynmanGraph) -> bool:
    if graph.n_vertices == 0:
        return False
    seen = {0}
    frontier = [0]
    adj = [[] for _ in range(graph.n_vertices)]
    for h1, h2 in graph.edges:
        a, b = graph.incidence[h1], graph.incidence[h2]
        adj[a].append(b)
        adj[b].append(a)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == graph.n_vertices


def loop_count(graph: FeynmanGraph) -> int:
    """First Betti number of a connected graph: edges - vertices + 1."""
    if not is_connected(graph):
        raise ValueError("loop count is defined here for connected graphs only")
    return len(graph.edges) - graph.n_vertices + 1


def chain_graph(order: int, tail_labels: tuple | None = ("B", "A")) -> FeynmanGraph:
    """Open chain of `order` bivalent vertices with two tails.

    The default labels mark the two external slots as distinguishable ends,
    which excludes the end-swapping automorphism.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    incidence = tuple(h // 2 for h in range(2 * order))
    involution = list(range(2 * order))
    for v in range(order - 1):
        involution[2 * v + 1] = 2 * v + 2
        involution[2 * v + 2] = 2 * v + 1
    return FeynmanGraph(order, incidence, tuple(involution), tail_labels)


def cycle_graph(order: int) -> FeynmanGraph:
    """Closed loop of `order` bivalent vertices; order 1 is the single self-loop."""
    if order < 1:
        raise ValueError("order must be >= 1")
    incidence = tuple(h // 2 for h in range(2 * order))
    involution = [0] * (2 * order)
    for v in range(order):
        a = 2 * v + 1
        b = (2 * v + 2) % (2 * order)
        involution[a] = b
        involution[b] = a
    return FeynmanGraph(order, incidence, tuple(involution))


def _half_edges_by_vertex(graph: FeynmanGraph) -> list[list[int]]:
    buckets = [[] for _ in range(graph.n_vertices)]
    for h, v in enumerate(graph.incidence):
        buckets[v].append(h)
    return buckets


def _assignment_order(graph: FeynmanGraph) -> list[int]:
    """Half-edges ordered so each one touches previously assigned structure."""
    seen, order, queue = set(), [], []
    buckets = _half_edges_by_vertex(graph)
    for root in range(graph.n_half_edges):
        if root in seen:
            continue
        queue.append(root)
        seen.add(root)
        while queue:
            h = queue.pop(0)
            order.append(h)
            for nxt in (graph.involution[h], *buckets[graph.incidence[h]]):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return order


def _graph_map_count(g1: FeynmanGraph, g2: FeynmanGraph, stop_at_first=False) -> int:
    """Count structure-preserving maps g1 -> g2 (vertex + half-edge bijections).

    Backtracking over half-edges in adjacency order; incidence, involution,
    and tail labels are enforced incrementally, so chains and cycles resolve
    in nearly linear time instead of the factorial permutation sweep.
    """
    deg1, deg2 = g1.vertex_degrees(), g2.vertex_degrees()
    if (
        g1.n_vertices != g2.n_vertices
        or g1.n_half_edges != g2.n_half_edges
        or sorted(deg1) != sorted(deg2)
    ):
        return 0
    check_labels = g1.tail_labels is not None or g2.tail_labels is not None
    b2 = _half_edges_by_vertex(g2)
    order = _assignment_order(g1)
    hmap = [-1] * g1.n_half_edges
    hused = [False] * g2.n_half_edges
    vmap = [-1] * g1.n_vertices
    vused = [False] * g2.n_vertices
    count = 0

    def candidates(h):
        v = g1.incidence[h]
        if vmap[v] >= 0:
            pool = [x for x in b2[vmap[v]] if not hused[x]]
        else:
            pool = [
                x
                for w in range(g2.n_vertices)
                if not vused[w] and deg2[w] == deg1[v]
                for x in b2[w]
                if not hused[x]
            ]
        partner = g1.involution[h]
        out = []
        for x in pool:
            px = g2.involution[x]
            if partner == h:
                if px != x:
                    continue
                if check_labels and g1.tail_label(h) != g2.tail_label(x):
                    continue
            elif hmap[partner] >= 0:
                if px != hmap[partner]:
                    continue
            else:
                # partner still unassigned: its forced image must be free
                if px == x or hused[px]:
                    continue
            out.append(x)
        return out

    def search(idx):
        nonlocal count
        if idx == len(order):
            count += 1
            return
        h = order[idx]
        v = g1.incidence[h]
        for x in candidates(h):
            w = g2.incidence[x]
            claimed_vertex = vmap[v] < 0
            hmap[h] = x
            hused[x] = True
            if claimed_vertex:
                vmap[v] = w
                vused[w] = True
            search(idx + 1)
            if claimed_vertex:
                vmap[v] = -1
                vused[w] = False
            hmap[h] = -1
            hused[x] = False
            if stop_at_first and count:
                return

    search(0)
    # vertices without half-edges may map to any unused bare vertex
    bare1 = sum(1 for d in deg1 if d == 0)
    if bare1:
        count *= math.factorial(bare1)
    return count


def automorphism_order(graph: FeynmanGraph) -> int:
    """Cardinality of the automorphism group, label-preserving on tails."""
    return _graph_map_count(graph, graph)


def is_isomorphic(g1: FeynmanGraph, g2: FeynmanGraph) -> bool:
    return _graph_map_count(g1, g2, stop_at_first=True) > 0


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
class PropagatorKernel:
    """Dense propagator matrix with its scale window and regularization."""

    matrix: np.ndarray
    scale_window: tuple[float, float] = (0.0, math.inf)
    lambda_reg: complex = 0.0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if not np.all(np.isfinite(m)):
            raise ValueError("propagator entries must be finite")
        l1, l2 = self.scale_window
        if not 0 <= l1 <= l2:
            raise ValueError("scale window must satisfy 0 <= L1 <= L2")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "scale_window", (float(l1), float(l2)))


def contract_graph(
    graph: FeynmanGraph,
    edge_matrix: np.ndarray,
    vertex_tensors: Mapping[int, np.ndarray],
    tail_vectors: Mapping[int, np.ndarray],
) -> complex:
    """Raw tensor-network contraction of a graph; one index per half-edge."""
    if graph.n_half_edges > MAX_HALF_EDGES:
        raise ValueError(f"graph has more than {MAX_HALF_EDGES} half-edges")
    operands = []
    buckets = _half_edges_by_vertex(graph)
    for v in range(graph.n_vertices):
        d = len(buckets[v])
        if d not in vertex_tensors:
            raise KeyError(f"no interaction term of degree {d} for vertex {v}")
        operands.append(np.asarray(vertex_tensors[d], dtype=complex))
        operands.append(list(buckets[v]))
    for h1, h2 in graph.edges:
        operands.append(np.asarray(edge_matrix, dtype=complex))
        operands.append([h1, h2])
    for h in graph.tails:
        if h not in tail_vectors:
            raise KeyError(f"no external vector supplied for tail {h}")
        operands.append(np.asarray(tail_vectors[h], dtype=complex))
        operands.append([h])
    operands.append([])
    return complex(np.einsum(*operands, optimize="greedy"))


def _tail_vector_map(graph: FeynmanGraph, external) -> dict[int, np.ndarray]:
    tails = graph.tails
    if external is None:
        if tails:
            raise ValueError("graph has tails but no external field was supplied")
        return {}
    if isinstance(external, Mapping):
        out = {}
        for h in tails:
            label = graph.tail_label(h)
            if label not in external:
                raise KeyError(f"external field mapping lacks slot {label!r}")
            out[h] = np.asarray(external[label], dtype=complex)
        return out
    vec = np.asarray(external, dtype=complex)
    return {h: vec for h in tails}


def graph_weight(
    graph: FeynmanGraph,
    propagator: PropagatorKernel,
    interaction: Interaction,
    external,
) -> complex:
    """Oscillatory-convention weight: edges carry i P, order-d vertices carry i T_d."""
    vertex_tensors = {d: 1j * t for d, t in interaction.terms.items()}
    return contract_graph(
        graph, 1j * propagator.matrix, vertex_tensors, _tail_vector_map(graph, external)
    )


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
    propagator: PropagatorKernel,
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
    ext = np.zeros(dim, dtype=complex) if external is None else np.asarray(external, dtype=complex)
    if dim and (propagator.matrix.shape != (dim, dim) or ext.shape != (dim,)):
        raise ValueError(f"propagator must be {dim} x {dim} and the external field of length {dim}")
    degrees = interaction.degrees()
    edge = (1.0 if damped else 1j) * (propagator.matrix + propagator.matrix.T) / 2
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
    propagator: PropagatorKernel,
) -> EffectiveQuadraticInteraction:
    """Flow a quadratic effective form through a propagator window.

    The chain diagrams resum to the geometric update J -> J (1 + P J)^{-1},
    carried out order by order on the kernel series. The update requires the
    spectral radius of P J_1 below 1 so the resummed form converges.
    """
    p = np.asarray(propagator.matrix, dtype=complex)
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
