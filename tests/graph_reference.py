"""Independent references the closed forms of the library are tested against.

Feynman graphs as the combinatorial quadruple (vertices, half-edges,
incidence, involution): fixed points of the involution are tails, 2-orbits
are edges. Automorphisms are counted by backtracking, and weights are plain
tensor contractions: tails take the external vector, edges take i times the
propagator matrix, order-d vertices take i times the stored interaction
tensor. No route of the library builds a graph; gamma_sum, gamma_int and
gamma_tr sum chains and cycles in closed form, and the tests compare them
with these weights divided by the automorphism counts.

The doubled (A, B) field content of the BF model is realized by the doubled
vertex tensor and propagator of doubled_field_tensors, whose loop contraction
doubles, so that no route of the library carries an explicit factor of two;
embed_doubled places the external vectors on the same doubled field space, and
toy_bf_partition is the per-point LU reference for bf_engine.partition_grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ruellebf.feynman import Interaction
from ruellebf.graded_core import ToyBFComplex

MAX_HALF_EDGES = 40


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
        inc, inv = tuple(int(v) for v in self.incidence), tuple(int(h) for h in self.involution)
        object.__setattr__(self, "incidence", inc)
        object.__setattr__(self, "involution", inv)
        if len(inv) != len(inc):
            raise ValueError("incidence and involution must cover the same half-edges")
        if sorted(inv) != list(range(len(inc))):
            raise ValueError("involution is not a permutation of the half-edges")
        if any(inv[s] != h for h, s in enumerate(inv)):
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
        return None if self.tail_labels is None else self.tail_labels[self.tails.index(h)]

    def vertex_degrees(self) -> tuple[int, ...]:
        return tuple(self.incidence.count(v) for v in range(self.n_vertices))

    def without_tail_labels(self) -> "FeynmanGraph":
        return FeynmanGraph(self.n_vertices, self.incidence, self.involution)


def is_connected(graph: FeynmanGraph) -> bool:
    if graph.n_vertices == 0:
        return False
    seen, frontier = {0}, [0]
    adj = [[] for _ in range(graph.n_vertices)]
    for h1, h2 in graph.edges:
        a, b = graph.incidence[h1], graph.incidence[h2]
        adj[a].append(b)
        adj[b].append(a)
    while frontier:
        for w in adj[frontier.pop()]:
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


def contract_graph(graph: FeynmanGraph, edge_matrix: np.ndarray, vertex_tensors: Mapping[int, np.ndarray],
                   tail_vectors: Mapping[int, np.ndarray]) -> complex:
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


def embed_doubled(model, A=None, B=None) -> dict:
    """External-slot vectors on the doubled field space V0 (A) + V1 (B) of a MatrixBFModel,
    keyed by tail label: A fills the V0 half, B the V1 half."""
    n = model.complex.n
    a_vec = np.zeros(2 * n, dtype=np.complex128)
    b_vec = np.zeros(2 * n, dtype=np.complex128)
    if A is not None:
        a_vec[:n] = np.asarray(A, dtype=np.complex128)
    if B is not None:
        b_vec[n:] = np.asarray(B, dtype=np.complex128)
    return {"A": a_vec, "B": b_vec}


def doubled_field_tensors(model, propagator: np.ndarray):
    """Vertex tensor and edge matrix on the doubled field space V0 (A) + V1 (B) of a MatrixBFModel.

    Fed to feynman.gamma_sum, or to graph_weight, these reproduce the chain and loop coefficients of
    gamma_int and gamma_tr including the doubling that cancels the 1/2 of the loop symmetry factor;
    the tests pin this equivalence order by order.
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


def graph_weight(graph: FeynmanGraph, propagator: np.ndarray, interaction: Interaction, external) -> complex:
    """Oscillatory-convention weight: edges carry i P, order-d vertices carry i T_d."""
    vertex_tensors = {d: 1j * t for d, t in interaction.terms.items()}
    return contract_graph(graph, 1j * np.asarray(propagator, dtype=complex), vertex_tensors,
                          _tail_vector_map(graph, external))


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
        raise ArithmeticError(f"gauge-fixed and direct determinants disagree: {gauge!r} vs {direct!r}")
    return direct
