import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from ruellebf.feynman import ConvergenceError, EffectiveQuadraticInteraction, Interaction, gamma_sum, rge_evolve

from graph_reference import (FeynmanGraph, automorphism_order, chain_graph, cycle_graph, graph_weight, is_connected,
                             is_isomorphic, loop_count)


# ---------------------------------------------------------------- enumeration

def _involutions(elements):
    if not elements:
        yield []
        return
    head, rest = elements[0], elements[1:]
    for sub in _involutions(rest):
        yield [(head, head)] + sub
    for i, partner in enumerate(rest):
        for sub in _involutions(rest[:i] + rest[i + 1:]):
            yield [(head, partner)] + sub


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_enumeration_completeness_brute_force(order):
    """Every connected bivalent involution graph is a chain or a cycle."""
    rng = np.random.default_rng(order)
    incidence = tuple(h // 2 for h in range(2 * order))
    chain_ref = chain_graph(order, tail_labels=None)
    cycle_ref = cycle_graph(order)
    found = {"chain": 0, "cycle": 0}
    connected_graphs = []
    for pairing in _involutions(list(range(2 * order))):
        involution = list(range(2 * order))
        for a, b in pairing:
            involution[a], involution[b] = b, a
        graph = FeynmanGraph(order, incidence, tuple(involution))
        if not is_connected(graph):
            continue
        n_tails = len(graph.tails)
        assert n_tails in (0, 2), "connected bivalent graphs have 0 or 2 tails"
        found["chain" if n_tails else "cycle"] += 1
        connected_graphs.append(graph)
    assert found["chain"] > 0 and found["cycle"] > 0
    # iso spot-check against the canonical representatives
    sample = rng.choice(len(connected_graphs), size=min(20, len(connected_graphs)), replace=False)
    for idx in sample:
        graph = connected_graphs[int(idx)]
        ref = chain_ref if graph.tails else cycle_ref
        assert is_isomorphic(graph, ref)


# ------------------------------------------------------------- automorphisms

@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_chain_automorphisms(order):
    assert automorphism_order(chain_graph(order, tail_labels=None)) == 2
    assert automorphism_order(chain_graph(order)) == 1  # A/B ends distinguishable


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
def test_cycle_automorphisms_dihedral(order):
    assert automorphism_order(cycle_graph(order)) == 2 * order


def test_single_vertex_two_tails():
    graph = chain_graph(1, tail_labels=None)
    assert graph.n_vertices == 1 and len(graph.tails) == 2
    assert automorphism_order(graph) == 2
    for build in (chain_graph, cycle_graph):
        with pytest.raises(ValueError):
            build(0)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
def test_hbar_grading_chain_and_cycle(order):
    chain, cycle = chain_graph(order), cycle_graph(order)
    assert len(chain.tails) == 2 and len(cycle.tails) == 0
    assert chain.n_vertices == cycle.n_vertices == order
    assert loop_count(chain) == 0
    assert loop_count(cycle) == 1
    pk = np.array([[0.5]])
    inter = Interaction({2: np.array([[1.0]])})
    expansion = gamma_sum(pk, inter, np.array([1.0]), order)
    series = expansion.hbar_series()
    # vertices carry one power each, the loop one more
    assert (order, 0) in expansion.terms
    assert (order, 1) in expansion.terms
    assert len(series) >= order + 2


# ------------------------------------------------------------------- weights

def test_cycle_one_weight_1dim():
    c, p = 1.3, 0.7
    graph = cycle_graph(1)
    inter = Interaction({2: np.array([[c]])})
    pk = np.array([[p]])
    assert graph_weight(graph, pk, inter, None) == pytest.approx(1j * c * 1j * p)


def test_chain_two_weight_1dim():
    c, p, v = 0.9, 0.4, 1.7
    graph = chain_graph(2, tail_labels=None)
    inter = Interaction({2: np.array([[c]])})
    pk = np.array([[p]])
    expected = (1j * c) ** 2 * (1j * p) * v * v
    assert graph_weight(graph, pk, inter, np.array([v])) == pytest.approx(expected)


def test_graph_weight_missing_degree_errors():
    graph = cycle_graph(1)
    pk = np.array([[1.0]])
    with pytest.raises(KeyError):
        graph_weight(graph, pk, Interaction({3: np.zeros((1, 1, 1))}), None)


def test_interaction_symmetry_enforced():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        Interaction({2: bad})


def test_interaction_terms_must_share_one_dimension():
    with pytest.raises(ValueError, match="same length"):
        Interaction({2: np.eye(2), 3: np.ones((3, 3, 3))})
    with pytest.raises(ValueError, match="same length"):
        Interaction({2: np.ones((2, 3))})


def test_labeled_tails_vector_slots():
    # chain(1) with slot-specific externals picks out the single pairing
    w = np.array([[2.0]])
    graph = chain_graph(1)
    tensor = np.zeros((2, 2), dtype=complex)
    tensor[0, 1] = tensor[1, 0] = w[0, 0]
    inter = Interaction({2: tensor})
    pk = np.zeros((2, 2))
    ext = {"A": np.array([1.0, 0.0]), "B": np.array([0.0, 3.0])}
    value = graph_weight(graph, pk, inter, ext)
    assert value == pytest.approx(1j * 2.0 * 3.0)


# ----------------------------------------------------------------- gamma sum

def _real_gaussian_coefficients(propagator, interaction, external, max_order):
    """The expansion in the real Gaussian convention (edges P, vertices -T_d), graded by vertex count.

    gamma_sum's edges carry i P and its vertices i T_d, so it reads this convention at (-i P, i T_d).
    """
    rotated = Interaction({d: 1j * t for d, t in interaction.terms.items()})
    expansion = gamma_sum(-1j * np.asarray(propagator), rotated, external, max_order)
    coeffs = [0j] * (max_order + 1)
    for (n, _), value in expansion.terms.items():
        coeffs[n] += value
    return tuple(coeffs)


def test_gamma_sum_zero_interaction():
    pk = np.array([[1.0]])
    inter = Interaction({2: np.zeros((1, 1))})
    assert not any(gamma_sum(pk, inter, None, 4).hbar_series())


def test_gamma_sum_matches_exact_gaussian_log():
    """1-dim quadratic: coefficients of -log(1 + g/q)/2, exactly."""
    q = 2.0
    pk = np.array([[1.0 / q]])
    inter = Interaction({2: np.array([[1.0]])})
    got = _real_gaussian_coefficients(pk, inter, None, 6)
    for n in range(1, 7):
        exact = (-1) ** n / (q ** n * 2 * n)
        assert got[n] == pytest.approx(exact, rel=1e-12)


def _gaussian_moment(power, q):
    """E[x^power] under exp(-q x^2 / 2), zero for odd powers."""
    if power % 2:
        return 0.0
    k, out = power // 2, 1.0
    for j in range(1, 2 * k, 2):
        out *= j
    return out / q ** k


def _log_series(a, order):
    """Coefficients of log(1 + sum_{n>=1} a[n] g^n) through g^order."""
    out = [0.0] * (order + 1)
    term = [1.0] + [0.0] * order
    s = [0.0] + list(a[1:order + 1])
    for k in range(1, order + 1):
        new = [0.0] * (order + 1)
        for i, x in enumerate(term):
            if x == 0.0:
                continue
            for j, y in enumerate(s):
                if i + j <= order:
                    new[i + j] += x * y
        term = new
        for p in range(order + 1):
            out[p] += (-1) ** (k - 1) / k * term[p]
    return out


def test_gamma_sum_quartic_vertex_moment_oracle():
    """1-dim quartic I = x^4/4!: exact Gaussian moments vs Wick expansion."""
    q = 1.7
    pk = np.array([[1.0 / q]])
    inter = Interaction({4: np.ones((1, 1, 1, 1))})
    got = _real_gaussian_coefficients(pk, inter, None, 3)
    a = [1.0]
    for n in range(1, 4):
        moment = _gaussian_moment(4 * n, q)
        a.append((-1) ** n * moment / (math.factorial(4) ** n * math.factorial(n)))
    oracle = _log_series(a, 3)
    for n in range(1, 4):
        assert got[n] == pytest.approx(oracle[n], rel=1e-10)


def test_gamma_sum_cubic_vertex_two_dim_moment_oracle():
    """2-dim cubic I = x^2 y / 2 (formal series; the true integral diverges)."""
    q1, q2 = 1.9, 1.3
    tensor = np.zeros((2, 2, 2))
    # T(x,x,x)/3! = x^2 y / 2 requires the symmetrization of 3 * x x y
    for perm in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        tensor[perm] = 1.0
    pk = np.diag([1.0 / q1, 1.0 / q2])
    inter = Interaction({3: tensor})
    got = _real_gaussian_coefficients(pk, inter, None, 4)
    a = [1.0]
    for n in range(1, 5):
        # E[(x^2 y / 2)^n] factorizes over the diagonal Gaussian
        moment = _gaussian_moment(2 * n, q1) * _gaussian_moment(n, q2) / 2 ** n
        a.append((-1) ** n * moment / math.factorial(n))
    oracle = _log_series(a, 4)
    for n in range(1, 5):
        assert got[n] == pytest.approx(oracle[n], rel=1e-9, abs=1e-12)


def test_gamma_sum_cubic_quartic_with_tails_shifted_moment_oracle():
    """1-dim I = x^3/3! + x^4/4! at order 6 with a tail vector: 24 half-edges.

    All graphs with n vertices sum to E[(-I(a + X))^n]/n! with X ~ N(0, 1/q),
    so the connected ones are the log of that series; E[(a + X)^p] expands
    binomially in the centred moments.
    """
    q, a, order = 1.4, 0.8, 6
    pk = np.array([[1.0 / q]])
    inter = Interaction({3: np.ones((1, 1, 1)), 4: np.ones((1, 1, 1, 1))})
    got = _real_gaussian_coefficients(pk, inter, np.array([a]), order)

    def shifted_moment(p):
        return sum(math.comb(p, k) * a ** (p - k) * _gaussian_moment(k, q) for k in range(p + 1))

    coeffs = [1.0]
    for n in range(1, order + 1):
        # (x^3/6 + x^4/24)^n expanded binomially
        moment = sum(math.comb(n, j) * 6.0 ** -j * 24.0 ** (j - n) * shifted_moment(3 * j + 4 * (n - j))
                     for j in range(n + 1))
        coeffs.append((-1) ** n * moment / math.factorial(n))
    oracle = _log_series(coeffs, order)
    for n in range(1, order + 1):
        assert got[n] == pytest.approx(oracle[n], rel=1e-12)


def _symmetric(rng, degree, dim):
    t = rng.normal(size=(dim,) * degree)
    perms = list(itertools.permutations(range(degree)))
    return sum(np.transpose(t, p) for p in perms) / len(perms)


def test_gamma_sum_terms_scale_with_their_edge_count():
    """Each edge carries one propagator: P -> sP scales (V, L) by s^(V+L-1)."""
    rng = np.random.default_rng(31)
    p = _symmetric(rng, 2, 2) + 2 * np.eye(2)
    inter = Interaction({1: _symmetric(rng, 1, 2), 3: _symmetric(rng, 3, 2)})
    ext, s = rng.normal(size=2), 0.37
    base = gamma_sum(p, inter, ext, 4).terms
    scaled = gamma_sum(s * p, inter, ext, 4).terms
    assert set(base) == set(scaled)
    assert all(loops >= 0 for _, loops in base)
    for (v, loops), value in base.items():
        assert scaled[(v, loops)] == pytest.approx(s ** (v + loops - 1) * value, rel=1e-12)


def test_gamma_sum_quadratic_terms_are_chain_and_cycle_weights():
    rng = np.random.default_rng(32)
    pk = _symmetric(rng, 2, 3)
    inter = Interaction({2: _symmetric(rng, 2, 3)})
    ext = rng.normal(size=3)
    terms = gamma_sum(pk, inter, ext, 5).terms
    for n in range(1, 6):
        chain = graph_weight(chain_graph(n, tail_labels=None), pk, inter, ext) / 2
        cycle = graph_weight(cycle_graph(n), pk, inter, None) / (2 * n)
        assert terms[(n, 0)] == pytest.approx(chain, rel=1e-12)
        assert terms[(n, 1)] == pytest.approx(cycle, rel=1e-12)


@pytest.mark.parametrize("degrees", [(2,), (1, 3)])
def test_gamma_sum_reads_the_symmetric_part_of_the_propagator(degrees):
    rng = np.random.default_rng(33)
    p = rng.normal(size=(2, 2))
    inter = Interaction({d: _symmetric(rng, d, 2) for d in degrees})
    ext = rng.normal(size=2)
    got = gamma_sum(p, inter, ext, 3).terms
    want = gamma_sum((p + p.T) / 2, inter, ext, 3).terms
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-14)


def test_gamma_sum_rejects_a_propagator_or_tail_of_another_dimension():
    inter = Interaction({3: np.ones((2, 2, 2))})
    with pytest.raises(ValueError, match="propagator must be 2 x 2"):
        gamma_sum(np.eye(3), inter, None, 2)
    with pytest.raises(ValueError, match="external field of length 2"):
        gamma_sum(np.eye(2), inter, np.ones(3), 2)


def _taylor_from_quadrature(log_ratio, radius, order, samples=32):
    """Cauchy-circle coefficients of an analytic log ratio from quadrature."""
    thetas = 2 * np.pi * np.arange(samples) / samples
    values = np.array([log_ratio(radius * np.exp(1j * th)) for th in thetas])
    coeffs = []
    for n in range(order + 1):
        c = np.mean(values * np.exp(-1j * n * thetas)) / radius ** n
        coeffs.append(c)
    return coeffs


def _complex_quad(f, lo, hi):
    re, _ = quad(lambda x: f(x).real, lo, hi, limit=200)
    im, _ = quad(lambda x: f(x).imag, lo, hi, limit=200)
    return re + 1j * im


def test_gamma_sum_quadrature_oracle_one_dim():
    """Stationary-phase cross-check, dimension 1: quadrature-derived Taylor
    coefficients of the real Gaussian log ratio, 1e-6 per coefficient."""
    q, c = 2.0, 0.8
    pk = np.array([[1.0 / q]])
    inter = Interaction({2: np.array([[c]])})
    got = _real_gaussian_coefficients(pk, inter, None, 4)
    z0 = _complex_quad(lambda x: np.exp(-0.5 * q * x * x) + 0j, -np.inf, np.inf)

    def log_ratio(g):
        z = _complex_quad(lambda x: np.exp(-0.5 * (q + g * c) * x * x), -np.inf, np.inf)
        return complex(np.log(z / z0))

    oracle = _taylor_from_quadrature(log_ratio, radius=0.4 * q / c, order=4)
    for n in range(1, 5):
        assert abs(got[n] - oracle[n]) < 1e-6


def test_gamma_sum_quadrature_oracle_two_dim():
    """Stationary-phase cross-check, dimension 2, non-diagonal vertex.

    The integrals are a 40 x 40 Gauss-Hermite product rule on nodes scaled by sqrt(2/q): the
    Gaussian exp(-q x^2 / 2) is the rule's own weight, and only the entire factor
    exp(-g x.T.x / 2) is sampled.
    """
    q = np.array([1.6, 2.2])
    t = np.array([[0.9, 0.5], [0.5, 1.4]])
    pk = np.diag(1.0 / q)
    inter = Interaction({2: t})
    got = _real_gaussian_coefficients(pk, inter, None, 3)
    nodes, weights = np.polynomial.hermite.hermgauss(40)
    x, y = np.meshgrid(nodes * math.sqrt(2.0 / q[0]), nodes * math.sqrt(2.0 / q[1]), indexing="ij")
    rule = np.outer(weights, weights) * math.sqrt(4.0 / (q[0] * q[1]))
    vertex = t[0, 0] * x * x + 2.0 * t[0, 1] * x * y + t[1, 1] * y * y

    def z_value(g):
        return complex(np.sum(rule * np.exp(-0.5 * g * vertex)))

    z0 = z_value(0.0)
    oracle = _taylor_from_quadrature(
        lambda g: complex(np.log(z_value(g) / z0)), radius=0.35, order=3, samples=16
    )
    for n in range(1, 4):
        assert abs(got[n] - oracle[n]) < 1e-6


# ----------------------------------------------------------------------- RGE

def _heat_window(symmetric_seed, l1, l2, rng=None):
    """Symmetric positive propagator family additive in the window."""
    q, _ = np.linalg.qr(symmetric_seed)
    mu = np.linspace(0.8, 2.0, symmetric_seed.shape[0])
    diag = (np.exp(-l1 * mu) - np.exp(-l2 * mu)) / mu
    return q @ np.diag(diag) @ q.T


def test_rge_empty_window_is_identity():
    rng = np.random.default_rng(0)
    j = rng.normal(size=(4, 4))
    j = j + j.T
    eff = EffectiveQuadraticInteraction.from_kernel(j, 4)
    out = rge_evolve(eff, np.zeros((4, 4)))
    for a, b in zip(out.kernels, eff.kernels):
        assert np.allclose(a, b, atol=1e-14)


def test_rge_zero_interaction_stays_zero():
    eff = EffectiveQuadraticInteraction.from_kernel(np.zeros((3, 3)), 3)
    out = rge_evolve(eff, np.eye(3))
    assert all(np.allclose(k, 0) for k in out.kernels)


def test_rge_composition_law():
    rng = np.random.default_rng(5)
    for _ in range(10):
        seed = rng.normal(size=(4, 4))
        j = rng.normal(size=(4, 4)) * 0.1
        j = j + j.T
        eff = EffectiveQuadraticInteraction.from_kernel(j, 6)
        p01 = _heat_window(seed, 0.0, 0.7)
        p12 = _heat_window(seed, 0.7, 2.0)
        p02 = _heat_window(seed, 0.0, 2.0)
        assert np.allclose(p01 + p12, p02, atol=1e-12)
        two_step = rge_evolve(rge_evolve(eff, p01), p12)
        one_step = rge_evolve(eff, p02)
        for a, b in zip(two_step.kernels, one_step.kernels):
            assert np.max(np.abs(a - b)) < 1e-10


def test_rge_nonconvergent_error_carries_norm():
    j = np.eye(2) * 5.0
    eff = EffectiveQuadraticInteraction.from_kernel(j, 3)
    with pytest.raises(ConvergenceError) as err:
        rge_evolve(eff, np.eye(2))
    assert err.value.norm >= 1.0


def test_rge_resummation_matches_closed_form():
    rng = np.random.default_rng(6)
    j = rng.normal(size=(3, 3)) * 0.2
    j = j + j.T
    p = rng.normal(size=(3, 3)) * 0.2
    p = p + p.T
    eff = EffectiveQuadraticInteraction.from_kernel(j, 40)
    out = rge_evolve(eff, p)
    total = sum(out.kernels[i] for i in range(out.order))
    closed = j @ np.linalg.inv(np.eye(3) + p @ j)
    assert np.max(np.abs(total - closed)) < 1e-12
