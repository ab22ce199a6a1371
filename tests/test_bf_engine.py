import cmath
import math

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from ruellebf.bf_engine import (
    ConvergenceRadiusError,
    IRDivergenceError,
    MatrixBFModel,
    chain_contraction_matrix,
    closed_form_expectation,
    doubled_field_tensors,
    embed_doubled,
    expectation_grid,
    expectation_value,
    full_space_operators,
    gamma_int,
    gamma_tr,
    gamma_tr_orbits,
    loop_sign,
    perturbing_functional,
    projection_lemma_check,
    regularized_propagator,
    simplex_volume_check,
    zeta_expectation_bridge,
)
from ruellebf.feynman import (
    Interaction,
    PropagatorKernel,
    automorphism_order,
    chain_graph,
    cycle_graph,
    gamma_sum,
    graph_weight,
)
from ruellebf.flat_zeta import euler_product_log_zeta
from ruellebf.graded_core import GradedOperator, GradedVectorSpace, ToyBFComplex, superdeterminant, toy_bf_partition
from ruellebf.orbits import HyperbolicToralModel, enumerate_prime_orbits


def random_toy(rng, n=3, shift=4.0):
    d = rng.normal(size=(n, n)) + shift * np.eye(n)
    iota = rng.normal(size=(n, n)) + shift * np.eye(n)
    return MatrixBFModel(ToyBFComplex(d, iota))


def random_graded(rng, degrees=(0, 1), lo=0.4, hi=0.9, max_block=3):
    """Graded model with real positive spectrum in [lo, hi] per block."""
    split, blocks = [], []
    for k in degrees:
        n = int(rng.integers(2, max_block + 1))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        split.append((k, n))
        blocks.append(q @ np.diag(rng.uniform(lo, hi, size=n)) @ q.T)
    return MatrixBFModel(ToyBFComplex(block_diag(*blocks)), tuple(split))


# ---------------------------------------------------------------- graded split

def test_graded_split_reads_its_blocks_off_l0():
    l0 = np.diag([2.0, 3.0, 5.0])
    l0[1, 2] = 0.5  # inside the degree-1 block
    model = MatrixBFModel(ToyBFComplex(l0), [(0, 1), (1, 2)])
    assert model.graded_split == ((0, 1), (1, 2))
    assert [(k, sorted(mu.real)) for k, mu in model.spectra] == [(0, [2.0]), (1, [3.0, 5.0])]


def test_unsplit_model_is_one_degree_zero_block():
    model = MatrixBFModel(ToyBFComplex(np.diag([2.0, 3.0])))
    assert model.graded_split == ((0, 2),)


@pytest.mark.parametrize("entry, ok", [(0.5, False), (1e-9, False), (1e-11, True)])
def test_graded_split_rejects_l0_coupling_two_blocks(entry, ok):
    # the tolerance is 1e-10 * max(1, max|block entry|) = 3e-10 here
    l0 = np.diag([2.0, 3.0])
    l0[0, 1] = entry
    if ok:
        MatrixBFModel(ToyBFComplex(l0), ((0, 1), (1, 1)))
    else:
        with pytest.raises(ValueError, match="couples two graded_split blocks"):
            MatrixBFModel(ToyBFComplex(l0), ((0, 1), (1, 1)))


@pytest.mark.parametrize("split", [((0, 1),), ((0, 1), (1, 2)), ((0, 3), (1, -1))])
def test_graded_split_sizes_must_tile_the_dimension(split):
    with pytest.raises(ValueError, match="sum to the dimension"):
        MatrixBFModel(ToyBFComplex(np.diag([2.0, 3.0])), split)


# -------------------------------------------------------- perturbing functional

def test_perturbing_functional_zero_field():
    model = random_toy(np.random.default_rng(0))
    assert perturbing_functional(model, np.zeros(3), np.ones(3)) == 0


def test_perturbing_functional_identity_complex():
    model = MatrixBFModel(ToyBFComplex(np.eye(2)))
    a, b = np.array([1.0, 2.0]), np.array([3.0, -1.0])
    assert perturbing_functional(model, a, b) == pytest.approx(b @ a)


def test_perturbing_functional_adjoint_rewriting():
    rng = np.random.default_rng(1)
    model = random_toy(rng)
    cx = model.complex
    a, b = rng.normal(size=3), rng.normal(size=3)
    direct = perturbing_functional(model, a, b)
    w = np.linalg.solve(cx.L1, cx.d)
    via_adjoint = (w.T @ b) @ a
    assert abs(direct - via_adjoint) < 1e-12 * max(1.0, abs(direct))


# ------------------------------------------------------------------ propagator

def test_propagator_empty_window_is_zero():
    model = random_toy(np.random.default_rng(2))
    assert np.all(regularized_propagator(model, 0.7, 0.7, 0.1).matrix == 0)


def test_propagator_diagonal_closed_form():
    model = MatrixBFModel(ToyBFComplex(np.diag([2.0, 3.0])))
    prop = regularized_propagator(model, 0.0, math.inf, 0.0)
    assert np.allclose(prop.matrix, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)


def test_propagator_scalar_integral_oracle():
    from scipy.integrate import quad

    model = MatrixBFModel(ToyBFComplex(np.diag([2.0, 3.0])))
    lam = 0.4
    prop = regularized_propagator(model, 0.3, 1.9, lam)
    for i, mu in enumerate((2.0, 3.0)):
        oracle, _ = quad(lambda t: math.exp(-lam * t) * math.exp(-t * mu), 0.3, 1.9)
        assert prop.matrix[i, i].real == pytest.approx(oracle, rel=1e-10)


def test_propagator_window_additivity():
    model = random_toy(np.random.default_rng(3))
    lam = 0.2
    p_0a = regularized_propagator(model, 0.0, 0.8, lam).matrix
    p_ab = regularized_propagator(model, 0.8, 2.1, lam).matrix
    p_0b = regularized_propagator(model, 0.0, 2.1, lam).matrix
    assert np.allclose(p_0a + p_ab, p_0b, atol=1e-12)


def test_propagator_ir_divergence():
    model = MatrixBFModel(ToyBFComplex(np.diag([2.0, 3.0])))
    with pytest.raises(IRDivergenceError):
        regularized_propagator(model, 0.0, math.inf, -5.0)


def test_propagator_is_a_kernel_for_graph_weight():
    rng = np.random.default_rng(22)
    model = random_toy(rng)
    prop = regularized_propagator(model, 0.2, 1.5, 0.1)
    assert isinstance(prop, PropagatorKernel)
    assert prop.scale_window == (0.2, 1.5) and prop.lambda_reg == 0.1
    t = rng.normal(size=(3, 3))
    interaction = Interaction({2: t + t.T})
    ext = rng.normal(size=3)
    # chain of two vertices: i T, i P, i T against the external vector at both tails
    want = ext @ (1j * (t + t.T)) @ (1j * prop.matrix) @ (1j * (t + t.T)) @ ext
    got = graph_weight(chain_graph(2, tail_labels=None), prop, interaction, ext)
    assert got == pytest.approx(want, rel=1e-12)


# ------------------------------------------------------------------- gamma_int

def test_gamma_int_first_order_is_interaction():
    rng = np.random.default_rng(4)
    model = random_toy(rng)
    a, b = rng.normal(size=3), rng.normal(size=3)
    f = perturbing_functional(model, a, b)
    for window in ((0.0, 1.0), (0.5, 2.0)):
        prop = regularized_propagator(model, *window, 0.1)
        series = gamma_int(model, prop, a, b, 4)
        assert series.coefficient(1) == pytest.approx(1j * f, rel=1e-12)


def test_gamma_int_zero_external():
    model = random_toy(np.random.default_rng(5))
    prop = regularized_propagator(model, 0.0, 1.0, 0.0)
    series = gamma_int(model, prop, np.zeros(3), np.ones(3), 5)
    assert series.is_zero()


def test_gamma_int_identity_model_alternates():
    # L = identity: the chain link is the identity at full window, so the
    # coefficients alternate and the series resums to i hbar F / (1 + hbar)
    model = MatrixBFModel(ToyBFComplex(np.eye(2)))
    prop = regularized_propagator(model, 0.0, math.inf, 0.0)
    a, b = np.array([1.0, 2.0]), np.array([0.5, -1.0])
    f = perturbing_functional(model, a, b)
    series = gamma_int(model, prop, a, b, 8)
    for n in range(1, 9):
        assert series.coefficient(n) == pytest.approx((-1) ** (n - 1) * 1j * f, rel=1e-12)
    hbar = 0.3
    long_series = gamma_int(model, prop, a, b, 60)
    assert long_series.eval(hbar) == pytest.approx(1j * hbar * f / (1 + hbar), rel=1e-12)


def test_gamma_int_geometric_resummation_oracle():
    rng = np.random.default_rng(6)
    model = random_toy(rng)
    cx = model.complex
    prop = regularized_propagator(model, 0.0, math.inf, 0.3)
    a, b = rng.normal(size=3), rng.normal(size=3)
    series = gamma_int(model, prop, a, b, 60)
    link = chain_contraction_matrix(model, prop)
    hbar = 0.5
    w_adj_b = np.linalg.solve(cx.L1, cx.d).T @ b
    closed = 1j * hbar * (w_adj_b @ np.linalg.solve(np.eye(3) + hbar * link, a))
    assert series.eval(hbar) == pytest.approx(closed, rel=1e-10)


# -------------------------------------------------------------------- gamma_tr

def test_gamma_tr_truncation_one_is_zero():
    model = random_toy(np.random.default_rng(7))
    assert gamma_tr(model, 0.0, 1).is_zero()


def test_gamma_tr_single_block_logdet_taylor():
    # coefficients match the Taylor expansion of log det(L + hbar) - log det L
    # through the eigenvalue formula sum_i (-1)^(N+1) / (N mu_i^N)
    model = MatrixBFModel(ToyBFComplex(np.diag([2.0, 3.0])))
    series = gamma_tr(model, 0.0, 5)
    for n in range(1, 5):
        eig_oracle = sum((-1) ** (n + 1) / (n * mu ** n) for mu in (2.0, 3.0))
        # degree-0 block: loop sign (-1)^(0+1) combines with (-1)^N/N
        assert series.coefficient(n + 1) == pytest.approx(eig_oracle, rel=1e-12)


def test_gamma_tr_lambda_shift_consistency():
    rng = np.random.default_rng(8)
    model = random_toy(rng)
    lam = 0.7
    shifted_model = MatrixBFModel(ToyBFComplex(model.complex.L0 + lam * np.eye(3)))
    a = gamma_tr(model, lam, 6)
    b = gamma_tr(shifted_model, 0.0, 6)
    for n in range(a.order + 1):
        assert a.coefficient(n) == pytest.approx(b.coefficient(n), rel=1e-10, abs=1e-13)


def test_gamma_tr_lambda_to_zero_extrapolation():
    # spectra >= 10 keep the curvature small enough for linear extrapolation
    rng = np.random.default_rng(9)
    model = random_toy(rng, shift=14.0)
    exact = gamma_tr(model, 0.0, 6)
    lams = (1.0, 0.1, 0.01)
    values = [gamma_tr(model, lam, 6) for lam in lams]
    for n in range(2, 7):
        f01, f001 = values[1].coefficient(n), values[2].coefficient(n)
        extrapolated = f001 - 0.01 * (f01 - f001) / (0.1 - 0.01)
        assert abs(extrapolated - exact.coefficient(n)) < 1e-6


def test_gamma_tr_spectrum_violation():
    model = MatrixBFModel(ToyBFComplex(np.diag([2.0, 3.0])))
    with pytest.raises(IRDivergenceError):
        gamma_tr(model, -4.0, 4)


# --------------------------------------------------------------------- simplex

def test_simplex_order_one():
    assert simplex_volume_check(1, 5.0) == 1.0


def test_simplex_n3_t2():
    assert simplex_volume_check(3, 2.0) == pytest.approx(2.0)


def _simplex_volume_quadrature(n, t, nodes=2001):
    """Iterated cumulative trapezoid for the ordered simplex volume."""
    grid = np.linspace(0.0, t, nodes)
    vol = np.ones_like(grid)
    for _ in range(n - 1):
        integrated = np.concatenate(
            ([0.0], np.cumsum((vol[1:] + vol[:-1]) * 0.5 * np.diff(grid)))
        )
        vol = integrated
    return vol[-1]


@pytest.mark.parametrize("n,t", [(2, 1.0), (3, 2.0), (4, 1.0), (5, 1.5)])
def test_simplex_vs_numerical_integration(n, t):
    exact = simplex_volume_check(n, t)
    numeric = _simplex_volume_quadrature(n, t)
    assert abs(numeric - exact) <= 1e-3 * max(exact, 1e-12)


# ------------------------------------------------------------ projection lemma

def test_projection_lemma_identity():
    model = random_toy(np.random.default_rng(10))
    assert projection_lemma_check(model, np.eye(6))


def test_projection_lemma_heat_operator():
    model = random_toy(np.random.default_rng(11))
    _, _, l_full = full_space_operators(model)
    assert projection_lemma_check(model, expm(-l_full))


def test_projection_lemma_non_invariant_errors():
    model = random_toy(np.random.default_rng(12))
    bad = np.eye(6)
    bad[4, 1] = 0.5  # maps V0 into V1
    with pytest.raises(ValueError, match="defect"):
        projection_lemma_check(model, bad)


# ----------------------------------------------------------- expectation value

def test_expectation_at_zero_is_one():
    model = random_toy(np.random.default_rng(13))
    res = expectation_value(model, 0.0, 6)
    assert res.closed_form == 1.0
    assert res.series_value == 1.0


def test_expectation_single_block_example():
    model = MatrixBFModel(ToyBFComplex(np.diag([2.0, 3.0])))
    res = expectation_value(model, 0.1, 8)
    assert res.closed_form == pytest.approx(2.1 * 3.1 / 6.0, rel=1e-12)
    # series log = log(1.05) + log(3.1/3) = 0.0815804...
    assert cmath.log(res.series_value).real == pytest.approx(0.0815804, abs=5e-7)
    assert res.defect < 1e-10


def test_expectation_two_block_graded_vs_superdeterminant():
    rng = np.random.default_rng(14)
    model = random_graded(rng, degrees=(0, 1), lo=1.0, hi=2.0)
    hbar = 0.2
    res = expectation_value(model, hbar, 10)
    (_, n0), _ = model.graded_split
    l0 = model.complex.L0
    blocks = {0: l0[:n0, :n0], 1: l0[n0:, n0:]}
    space = GradedVectorSpace(dict(model.graded_split))
    num = GradedOperator(space, {k: b + hbar * np.eye(b.shape[0]) for k, b in blocks.items()})
    den = GradedOperator(space, blocks)
    oracle = superdeterminant(num) / superdeterminant(den)
    assert res.closed_form == pytest.approx(complex(oracle), rel=1e-10)


def test_expectation_radius_violation():
    model = MatrixBFModel(ToyBFComplex(np.diag([2.0, 3.0])))
    with pytest.raises(ConvergenceRadiusError):
        expectation_value(model, 2.5, 6)


def test_resummation_partition_identity():
    # expectation * Z(0) reproduces |det(L + hbar)| up to phase
    rng = np.random.default_rng(15)
    for _ in range(10):
        model = random_toy(rng)
        hbar = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        lhs = abs(closed_form_expectation(model, hbar)) * toy_bf_partition(model.complex, 0.0)
        rhs = toy_bf_partition(model.complex, hbar)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_resummation_defect_order():
    rng = np.random.default_rng(16)
    model = random_graded(rng)
    phi = 0.7
    defects = [expectation_value(model, h * cmath.exp(1j * phi), 8).defect for h in (0.1, 0.05, 0.025)]
    s12 = math.log2(defects[0] / defects[1])
    s23 = math.log2(defects[1] / defects[2])
    assert min(s12, s23) > 8.5


def test_expectation_grid_matches_expectation_value_pointwise():
    model = random_graded(np.random.default_rng(20), lo=1.0, hi=2.0)
    radius = model.min_spectrum_abs()
    hbars = [0.0, 0.3, -0.2 + 0.4j, 1.5 * radius, 0.5j, radius]
    results = expectation_grid(model, hbars, 7)
    assert len(results) == len(hbars)
    for hbar, res in zip(hbars, results):
        assert res.K == 7
        assert res.closed_form == closed_form_expectation(model, hbar)
        if abs(hbar) < radius:
            single = expectation_value(model, hbar, 7)
            assert (res.closed_form, res.series_value, res.defect) == (
                single.closed_form, single.series_value, single.defect)
        else:
            assert res.series_value is None and res.defect is None
            with pytest.raises(ConvergenceRadiusError):
                expectation_value(model, hbar, 7)


def test_expectation_grid_builds_one_loop_series(monkeypatch):
    from ruellebf import bf_engine

    calls = []

    def counting(*args):
        calls.append(args)
        return gamma_tr(*args)

    monkeypatch.setattr(bf_engine, "gamma_tr", counting)
    model = random_graded(np.random.default_rng(21), lo=1.0, hi=2.0)
    expectation_grid(model, [0.1 * k for k in range(-5, 6)] + [5.0], 8)
    assert [args[1:] for args in calls] == [(0.0, 9)]
    calls.clear()
    expectation_grid(model, [5.0, 6.0j], 8)  # every point outside the radius: no series needed
    assert calls == []


def test_partition_of_64_dim_model_is_the_direct_determinant():
    rng = np.random.default_rng(7)
    blocks = [np.triu(rng.uniform(-0.3, 0.3, (16, 16)), 1) + np.diag(rng.permutation(np.linspace(1.0, 8.0, 16)))
              for _ in range(4)]
    full = np.zeros((64, 64))
    for k, b in enumerate(blocks):
        full[16 * k:16 * (k + 1), 16 * k:16 * (k + 1)] = b
    cx = ToyBFComplex(full)
    assert np.array_equal(cx.L1_inv, np.linalg.inv(cx.L1))
    eye = np.eye(64)
    for hbar in (0.0, 0.5, -0.9, 0.3 + 0.6j):
        direct = abs(complex(np.linalg.det(cx.L0 + hbar * eye)))
        assert toy_bf_partition(cx, hbar) == direct
        gauge = abs(complex(np.linalg.det(cx.iota @ (eye + hbar * np.linalg.inv(cx.L1)) @ cx.d)))
        assert gauge == pytest.approx(direct, rel=1e-10)


# -------------------------------------------- cross-module diagram consistency

def test_chain_weights_match_closed_form():
    rng = np.random.default_rng(17)
    model = random_toy(rng, n=4)
    prop = regularized_propagator(model, 0.1, 2.3, 0.2)
    a, b = rng.normal(size=4), rng.normal(size=4)
    vertex, edge = doubled_field_tensors(model, prop)
    interaction = Interaction({2: vertex})
    kernel = PropagatorKernel(edge, (0.1, 2.3), 0.2)
    ext = embed_doubled(model, a, b)
    closed = gamma_int(model, prop, a, b, 6)
    for n in range(1, 7):
        graph = chain_graph(n)
        engine = graph_weight(graph, kernel, interaction, ext) / automorphism_order(graph)
        assert abs(engine - closed.coefficient(n)) < 1e-10 * max(1.0, abs(engine))


def test_cycle_weights_match_closed_form():
    rng = np.random.default_rng(18)
    model = random_toy(rng, n=4)
    lam = 0.3
    prop = regularized_propagator(model, 0.0, math.inf, lam)
    vertex, edge = doubled_field_tensors(model, prop)
    interaction = Interaction({2: vertex})
    kernel = PropagatorKernel(edge, (0.0, math.inf), lam)
    closed = gamma_tr(model, lam, 8)
    for n in range(1, 7):
        graph = cycle_graph(n)
        assert automorphism_order(graph) == 2 * n
        engine = graph_weight(graph, kernel, interaction, {}) / automorphism_order(graph)
        signed = loop_sign(0) * engine
        assert abs(signed - closed.coefficient(n + 1)) < 1e-10 * max(1.0, abs(engine))


def test_gamma_sum_matches_gamma_tr_order_two():
    rng = np.random.default_rng(19)
    model = random_toy(rng)
    lam = 0.2
    prop = regularized_propagator(model, 0.0, math.inf, lam)
    vertex, edge = doubled_field_tensors(model, prop)
    expansion = gamma_sum(PropagatorKernel(edge, (0.0, math.inf), lam), Interaction({2: vertex}), None, 3)
    series = expansion.hbar_series()
    closed = gamma_tr(model, lam, 4)
    for power in (2, 3, 4):
        assert loop_sign(0) * series.coefficient(power) == pytest.approx(
            closed.coefficient(power), rel=1e-10
        )


# ---------------------------------------------------------------------- bridge

CAT_ORBITS = enumerate_prime_orbits(HyperbolicToralModel(((2, 1), (1, 1))), 12)


def test_bridge_at_zero():
    res = zeta_expectation_bridge(CAT_ORBITS, 1, 0.0, 12.0, 3.0, 6)
    assert res.euler_value == 1.0
    assert res.det_value == 1.0
    assert res.series_value == 1.0


def test_bridge_routes_agree_cat():
    res = zeta_expectation_bridge(CAT_ORBITS, 1, 0.5, 12.0, 3.0, 10)
    assert res.defect_euler_det <= res.euler_tail + res.det_tail
    assert res.defect_series_det < 1e-6
    # independent closed-form oracle from the truncated euler sums
    lam0, lam1 = 3.0, 3.5
    log0 = euler_product_log_zeta(CAT_ORBITS, lam0, 12.0).value
    log1 = euler_product_log_zeta(CAT_ORBITS, lam1, 12.0).value
    assert res.euler_value == pytest.approx(cmath.exp(-(log1 - log0)), rel=1e-12)


def test_bridge_conjugation_symmetry():
    hbar = 0.4 + 0.3j
    plus = zeta_expectation_bridge(CAT_ORBITS, 1, hbar, 12.0, 3.0, 8)
    minus = zeta_expectation_bridge(CAT_ORBITS, 1, hbar.conjugate(), 12.0, 3.0, 8)
    assert minus.euler_value == pytest.approx(plus.euler_value.conjugate(), rel=1e-12)
    assert minus.series_value == pytest.approx(plus.series_value.conjugate(), rel=1e-12)


def test_gamma_tr_orbits_first_coefficient_from_atoms():
    series = gamma_tr_orbits(CAT_ORBITS, 1, 3.0, 12.0, 6)
    # N = 1 coefficient: sum_k (-1)^(k+1) sum_atoms w e^{-3 t}, times -1
    from ruellebf.flat_zeta import flat_trace_evolution

    signed = 0j
    for k in range(3):
        dist = flat_trace_evolution(CAT_ORBITS, k, 12.0)
        signed += (-1) ** (k + 1) * sum(w * cmath.exp(-3.0 * t) for t, w in dist.atoms)
    assert series.coefficient(2) == pytest.approx(-signed, rel=1e-12)


def test_spectral_kernel_on_non_normal_blocks():
    # blocks Q U diag(d) U^-1 Q^T whose eigenvector matrices have condition number 1e5
    rng = np.random.default_rng(0)
    spectra = [np.linspace(1.0, 2.0, 3), np.linspace(2.5, 4.0, 3)]
    blocks = []
    for d in spectra:
        u = np.eye(3)
        u[0, -1] = math.sqrt(1e5)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        assert np.linalg.cond(q @ u) == pytest.approx(1e5, rel=1e-3)
        blocks.append(q @ u @ np.diag(d) @ np.linalg.inv(u) @ q.T)
    model = MatrixBFModel(ToyBFComplex(block_diag(*blocks)), ((0, 3), (1, 3)))
    eye = np.eye(3)
    for hbar in (0.4 + 0.2j, -0.5j, 0.7):
        ratios = [np.linalg.det(b + hbar * eye) / np.linalg.det(b) for b in blocks]
        want = ratios[0] / ratios[1]
        assert abs(closed_form_expectation(model, hbar) - want) <= 1e-8 * abs(want)
    for lam in (0.0, 0.3 + 0.1j):
        series = gamma_tr(model, lam, 8)
        for n in range(1, 8):
            traces = [np.trace(np.linalg.matrix_power(np.linalg.inv(b + lam * eye), n)) for b in blocks]
            want = (-1) ** n / n * (traces[1] - traces[0])  # loop signs -1 (degree 0), +1 (degree 1)
            assert abs(series.coefficient(n + 1) - want) <= 1e-8 * abs(want)
