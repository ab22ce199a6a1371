import cmath
import math

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from ruellebf.bf_engine import (
    IRDivergenceError,
    MatrixBFModel,
    _closed_form_grid,
    _exp,
    expectation_grid,
    gamma_int,
    gamma_tr,
    loop_sign,
    partition_grid,
    regularized_propagator,
    zeta_expectation_bridge_grid,
)
from ruellebf.feynman import Interaction, gamma_sum
from ruellebf.flat_zeta import _abs_or_inf, atom_table
from ruellebf.graded_core import ToyBFComplex
from ruellebf.orbits import HyperbolicToralModel, PrimeOrbit, Representation, enumerate_prime_orbits

from graph_reference import (
    automorphism_order,
    chain_graph,
    cycle_graph,
    doubled_field_tensors,
    embed_doubled,
    graph_weight,
    toy_bf_partition,
)
from math_reference import (
    GradedOperator,
    GradedVectorSpace,
    full_space_operators,
    perturbing_functional,
    projection_lemma_check,
    simplex_volume_quadrature,
    superdeterminant,
)


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
    assert np.all(regularized_propagator(model, 0.7, 0.7, 0.1) == 0)


def test_propagator_diagonal_closed_form():
    model = MatrixBFModel(ToyBFComplex(np.diag([2.0, 3.0])))
    prop = regularized_propagator(model, 0.0, math.inf, 0.0)
    assert np.allclose(prop, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)


def test_propagator_scalar_integral_oracle():
    from scipy.integrate import quad

    model = MatrixBFModel(ToyBFComplex(np.diag([2.0, 3.0])))
    lam = 0.4
    prop = regularized_propagator(model, 0.3, 1.9, lam)
    for i, mu in enumerate((2.0, 3.0)):
        oracle, _ = quad(lambda t: math.exp(-lam * t) * math.exp(-t * mu), 0.3, 1.9)
        assert prop[i, i].real == pytest.approx(oracle, rel=1e-10)


def test_propagator_window_additivity():
    model = random_toy(np.random.default_rng(3))
    lam = 0.2
    p_0a = regularized_propagator(model, 0.0, 0.8, lam)
    p_ab = regularized_propagator(model, 0.8, 2.1, lam)
    p_0b = regularized_propagator(model, 0.0, 2.1, lam)
    assert np.allclose(p_0a + p_ab, p_0b, atol=1e-12)


def test_propagator_ir_divergence():
    model = MatrixBFModel(ToyBFComplex(np.diag([2.0, 3.0])))
    with pytest.raises(IRDivergenceError):
        regularized_propagator(model, 0.0, math.inf, -5.0)


def test_propagator_is_a_kernel_for_graph_weight():
    rng = np.random.default_rng(22)
    model = random_toy(rng)
    prop = regularized_propagator(model, 0.2, 1.5, 0.1)
    t = rng.normal(size=(3, 3))
    interaction = Interaction({2: t + t.T})
    ext = rng.normal(size=3)
    # chain of two vertices: i T, i P, i T against the external vector at both tails
    want = ext @ (1j * (t + t.T)) @ (1j * prop) @ (1j * (t + t.T)) @ ext
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
        assert series[1] == pytest.approx(1j * f, rel=1e-12)


def test_gamma_int_zero_external():
    model = random_toy(np.random.default_rng(5))
    prop = regularized_propagator(model, 0.0, 1.0, 0.0)
    series = gamma_int(model, prop, np.zeros(3), np.ones(3), 5)
    assert not any(series)


def test_gamma_int_identity_model_alternates():
    # L = identity: the chain link is the identity at full window, so the
    # coefficients alternate and the series resums to i hbar F / (1 + hbar)
    model = MatrixBFModel(ToyBFComplex(np.eye(2)))
    prop = regularized_propagator(model, 0.0, math.inf, 0.0)
    a, b = np.array([1.0, 2.0]), np.array([0.5, -1.0])
    f = perturbing_functional(model, a, b)
    series = gamma_int(model, prop, a, b, 8)
    for n in range(1, 9):
        assert series[n] == pytest.approx((-1) ** (n - 1) * 1j * f, rel=1e-12)
    hbar = 0.3
    long_series = gamma_int(model, prop, a, b, 60)
    assert np.polyval(long_series[::-1], hbar) == pytest.approx(1j * hbar * f / (1 + hbar), rel=1e-12)


def test_gamma_int_geometric_resummation_oracle():
    rng = np.random.default_rng(6)
    model = random_toy(rng)
    cx = model.complex
    prop = regularized_propagator(model, 0.0, math.inf, 0.3)
    a, b = rng.normal(size=3), rng.normal(size=3)
    series = gamma_int(model, prop, a, b, 60)
    w = np.linalg.solve(cx.L1, cx.d)
    link = prop @ w
    hbar = 0.5
    w_adj_b = w.T @ b
    closed = 1j * hbar * (w_adj_b @ np.linalg.solve(np.eye(3) + hbar * link, a))
    assert np.polyval(series[::-1], hbar) == pytest.approx(closed, rel=1e-10)


# -------------------------------------------------------------------- gamma_tr

def test_gamma_tr_truncation_one_is_zero():
    model = random_toy(np.random.default_rng(7))
    assert not any(gamma_tr(model, 0.0, 1))


def test_gamma_tr_single_block_logdet_taylor():
    # coefficients match the Taylor expansion of log det(L + hbar) - log det L
    # through the eigenvalue formula sum_i (-1)^(N+1) / (N mu_i^N)
    model = MatrixBFModel(ToyBFComplex(np.diag([2.0, 3.0])))
    series = gamma_tr(model, 0.0, 5)
    for n in range(1, 5):
        eig_oracle = sum((-1) ** (n + 1) / (n * mu ** n) for mu in (2.0, 3.0))
        # degree-0 block: loop sign (-1)^(0+1) combines with (-1)^N/N
        assert series[n + 1] == pytest.approx(eig_oracle, rel=1e-12)


def test_gamma_tr_lambda_shift_consistency():
    rng = np.random.default_rng(8)
    model = random_toy(rng)
    lam = 0.7
    shifted_model = MatrixBFModel(ToyBFComplex(model.complex.L0 + lam * np.eye(3)))
    a = gamma_tr(model, lam, 6)
    b = gamma_tr(shifted_model, 0.0, 6)
    for n in range(len(a)):
        assert a[n] == pytest.approx(b[n], rel=1e-10, abs=1e-13)


def test_gamma_tr_lambda_to_zero_extrapolation():
    # spectra >= 10 keep the curvature small enough for linear extrapolation
    rng = np.random.default_rng(9)
    model = random_toy(rng, shift=14.0)
    exact = gamma_tr(model, 0.0, 6)
    lams = (1.0, 0.1, 0.01)
    values = [gamma_tr(model, lam, 6) for lam in lams]
    for n in range(2, 7):
        f01, f001 = values[1][n], values[2][n]
        extrapolated = f001 - 0.01 * (f01 - f001) / (0.1 - 0.01)
        assert abs(extrapolated - exact[n]) < 1e-6


def test_gamma_tr_spectrum_violation():
    # the resolvent traces need only mu + lam != 0: lam = -2 hits mu = 2, while the undamped
    # lam = -4 shifts the spectrum to {-2, -1} and sums it explicitly
    model = MatrixBFModel(ToyBFComplex(np.diag([2.0, 3.0])))
    with pytest.raises(IRDivergenceError):
        gamma_tr(model, -2.0, 4)
    series = gamma_tr(model, -4.0, 4)
    for n in range(1, 4):  # degree 0 carries loop_sign(0) = -1
        trace = -((-2.0) ** -n + (-1.0) ** -n)
        assert series[n + 1] == pytest.approx((-1) ** n / n * trace, rel=1e-15)


# --------------------------------------------------------------------- simplex

def signed_column(table):
    """The one degree-signed flat-weight column that the orbit bridge passes to AtomTable.loop_traces."""
    return (table.flat_weights() * [loop_sign(k) for k in range(2 * table.m + 1)]).sum(axis=1, keepdims=True)


@pytest.mark.parametrize("n,t", [(2, 1.0), (3, 2.0), (4, 1.0), (5, 1.5)])
def test_simplex_vs_numerical_integration(n, t):
    # one atom at time t whose signed flat weight is t (det(I - P) = -1): at lambda0 = 0 its N-th
    # signed loop trace is t * t^(N-1) / (N-1)!
    table = atom_table([PrimeOrbit(t, np.array([[2, 1], [1, 1]]), np.eye(1))], 1, t)
    factor = table.loop_traces(0.0, n, signed_column(table))[n - 1, 0] / t
    numeric = simplex_volume_quadrature(n, t)
    assert abs(numeric - factor) <= 1e-3 * max(abs(factor), 1e-12)


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
    res = expectation_grid(model, [0.0], 6)
    assert res.routes["det"] == [1.0]
    assert res.series == [1.0]


def test_expectation_single_block_example():
    model = MatrixBFModel(ToyBFComplex(np.diag([2.0, 3.0])))
    res = expectation_grid(model, [0.1], 8)
    assert res.routes["det"][0] == pytest.approx(2.1 * 3.1 / 6.0, rel=1e-12)
    # series log = log(1.05) + log(3.1/3) = 0.0815804...
    assert cmath.log(res.series[0]).real == pytest.approx(0.0815804, abs=5e-7)
    assert res.defects("det")[0] < 1e-10


def test_expectation_two_block_graded_vs_superdeterminant():
    rng = np.random.default_rng(14)
    model = random_graded(rng, degrees=(0, 1), lo=1.0, hi=2.0)
    hbar = 0.2
    res = expectation_grid(model, [hbar], 10)
    (_, n0), _ = model.graded_split
    l0 = model.complex.L0
    blocks = {0: l0[:n0, :n0], 1: l0[n0:, n0:]}
    space = GradedVectorSpace(dict(model.graded_split))
    num = GradedOperator(space, {k: b + hbar * np.eye(b.shape[0]) for k, b in blocks.items()})
    den = GradedOperator(space, blocks)
    oracle = superdeterminant(num) / superdeterminant(den)
    assert res.routes["det"][0] == pytest.approx(complex(oracle), rel=1e-10)


@pytest.mark.parametrize("lambda0", [0.7, 0.5 + 0.3j, -0.2])
def test_expectation_at_a_base_point_vs_superdeterminant(lambda0):
    rng = np.random.default_rng(14)
    model = random_graded(rng, degrees=(0, 1), lo=1.0, hi=2.0)
    hbars = [0.2, 0.1 - 0.15j]
    res = expectation_grid(model, hbars, 12, lambda0)
    (_, n0), _ = model.graded_split
    l0 = model.complex.L0
    blocks = {0: l0[:n0, :n0], 1: l0[n0:, n0:]}
    space = GradedVectorSpace(dict(model.graded_split))
    den = GradedOperator(space, {k: b + lambda0 * np.eye(b.shape[0]) for k, b in blocks.items()})
    radius = min(abs(mu + lambda0) for _, spectrum in model.spectra for mu in spectrum)
    for hbar, det, series in zip(hbars, res.routes["det"], res.series):
        num = GradedOperator(space, {k: b + (lambda0 + hbar) * np.eye(b.shape[0]) for k, b in blocks.items()})
        oracle = complex(superdeterminant(num) / superdeterminant(den))
        assert det == pytest.approx(oracle, rel=1e-10)
        assert abs(series - oracle) <= 10 * abs(oracle) * (abs(hbar) / radius) ** 13
    assert model.min_spectrum_abs(lambda0) == pytest.approx(radius, rel=1e-14)
    assert res.diverges == [False, False]


def test_expectation_at_a_base_point_on_the_spectrum_raises():
    model = MatrixBFModel(ToyBFComplex(np.diag([2.0, 3.0])))
    with pytest.raises(IRDivergenceError, match="degree-0 block \\+ lambda has a zero eigenvalue"):
        expectation_grid(model, [0.1], 8, -3.0)


def test_expectation_radius_violation():
    model = MatrixBFModel(ToyBFComplex(np.diag([2.0, 3.0])))
    hbars = [2.5, complex(1.5e308, 1.5e308)]  # |hbar| past the radius 2, then past the float range
    res = expectation_grid(model, hbars, 6)
    assert res.series == [None, None]
    assert res.defects("det") == [None, None]
    assert res.diverges == [True, True]
    assert res.routes["det"][0] == pytest.approx(4.5 * 5.5 / 6.0, rel=1e-12)
    assert repr(res.routes["det"]) == repr(_closed_form_grid(model, hbars))  # the nan of an overflow too


def test_resummation_partition_identity():
    # expectation * Z(0) reproduces |det(L + hbar)| up to phase
    rng = np.random.default_rng(15)
    for _ in range(10):
        model = random_toy(rng)
        hbar = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        lhs = abs(_closed_form_grid(model, [hbar])[0]) * toy_bf_partition(model.complex, 0.0)
        rhs = toy_bf_partition(model.complex, hbar)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_resummation_defect_order():
    rng = np.random.default_rng(16)
    model = random_graded(rng)
    phi = 0.7
    defects = expectation_grid(model, [h * cmath.exp(1j * phi) for h in (0.1, 0.05, 0.025)], 8).defects("det")
    s12 = math.log2(defects[0] / defects[1])
    s23 = math.log2(defects[1] / defects[2])
    assert min(s12, s23) > 8.5


def _grid_points(grid, i: int) -> str:
    """Every column of a bridge grid at point i, and its det defect, as a repr: equal reprs are equal bits."""
    return repr((grid.hbars[i], {r: v[i] for r, v in grid.routes.items()}, {r: t[i] for r, t in grid.tails.items()},
                 grid.series[i], grid.diverges[i], grid.defects("det")[i]))


@pytest.mark.parametrize("kind", ["matrix", "orbit"])
def test_bridge_grid_points_do_not_depend_on_the_grid(kind):
    # a spiral out to three times the Taylor radius (exact for the matrix model, the term-decay
    # heuristic for the cat map, whose orbit loop series has radius about 2.04 at lambda0 = 3)
    model = random_graded(np.random.default_rng(20), lo=1.0, hi=2.0)
    radius = model.min_spectrum_abs() if kind == "matrix" else 2.04

    def grid(hbars):
        if kind == "matrix":
            return expectation_grid(model, hbars, 7)
        return zeta_expectation_bridge_grid(CAT_ORBITS, 1, hbars, 12.0, 3.0, 7)

    hbars = [3 * radius * k / 49 * cmath.exp(0.9j * k) for k in range(50)]
    whole = grid(hbars)
    assert whole.hbars == hbars
    assert 10 < sum(whole.diverges) < 40
    if kind == "matrix":
        assert repr(whole.routes["det"]) == repr(_closed_form_grid(model, hbars))
        assert [s is None for s in whole.series] == [abs(h) >= radius for h in hbars]
    for i, hbar in enumerate(hbars):
        assert _grid_points(grid([hbar]), 0) == _grid_points(whole, i)


def test_a_nan_defect_reads_nan_after_a_flag_whose_power_overflowed():
    # the radius flag at hbar = 1e155j raises OverflowError for hbar**2, which leaves C's errno set; abs of
    # the nan - 0j defect at -145 would then raise too, and read inf in the grid but nan alone
    hbars = [-145 + 0j, 1e155j]
    whole = zeta_expectation_bridge_grid(CAT_ORBITS, 1, hbars, 5.0, 3.0, 8)
    assert whole.diverges == [True, True]
    assert repr(whole.defects("det")) == "[nan, nan]"
    assert _grid_points(zeta_expectation_bridge_grid(CAT_ORBITS, 1, hbars[:1], 5.0, 3.0, 8), 0) == \
        _grid_points(whole, 0)
    with pytest.raises(OverflowError):
        hbars[1] ** 2
    assert math.isnan(_abs_or_inf(complex(math.nan, 0.0)))
    assert _abs_or_inf(complex(1.5e308, 1.5e308)) == math.inf


def test_exp_reads_nan_where_cmath_exp_is_undefined():
    # cmath.exp raises ValueError on an infinite imaginary part beside a finite or +inf real part
    for z in (complex(1, math.inf), complex(math.inf, math.inf)):
        with pytest.raises(ValueError):
            cmath.exp(z)
        assert repr(_exp(z)) == "(nan+nanj)"


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


def partition_model(rng, kind):
    """A three-block graded model for the partition tests; kind names what it exercises."""
    sizes = (2, 3, 4)
    if kind == "complex":  # complex d and iota: complex spectra
        ds, iotas = ([rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 3 * np.eye(n) for n in sizes]
                     for _ in range(2))
    elif kind == "non-normal":  # rotated triangular blocks with strong coupling above the diagonal
        ds, iotas = [], [np.eye(n) for n in sizes]
        for n in sizes:
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            ds.append(q @ (np.triu(rng.uniform(-2.0, 2.0, (n, n)), 1) + np.diag(rng.uniform(1.0, 4.0, n))) @ q.T)
    else:
        ds, iotas = ([rng.normal(size=(n, n)) + 3 * np.eye(n) for n in sizes] for _ in range(2))
    d = block_diag(*ds)
    if kind == "off-block":  # with iota = I, L0 = d: one entry coupling two blocks, just inside the tolerance
        iotas = [np.eye(n) for n in sizes]
        d[0, -1] = 1e-11 * np.max(np.abs(d))
    return MatrixBFModel(ToyBFComplex(d, block_diag(*iotas)), tuple(zip((0, 1, 2), sizes)))


PARTITION_KINDS = ("iota", "complex", "non-normal", "off-block", "resonance")


@pytest.mark.parametrize("kind", PARTITION_KINDS)
def test_partition_grid_matches_the_lu_reference(kind):
    rng = np.random.default_rng(40 + PARTITION_KINDS.index(kind))
    for _ in range(10):
        model = partition_model(rng, kind)
        hbars = rng.normal(size=12) + 1j * rng.normal(size=12)
        if kind == "non-normal":
            l0 = model.complex.L0
            assert np.linalg.norm(l0 @ l0.conj().T - l0.conj().T @ l0) > 1.0  # about 1e-15 for a normal L0
        if kind == "resonance":  # -hbar on the spectrum of each block: a zero of det(L + hbar)
            hbars[:3] = [-mu[0] for _, mu in model.spectra]
        values = partition_grid(model, hbars)
        assert values.shape == hbars.shape
        ref = [toy_bf_partition(model.complex, complex(h)) for h in hbars]
        if kind == "resonance":
            # near a simple zero, |det(L + hbar)| ~ |hbar + mu| times the product of the other factors
            mus = np.concatenate([mu for _, mu in model.spectra])
            for hbar, value, want in zip(hbars[:3], values[:3], ref[:3]):
                slope = np.prod(np.sort(np.abs(mus + hbar))[1:])
                assert value == pytest.approx(want, rel=0.0, abs=1e-12 * slope)
            values, ref = values[3:], ref[3:]
        assert values.tolist() == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_partition_grid_has_no_partial_overflow():
    from fractions import Fraction

    # the first 32 factors multiply to 1e320, past the float range; the full product 2.3e278 is not
    model = MatrixBFModel(ToyBFComplex(np.diag([1e10] * 32 + [0.05] * 32)))
    values = partition_grid(model, [0.0, 1e-3j])
    assert values[0] == pytest.approx(float(Fraction(10 ** 288, 2 ** 32)), rel=1e-14)
    # the LU reference exponentiates a log sum of 641 here, so it is good to about 1e-12 only
    assert values[1] == pytest.approx(toy_bf_partition(model.complex, 1e-3j), rel=1e-11)


def test_partition_grid_rejects_a_corrupted_gauge_inverse():
    cx = ToyBFComplex(np.diag([2.0, 3.0]))
    object.__setattr__(cx, "L1_inv", cx.L1_inv * (1 + 1e-6))
    model = MatrixBFModel(cx)
    # at hbar = 0 both routes read |det L0| and agree; from hbar = 0.5 on they do not
    with pytest.raises(ArithmeticError, match=r"disagree at hbar = \(0\.5\+0j\)"):
        partition_grid(model, [0.0, 0.5, 1.0])


def test_partition_grid_temporaries_have_the_size_of_the_grid():
    import tracemalloc

    rng = np.random.default_rng(7)
    blocks = [np.triu(rng.uniform(-0.3, 0.3, (16, 16)), 1) + np.diag(rng.permutation(np.linspace(1.0, 8.0, 16)))
              for _ in range(4)]
    model = MatrixBFModel(ToyBFComplex(block_diag(*blocks)), tuple((k, 16) for k in range(4)))
    hbars = np.exp(2j * np.pi * np.arange(1000) / 1000) * np.linspace(0.0, 0.9, 1000)
    tracemalloc.start()
    try:
        partition_grid(model, hbars)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one complex (grid x n) temporary alone would take 1000 * 64 * 16 bytes = 1 MB
    assert peak < 512 * 1024


def test_expectation_grid_closed_forms_are_the_per_point_products():
    # the ratio of each block, per point, is np.prod(1 + hbar / mu) combined in Python complex arithmetic
    model = partition_model(np.random.default_rng(30), "complex")
    hbars = [0.0, 0.3, -0.2 + 0.4j, 1.7 - 0.9j, 5.0]
    dets = expectation_grid(model, hbars, 4).routes["det"]
    for hbar, det, closed_form in zip(hbars, dets, _closed_form_grid(model, hbars)):
        want = 1.0 + 0j
        for degree, mu in model.spectra:
            ratio = complex(np.prod(1 + hbar / mu))
            want = want * ratio if degree % 2 == 0 else want / ratio
        assert det == want
        assert closed_form == want


# -------------------------------------------- cross-module diagram consistency

def test_chain_weights_match_closed_form():
    rng = np.random.default_rng(17)
    model = random_toy(rng, n=4)
    prop = regularized_propagator(model, 0.1, 2.3, 0.2)
    a, b = rng.normal(size=4), rng.normal(size=4)
    vertex, edge = doubled_field_tensors(model, prop)
    interaction = Interaction({2: vertex})
    ext = embed_doubled(model, a, b)
    closed = gamma_int(model, prop, a, b, 6)
    for n in range(1, 7):
        graph = chain_graph(n)
        engine = graph_weight(graph, edge, interaction, ext) / automorphism_order(graph)
        assert abs(engine - closed[n]) < 1e-10 * max(1.0, abs(engine))


def test_cycle_weights_match_closed_form():
    rng = np.random.default_rng(18)
    model = random_toy(rng, n=4)
    lam = 0.3
    prop = regularized_propagator(model, 0.0, math.inf, lam)
    vertex, edge = doubled_field_tensors(model, prop)
    interaction = Interaction({2: vertex})
    closed = gamma_tr(model, lam, 8)
    for n in range(1, 7):
        graph = cycle_graph(n)
        assert automorphism_order(graph) == 2 * n
        engine = graph_weight(graph, edge, interaction, {}) / automorphism_order(graph)
        signed = loop_sign(0) * engine
        assert abs(signed - closed[n + 1]) < 1e-10 * max(1.0, abs(engine))


def test_gamma_sum_matches_gamma_tr_order_two():
    rng = np.random.default_rng(19)
    model = random_toy(rng)
    lam = 0.2
    prop = regularized_propagator(model, 0.0, math.inf, lam)
    vertex, edge = doubled_field_tensors(model, prop)
    expansion = gamma_sum(edge, Interaction({2: vertex}), None, 3)
    series = expansion.hbar_series()
    closed = gamma_tr(model, lam, 4)
    for power in (2, 3, 4):
        assert loop_sign(0) * series[power] == pytest.approx(
            closed[power], rel=1e-10
        )


# ---------------------------------------------------------------------- bridge

CAT_ORBITS = enumerate_prime_orbits(HyperbolicToralModel(((2, 1), (1, 1))), 12)
CHARACTER_ORBITS = enumerate_prime_orbits(
    HyperbolicToralModel(((2, 1), (1, 1)), 1.0, Representation("character", 0.7)), 12)


def test_bridge_at_zero():
    res = zeta_expectation_bridge_grid(CAT_ORBITS, 1, [0.0], 12.0, 3.0, 6)
    assert res.routes["orbit"] == [1.0]
    assert res.routes["det"] == [1.0]
    assert res.series == [1.0]


def test_bridge_routes_agree_cat():
    res = zeta_expectation_bridge_grid(CAT_ORBITS, 1, [0.5], 12.0, 3.0, 10)
    (orbit,), (det,) = res.routes["orbit"], res.routes["det"]
    assert abs(orbit - det) <= res.tails["orbit"][0] + res.tails["det"][0]
    assert res.defects("det")[0] < 1e-6
    # independent closed-form oracle from the truncated euler sums
    lam0, lam1 = 3.0, 3.5
    log0, log1 = atom_table(CAT_ORBITS, 1, 12.0).log_zeta([lam0, lam1])[0][:, 3]  # the Euler column
    assert orbit == pytest.approx(cmath.exp(-(log1 - log0)), rel=1e-12)


def test_bridge_conjugation_symmetry():
    hbar = 0.4 + 0.3j
    res = zeta_expectation_bridge_grid(CAT_ORBITS, 1, [hbar, hbar.conjugate()], 12.0, 3.0, 8)
    (plus, minus), (plus_series, minus_series) = res.routes["orbit"], res.series
    assert minus == pytest.approx(plus.conjugate(), rel=1e-12)
    assert minus_series == pytest.approx(plus_series.conjugate(), rel=1e-12)


def test_orbit_loop_series_first_coefficient_from_atoms():
    table = atom_table(CAT_ORBITS, 1, 12.0)
    # N = 1 signed trace: sum_k (-1)^(k+1) sum_atoms w e^{-3 t}
    (trace,) = table.loop_traces(3.0, 1, signed_column(table))[0]
    signed = 0j
    for weights, t in zip(table.flat_weights().tolist(), table.t.tolist()):
        signed += sum((-1) ** (k + 1) * w * cmath.exp(-3.0 * t) for k, w in enumerate(weights))
    assert trace == pytest.approx(signed, rel=1e-12)


def test_signed_per_degree_traces_give_the_orbit_bridge_series(monkeypatch):
    from ruellebf import bf_engine

    built, bridge_grid = [], bf_engine._bridge_grid

    def capturing(hbars, routes, tails, loop_terms):
        built.append(loop_terms())
        return bridge_grid(hbars, routes, tails, loop_terms)

    monkeypatch.setattr(bf_engine, "_bridge_grid", capturing)
    for orbits in (CAT_ORBITS, CHARACTER_ORBITS):
        built.clear()
        zeta_expectation_bridge_grid(orbits, 1, [0.1], 12.0, 3.0, 7)
        table = atom_table(orbits, 1, 12.0)
        signed = table.loop_traces(3.0, 7, table.flat_weights()) @ [loop_sign(k) for k in range(3)]
        for n in range(1, 8):
            want = built[0][n - 1]
            assert abs((-1) ** n / n * signed[n - 1] - want) <= 1e-13 * abs(want)


def test_orbit_loop_series_past_the_float_factorial_keeps_the_moment_formula():
    from fractions import Fraction

    # order N + 1 divides the N-th moment by (N - 1)!, which passes the float range from N = 172
    orbits = enumerate_prime_orbits(HyperbolicToralModel(((2, 1), (1, 1))), 20)
    table = atom_table(orbits, 1, 20.0)
    signed = signed_column(table)[:, 0] * np.exp(-3.0 * table.t)
    traces = table.loop_traces(3.0, 179, signed_column(table))
    for n in (171, 172, 179):
        moment = sum(w * float(Fraction(t) ** (n - 1) / math.factorial(n - 1)) for w, t in zip(signed, table.t))
        assert traces[n - 1, 0] == pytest.approx(moment, rel=1e-12, abs=0.0)


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
    hbars = [0.4 + 0.2j, -0.5j, 0.7]
    for hbar, got in zip(hbars, _closed_form_grid(model, hbars)):
        ratios = [np.linalg.det(b + hbar * eye) / np.linalg.det(b) for b in blocks]
        want = ratios[0] / ratios[1]
        assert abs(got - want) <= 1e-8 * abs(want)
    for lam in (0.0, 0.3 + 0.1j):
        series, rows = gamma_tr(model, lam, 8), model.loop_traces(lam, 7)
        for n in range(1, 8):
            traces = [np.trace(np.linalg.matrix_power(np.linalg.inv(b + lam * eye), n)) for b in blocks]
            assert np.allclose(rows[n - 1], traces, rtol=1e-8, atol=0.0)
            want = (-1) ** n / n * (traces[1] - traces[0])  # loop signs -1 (degree 0), +1 (degree 1)
            assert abs(series[n + 1] - want) <= 1e-8 * abs(want)
