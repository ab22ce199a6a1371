import numpy as np
import pytest
from scipy.integrate import nquad, quad

from ruellebf.graded_core import SingularBlockError, ToyBFComplex

from graph_reference import toy_bf_partition
from math_reference import GradedOperator, GradedVectorSpace, gaussian_partition, superdeterminant, supertrace


def naive_supertrace(op):
    """Per-entry diagonal summation, independent of np.trace."""
    total = 0j
    for k in op.domain.degrees:
        block = op.block(k)
        for i in range(block.shape[0]):
            total += (-1) ** k * block[i, i]
    return total


def test_supertrace_equal_dims_cancel():
    sp = GradedVectorSpace({0: 2, 1: 2})
    assert supertrace(GradedOperator.identity(sp)) == 0


def test_supertrace_unequal_dims():
    sp = GradedVectorSpace({0: 3, 1: 1})
    assert supertrace(GradedOperator.identity(sp)) == 2


def test_supertrace_diagonal_blocks_hand_sum():
    sp = GradedVectorSpace({0: 2, 1: 1})
    op = GradedOperator(sp, {0: np.diag([1.0, 2.0]), 1: np.diag([5.0])})
    assert supertrace(op) == -2
    assert supertrace(op) == naive_supertrace(op)


def test_supertrace_rejects_degree_shift():
    sp = GradedVectorSpace({0: 2, 1: 2})
    shifted = GradedOperator(sp, {0: np.eye(2)}, degree_shift=1)
    with pytest.raises(ValueError, match="not degree-preserving"):
        supertrace(shifted)


def test_superdeterminant_identity():
    sp = GradedVectorSpace({0: 2, 1: 3})
    assert superdeterminant(GradedOperator.identity(sp)) == 1


def test_superdeterminant_alternating_product():
    sp = GradedVectorSpace({0: 2, 1: 1})
    op = GradedOperator(sp, {0: np.diag([2.0, 3.0]), 1: np.diag([6.0])})
    value = superdeterminant(op)
    assert value == pytest.approx(1.0)
    # oracle: per-block eigenvalue products
    eig = np.prod(np.linalg.eigvals(op.block(0))) / np.prod(np.linalg.eigvals(op.block(1)))
    assert value == pytest.approx(complex(eig))


def test_superdeterminant_single_even_block():
    sp = GradedVectorSpace({0: 1})
    assert superdeterminant(GradedOperator(sp, {0: np.diag([4.0])})) == pytest.approx(4.0)


def test_superdeterminant_singular_block_reports_degree():
    sp = GradedVectorSpace({0: 2, 1: 1})
    op = GradedOperator(sp, {0: np.diag([1.0, 0.0]), 1: np.diag([2.0])})
    with pytest.raises(SingularBlockError) as err:
        superdeterminant(op)
    assert err.value.degree == 0


def test_superdeterminant_multiplicative():
    rng = np.random.default_rng(3)
    sp = GradedVectorSpace({0: 3, 1: 2, 2: 2})
    for _ in range(20):
        ops = []
        for _ in range(2):
            blocks = {k: rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2 * np.eye(n)
                      for k, n in sp.dims.items()}
            ops.append(GradedOperator(sp, blocks))
        lhs = superdeterminant(ops[0].compose(ops[1]))
        rhs = superdeterminant(ops[0]) * superdeterminant(ops[1])
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_supertrace_of_commutator_vanishes():
    rng = np.random.default_rng(4)
    sp = GradedVectorSpace({0: 3, 1: 4})
    for _ in range(20):
        a, b = (
            GradedOperator(sp, {k: rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                                for k, n in sp.dims.items()})
            for _ in range(2)
        )
        comm_blocks = {k: a.block(k) @ b.block(k) - b.block(k) @ a.block(k) for k in sp.degrees}
        comm = GradedOperator(sp, comm_blocks)
        assert abs(supertrace(comm)) < 1e-10


def test_block_shape_validation():
    sp = GradedVectorSpace({0: 2, 1: 3})
    with pytest.raises(ValueError, match="shape"):
        GradedOperator(sp, {0: np.eye(3)})
    # degree +1 block must map dim(0)=2 into dim(1)=3
    GradedOperator(sp, {0: np.zeros((3, 2))}, degree_shift=1)
    with pytest.raises(ValueError, match="shape"):
        GradedOperator(sp, {0: np.zeros((2, 3))}, degree_shift=1)


def test_gaussian_partition_one_dim():
    sp = GradedVectorSpace({0: 1})
    assert gaussian_partition(GradedOperator(sp, {0: np.diag([2.0])})) == pytest.approx(2 ** -0.5)


def test_gaussian_partition_identity():
    sp = GradedVectorSpace({0: 2, 1: 2})
    assert gaussian_partition(GradedOperator.identity(sp)) == pytest.approx(1.0)


def _gaussian_quad_1d(a):
    val, _ = quad(lambda x: np.exp(-0.5 * a * x * x), -np.inf, np.inf)
    return val / np.sqrt(2 * np.pi)


def test_gaussian_partition_three_variable_quadrature():
    # blocks {0: diag(2,2), 1: diag(2)} -> |4/2|^(-1/2); quadrature in 3 real
    # variables, odd block entering with the opposite power
    sp = GradedVectorSpace({0: 2, 1: 1})
    op = GradedOperator(sp, {0: np.diag([2.0, 2.0]), 1: np.diag([2.0])})
    value = gaussian_partition(op)
    assert value == pytest.approx(2 ** -0.5)
    oracle = _gaussian_quad_1d(2.0) * _gaussian_quad_1d(2.0) / _gaussian_quad_1d(2.0)
    assert value == pytest.approx(oracle, rel=1e-6)


def test_gaussian_partition_dense_block_quadrature():
    a = np.array([[2.0, 0.7], [0.7, 1.5]])
    sp = GradedVectorSpace({0: 2})
    value = gaussian_partition(GradedOperator(sp, {0: a}))
    oracle, _ = nquad(
        lambda x, y: np.exp(-0.5 * (a[0, 0] * x * x + 2 * a[0, 1] * x * y + a[1, 1] * y * y)),
        [(-np.inf, np.inf)] * 2,
    )
    assert value == pytest.approx(oracle / (2 * np.pi), rel=1e-6)


def test_toy_partition_examples():
    cx = ToyBFComplex(np.diag([2.0, 3.0]))
    assert toy_bf_partition(cx, 0.0) == pytest.approx(6.0)  # |det diag(2,3)|
    assert toy_bf_partition(cx, 1.0) == pytest.approx(12.0)  # |det diag(3,4)|
    assert toy_bf_partition(cx, -2.0) == pytest.approx(0.0, abs=1e-12)  # resonance hit


def test_toy_partition_routes_agree_random():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        d = rng.normal(size=(n, n)) + 3 * np.eye(n)
        iota = rng.normal(size=(n, n)) + 3 * np.eye(n)
        cx = ToyBFComplex(d, iota)
        hbar = complex(rng.normal(), rng.normal())
        direct = abs(np.linalg.det(cx.L0 + hbar * np.eye(n)))
        value = toy_bf_partition(cx, hbar)
        assert abs(value - direct) <= 1e-10 * max(1.0, direct)


def test_toy_partition_identity_iota_route():
    # random invertible d with iota = identity: |det(d + hbar)| both routes
    rng = np.random.default_rng(12)
    d = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    cx = ToyBFComplex(d)
    assert toy_bf_partition(cx, 0.25) == pytest.approx(abs(np.linalg.det(d + 0.25 * np.eye(3))))


def test_toy_complex_singular_generator():
    with pytest.raises(SingularBlockError, match="Pollicott-Ruelle resonance"):
        ToyBFComplex(np.diag([1.0, 0.0]))


def test_toy_complex_takes_no_determinant(monkeypatch):
    # the singular-value check alone decides; building the complex takes no LU determinant
    def no_det(*args, **kwargs):
        raise AssertionError("np.linalg.det called")

    monkeypatch.setattr(np.linalg, "det", no_det)
    rng = np.random.default_rng(6)
    d = np.triu(rng.uniform(-0.3, 0.3, (64, 64)), 1) + np.diag(np.linspace(1.0, 8.0, 64))
    assert ToyBFComplex(d).n == 64
    with pytest.raises(SingularBlockError, match="Pollicott-Ruelle resonance") as exc:
        ToyBFComplex(np.diag([1.0, 0.0]))
    assert exc.value.degree == 0


def non_normal_generator(rng, d, cond):
    """Q U diag(d) U^-1 Q^T: eigenvector matrix Q U of condition number cond."""
    n = len(d)
    u = np.eye(n)
    u[0, -1] = np.sqrt(cond)  # cond of a unit shear with corner a is ~ a**2
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ u @ np.diag(d) @ np.linalg.inv(u) @ q.T


def test_singularity_test_is_scale_free():
    # |det| = 6 here is far below 1e-12 * max|entry|**6, the old threshold
    d = [1.0, 1.5, 2.0, 2.5, 3.0, 4.0]
    cx = ToyBFComplex(non_normal_generator(np.random.default_rng(4), d, 1e5))
    sp = GradedVectorSpace({0: 6})
    assert superdeterminant(GradedOperator(sp, {0: cx.L0})) == pytest.approx(np.prod(d), rel=1e-8)
    # a 64-dim triangular generator with spectrum in [1, 8]
    rng = np.random.default_rng(5)
    big = np.triu(rng.uniform(-0.3, 0.3, (64, 64)), 1) + np.diag(np.linspace(1.0, 8.0, 64))
    assert ToyBFComplex(big).n == 64
    with pytest.raises(SingularBlockError):
        ToyBFComplex(1e-3 * np.array([[1.0, 2.0], [2.0, 4.0]]))
