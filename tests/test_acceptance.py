"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import cmath
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import block_diag

from ruellebf.bf_engine import (
    MatrixBFModel,
    expectation_grid,
    gamma_int,
    gamma_tr,
    loop_sign,
    partition_grid,
    regularized_propagator,
)
from ruellebf.feynman import EffectiveQuadraticInteraction, Interaction, rge_evolve
from ruellebf.flat_zeta import _char_poly, _float_traces, atom_table
from ruellebf.graded_core import ToyBFComplex
from ruellebf.orbits import HyperbolicToralModel, PrimeOrbit, enumerate_prime_orbits

from graph_reference import (
    automorphism_order,
    chain_graph,
    cycle_graph,
    doubled_field_tensors,
    embed_doubled,
    graph_weight,
)
from math_reference import fixed_point_count, flat_det_via_F, power, prime_orbit_counts, simplex_volume_quadrature


@contextmanager
def criterion(number, description, max_seconds=None):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - started
    if max_seconds is not None:
        assert elapsed < max_seconds, f"criterion {number} took {elapsed:.2f}s >= {max_seconds}s"
    print(f"[PASS] criterion {number}: {description} [{elapsed:.2f}s]")


def _fraction_free_det(rows: list) -> int:
    """det of a square integer matrix by Bareiss elimination: every division is exact."""
    a, sign, previous = [list(row) for row in rows], 1, 1
    for k in range(len(a) - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, len(a)) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[-1][-1] if a else 1


def test_criterion_1_alternating_minors_flat_trace_identity():
    with criterion(1, "sum_k (-1)^k tr(wedge^k P) = det(I - P), 200 random float + 200 integer, d <= 6", 1.0):
        rng = np.random.default_rng(101)
        for _ in range(200):
            # the stacked kernel of atom_table's float route: its e and its own alternating sum
            d = int(rng.integers(1, 7))
            p = rng.normal(size=(d, d))
            (e,), (stacked_det,) = _float_traces(p[None])
            alternating = sum((-1) ** k * e[k] for k in range(d + 1))
            det = np.linalg.det(np.eye(d) - p)
            assert abs(alternating - det) <= 1e-9 * max(1.0, abs(det))
            assert abs(stacked_det - det) <= 1e-9 * max(1.0, abs(det))
        for _ in range(200):
            # the exact kernel of atom_table's integer route, against fraction-free elimination
            d = int(rng.integers(1, 7))
            p = rng.integers(-9, 10, size=(d, d)).tolist()
            e = _char_poly(tuple(map(tuple, p)))
            i_minus_p = [[(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(p)]
            assert sum((-1) ** k * e[k] for k in range(d + 1)) == _fraction_free_det(i_minus_p)


def _lattice_fixed_points(a, n):
    m_pow = power(HyperbolicToralModel(a), n)
    mat = ((m_pow[0][0] - 1, m_pow[0][1]), (m_pow[1][0], m_pow[1][1] - 1))
    det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    reach = [abs(mat[0][0]) + abs(mat[0][1]), abs(mat[1][0]) + abs(mat[1][1])]
    count = 0
    for m1 in range(-reach[0] - 1, reach[0] + 2):
        for m2 in range(-reach[1] - 1, reach[1] + 2):
            x1 = Fraction(mat[1][1] * m1 - mat[0][1] * m2, det)
            x2 = Fraction(-mat[1][0] * m1 + mat[0][0] * m2, det)
            if 0 <= x1 < 1 and 0 <= x2 < 1:
                count += 1
    return count


def test_criterion_2_cat_map_orbit_census():
    with criterion(2, "cat-map census (1,5,16)/(1,2,5) + exact sieve to n = 20"):
        cat = HyperbolicToralModel(((2, 1), (1, 1)))
        for n, expected in ((1, 1), (2, 5), (3, 16)):
            assert fixed_point_count(cat, n) == expected
            assert _lattice_fixed_points(((2, 1), (1, 1)), n) == expected
        assert prime_orbit_counts(cat, 3) == {1: 1, 2: 2, 3: 5}
        counts = prime_orbit_counts(cat, 20)
        for n in range(1, 21):
            total = sum(d * counts[d] for d in range(1, n + 1) if n % d == 0)
            assert total == fixed_point_count(cat, n)


def test_criterion_3_zeta_factorization():
    with criterion(3, "Euler product vs alternating assembly, cat suspension", 5.0):
        orbits = enumerate_prime_orbits(HyperbolicToralModel(((2, 1), (1, 1))), 12)
        lams = [2.5, 3.0, 4.0]
        # columns 3 and 4 of the m = 1 table: the Euler sum and the alternating assembly
        values, tails = atom_table(orbits, 1, 12.0).log_zeta(lams)
        short_values, short_tails = atom_table(orbits, 1, 9.0).log_zeta(lams)
        for i in range(len(lams)):
            assert values[i, 4] - values[i, 3] == 0.0  # exact at shared truncation
            gap = abs(values[i, 3] - short_values[i, 4])
            assert gap <= tails[i, 3] + short_tails[i, 4]


def _random_graded_model(rng):
    split, blocks = [], []
    for k in (0, 1):
        n = int(rng.integers(2, 4))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        split.append((k, n))
        blocks.append(q @ np.diag(rng.uniform(0.4, 0.9, size=n)) @ q.T)
    return MatrixBFModel(ToyBFComplex(block_diag(*blocks)), tuple(split)), sum(n for _, n in split)


def test_criterion_4_diagram_resummation():
    with criterion(4, "exp(Gamma_tr/hbar) vs det ratios, 50 graded models, order >= K+1", 10.0):
        rng = np.random.default_rng(104)
        K = 8
        orders = []
        for _ in range(50):
            model, dim = _random_graded_model(rng)
            phi = rng.uniform(0.0, 2 * math.pi)
            rho = model.min_spectrum_abs()
            steps = (0.1, 0.05, 0.025)
            result = expectation_grid(model, [h * cmath.exp(1j * phi) for h in steps], K)
            defects = result.defects("det")
            for h, det, defect in zip(steps, result.routes["det"], defects):
                # truncation-tail bound on |exp(E) - 1| scaled by the closed form
                tail = dim * (h / rho) ** (K + 1) / ((K + 1) * (1 - h / rho))
                c_bound = 2 * abs(det) * tail / h ** (K + 1)
                assert defect <= c_bound * h ** (K + 1)
            s12 = math.log2(defects[0] / defects[1])
            s23 = math.log2(defects[1] / defects[2])
            assert min(s12, s23) > 8.5
            orders.append(2 * s23 - s12)  # Richardson-extrapolated slope
        # the estimated order must be >= K + 1 = 9 up to the estimator's own
        # statistical resolution (two standard errors); an order below 9
        # would miss this by dozens of standard errors
        mean, stderr = np.mean(orders), np.std(orders) / math.sqrt(len(orders))
        assert mean >= 9.0 - 2 * stderr
        assert mean > 8.9


def test_criterion_5_partition_function_identity():
    with criterion(5, "gauge-fixed |det(L + hbar)| route + resonance zero locus"):
        rng = np.random.default_rng(105)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            d = rng.normal(size=(n, n)) + 3.5 * np.eye(n)
            iota = rng.normal(size=(n, n)) + 3.5 * np.eye(n)
            cx = ToyBFComplex(d, iota)
            hbar = complex(rng.normal(), rng.normal())
            inner = np.eye(n) + hbar * np.linalg.inv(cx.L1)
            gauge = abs(np.linalg.det(cx.iota @ inner @ cx.d))
            direct = abs(np.linalg.det(cx.L0 + hbar * np.eye(n)))
            assert abs(gauge - direct) <= 1e-9 * max(1.0, direct)
            # the partition command's route, from the block spectra, against both LU determinants
            (route,) = partition_grid(MatrixBFModel(cx), [hbar])
            assert abs(route - gauge) <= 1e-9 * max(1.0, direct)
            assert abs(route - direct) <= 1e-9 * max(1.0, direct)

        # zero locus: Newton on the gauge-route determinant lands on -spec(L)
        def gauge_det(cx, hbar):
            inner = np.eye(cx.n, dtype=complex) + hbar * np.linalg.inv(cx.L1)
            return complex(np.linalg.det(cx.iota @ inner @ cx.d))

        for _ in range(20):
            n = 3
            d = rng.normal(size=(n, n)) + 3.5 * np.eye(n)
            iota = rng.normal(size=(n, n)) + 3.5 * np.eye(n)
            cx = ToyBFComplex(d, iota)
            for mu in np.linalg.eigvals(cx.L0):
                z = -mu + 0.05 * (rng.normal() + 1j * rng.normal())
                for _ in range(60):
                    f = gauge_det(cx, z)
                    step = 1e-7 * max(1.0, abs(z))
                    df = (gauge_det(cx, z + step) - gauge_det(cx, z - step)) / (2 * step)
                    delta = f / df
                    z = z - delta
                    if abs(delta) < 1e-12:
                        break
                assert abs(z - (-mu)) <= 1e-6


def test_criterion_6_feynman_rules_consistency():
    with criterion(6, "chain/cycle engine weights vs closed forms, N <= 6, 4x4"):
        rng = np.random.default_rng(106)
        for _ in range(5):
            d = rng.normal(size=(4, 4)) + 4.5 * np.eye(4)
            iota = rng.normal(size=(4, 4)) + 4.5 * np.eye(4)
            model = MatrixBFModel(ToyBFComplex(d, iota))
            lam = 0.3
            prop = regularized_propagator(model, 0.0, math.inf, lam)
            vertex, edge = doubled_field_tensors(model, prop)
            interaction = Interaction({2: vertex})
            a, b = rng.normal(size=4), rng.normal(size=4)
            ext = embed_doubled(model, a, b)
            chain_closed = gamma_int(model, prop, a, b, 6)
            loop_closed = gamma_tr(model, lam, 7)
            for n in range(1, 7):
                chain = chain_graph(n)
                cycle = cycle_graph(n)
                assert automorphism_order(chain.without_tail_labels()) == 2
                assert automorphism_order(cycle) == 2 * n
                w_chain = graph_weight(chain, edge, interaction, ext) / automorphism_order(chain)
                ref = chain_closed[n]
                assert abs(w_chain - ref) <= 1e-10 * max(1.0, abs(ref))
                w_cycle = graph_weight(cycle, edge, interaction, {}) / automorphism_order(cycle)
                ref = loop_closed[n + 1]
                assert abs(loop_sign(0) * w_cycle - ref) <= 1e-10 * max(1.0, abs(ref))


def _heat_window_kernel(seed, l1, l2):
    q, _ = np.linalg.qr(seed)
    mu = np.linspace(0.8, 2.0, seed.shape[0])
    diag = (np.exp(-l1 * mu) - np.exp(-l2 * mu)) / mu
    return q @ np.diag(diag) @ q.T


def test_criterion_7_rge_semigroup_law():
    with criterion(7, "RGE scale composition 0->a->b equals 0->b, 50 models"):
        rng = np.random.default_rng(107)
        for _ in range(50):
            seed = rng.normal(size=(4, 4))
            j = rng.normal(size=(4, 4)) * 0.1
            j = j + j.T
            eff = EffectiveQuadraticInteraction.from_kernel(j, 6)
            a, b = sorted(rng.uniform(0.2, 2.5, size=2))
            p_0a = _heat_window_kernel(seed, 0.0, a)
            p_ab = _heat_window_kernel(seed, a, b)
            p_0b = _heat_window_kernel(seed, 0.0, b)
            two_step = rge_evolve(rge_evolve(eff, p_0a), p_ab)
            one_step = rge_evolve(eff, p_0b)
            for lhs, rhs in zip(two_step.kernels, one_step.kernels):
                assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_criterion_8_flat_determinant_routes():
    with criterion(8, "flat_det_via_F vs direct det; orbit flat dets vs det(I - e^-3 wedge^k A)"):
        rng = np.random.default_rng(108)
        for _ in range(20):
            b = rng.normal(size=(5, 5))
            b = b + (abs(min(np.linalg.eigvals(b).real)) + 1.0) * np.eye(5)
            lam = rng.uniform(0.0, 2.0)
            got = flat_det_via_F(b, lam)
            want = complex(np.linalg.det(b + lam * np.eye(5)))
            assert abs(got - want) <= 1e-9 * abs(want)
        # the flat determinant exp(log zeta_k) of the cat suspension (roof 1) against its closed form
        orbits = enumerate_prime_orbits(HyperbolicToralModel(((2, 1), (1, 1))), 10)
        values, _ = atom_table(orbits, 1, 10.0).log_zeta([3.0])
        a = np.array([[2.0, 1.0], [1.0, 1.0]])
        for k, wedge in enumerate([np.eye(1), a, np.array([[np.linalg.det(a)]])]):
            want = np.linalg.det(np.eye(len(wedge)) - math.exp(-3.0) * wedge)
            assert abs(cmath.exp(values[0, k]) - want) <= 1e-9 * abs(want)


def test_criterion_9_simplex_factor():
    with criterion(9, "ordered-simplex volume t^(N-1)/(N-1)! vs quadrature, N <= 5"):
        rng = np.random.default_rng(109)
        for n in range(1, 6):
            for t in (1.0, float(rng.uniform(0.5, 2.5))):
                # one atom at time t whose signed flat weight is t (det(I - P) = -1): at lambda0 = 0 its
                # N-th signed loop trace is t * t^(N-1) / (N-1)!
                table = atom_table([PrimeOrbit(t, np.array([[2, 1], [1, 1]]), np.eye(1))], 1, t)
                signed = (table.flat_weights() * [loop_sign(k) for k in range(3)]).sum(axis=1, keepdims=True)
                factor = table.loop_traces(0.0, n, signed)[n - 1, 0] / t
                numeric = simplex_volume_quadrature(n, t, 3001)
                assert table.t.tolist() == [t]
                assert abs(numeric - factor) <= 1e-3 * max(abs(factor), 1e-9)
