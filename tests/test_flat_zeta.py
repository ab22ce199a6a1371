import cmath
import math
from itertools import combinations

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from ruellebf.flat_zeta import (
    NonTransverseOrbitError,
    _char_poly,
    _float_char_polys,
    atom_table,
    zeta_grid_rows,
)
from ruellebf.orbits import HyperbolicToralModel, PrimeOrbit, Representation, enumerate_prime_orbits

from atom_reference import _integer_entries
from math_reference import BranchCutError, flat_det_via_F, flat_trace_cyclicity_check, power

CAT = HyperbolicToralModel(((2, 1), (1, 1)))
CAT_ORBITS = enumerate_prime_orbits(CAT, 12)
CAT_EIGS = sorted(np.linalg.eigvals(np.array(CAT.A, dtype=float)).real)


def zeta_rows(orbits, m, lambdas, l_max) -> list[dict]:
    """The table of zeta_grid_rows, one dict per row."""
    table = zeta_grid_rows(orbits, m, lambdas, l_max)
    return [dict(zip(table, cells)) for cells in zip(*table.values())]


def eig_symmetric_sum(mat, k):
    eigs = np.linalg.eigvals(mat)
    return sum(np.prod(list(sel)) for sel in combinations(eigs, k)) if k else 1.0


# ------------------------------------------------------- exterior power trace

def test_exterior_trace_k0_is_one():
    rng = np.random.default_rng(0)
    assert _float_char_polys(rng.normal(size=(1, 5, 5)))[0, 0] == 1.0


def test_exterior_trace_defining_cases_2x2():
    # an integer-valued map takes the exact kernel, a float one the stacked eigenvalue kernel
    assert _char_poly(((1, 2), (3, 4))) == [1, 5, -2]
    p = np.array([[1.5, 2.5], [3.5, 4.5]])
    e = _float_char_polys(p[None])[0]
    assert e[1] == pytest.approx(np.trace(p))
    assert e[2] == pytest.approx(np.linalg.det(p))


def test_exterior_trace_4x4_eigenvalue_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = rng.normal(size=(4, 4))
        got = _float_char_polys(p[None])[0, 2]
        want = eig_symmetric_sum(p, 2)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_alternating_minors_identity():
    rng = np.random.default_rng(2)
    for _ in range(25):
        d = int(rng.integers(1, 7))
        p = rng.normal(size=(d, d))
        e = _float_char_polys(p[None])[0]
        alt = sum((-1) ** k * e[k] for k in range(d + 1))
        det = np.linalg.det(np.eye(d) - p)
        assert abs(alt - det) <= 1e-9 * max(1.0, abs(det))


# --------------------------------------------------------------- flat traces

def test_flat_trace_empty_orbits():
    table = atom_table([], 1, 10.0)
    assert table.t.size == 0 and table.flat_weights().shape == (0, 3)


def test_flat_trace_cat_first_atom():
    table = atom_table(enumerate_prime_orbits(CAT, 1), 1, 1.0)
    assert table.t.tolist() == [1.0]
    # l * tr(rho) * 1 / |det(I - A)| = 1/1
    assert table.flat_weights()[0, 0] == pytest.approx(1.0)


def test_flat_trace_signed_degree_sum_identity():
    # sum_k (-1)^k weight_k = l * tr(rho^j) * det/|det| = +- l * tr(rho^j)
    orbits = enumerate_prime_orbits(CAT, 4)
    table = atom_table(orbits, 1, 4.0)
    signed = np.zeros(table.group_times.size, dtype=complex)
    np.add.at(signed, table.group, table.flat_weights() @ [1, -1, 1])
    for t, value in zip(table.group_times.tolist(), signed):
        # budget the total length-weighted multiplicity at this atom time
        expected = -sum(
            o.multiplicity * o.length
            for o in orbits
            for j in range(1, 5)
            if j * o.length == t
        )
        assert value == pytest.approx(expected, rel=1e-12)


def test_flat_trace_atoms_sorted_with_t_min():
    table = atom_table(CAT_ORBITS, 1, 9.0)
    assert table.t.tolist() == sorted(table.t.tolist())
    assert table.t_min == 1.0


def test_non_transverse_guard():
    # orbit ingestion already rejects unit-circle eigenvalues, so the sum-level
    # threshold is defense in depth; exercise it on the guard directly
    from atom_reference import _transversality_denominator, _transversality_scale

    with pytest.raises(NonTransverseOrbitError):
        p = np.diag([1.0 + 1e-14, 0.5])
        _transversality_denominator(_float_char_polys(p[None])[0].tolist(), _transversality_scale(p))
    p = np.diag([2.0, 0.5])
    assert _transversality_denominator(_float_char_polys(p[None])[0].tolist(), _transversality_scale(p)) == \
        pytest.approx(-0.5)


# ---------------------------------------------------------------- log zeta_k

def brute_log_zeta(orbits, k, lam, l_max):
    """Independent double loop, numpy dets, reversed accumulation order."""
    total = 0j
    for orbit in reversed(orbits):
        j = 1
        while j * orbit.length <= l_max * (1 + 1e-12):
            p = np.linalg.matrix_power(orbit.poincare, j)
            det = np.linalg.det(np.eye(p.shape[0]) - p)
            w = eig_symmetric_sum(p, k)
            total -= (
                orbit.multiplicity
                * cmath.exp(-lam * j * orbit.length)
                * np.trace(np.linalg.matrix_power(orbit.rho, j))
                * w
                / (j * abs(det))
            )
            j += 1
    return total


def test_log_zeta_empty():
    values, tails = atom_table([], 1, 10.0).log_zeta([3.0])
    assert values[0, 0] == 0
    assert tails[0, 0] == 0.0


@pytest.mark.parametrize("k", [0, 1, 2])
def test_log_zeta_cat_vs_brute_force(k):
    values, _ = atom_table(CAT_ORBITS, 1, 12.0).log_zeta([3.0])
    assert values[0, k] == pytest.approx(brute_log_zeta(CAT_ORBITS, k, 3.0, 12.0), rel=1e-12)


def test_log_zeta_cat_closed_forms():
    # the k = 0 and k = 2 factors collapse to -sum e^{-lam n}/n; k = 1 carries tr(A^n)
    lam = 3.0
    s0, s1, s2 = atom_table(CAT_ORBITS, 1, 12.0).log_zeta([lam])[0][0, :3]
    exact0 = -sum(math.exp(-lam * n) / n for n in range(1, 13))
    assert s0.real == pytest.approx(exact0, rel=1e-12)
    assert s2.real == pytest.approx(exact0, rel=1e-12)
    exact1 = -sum(
        (CAT_EIGS[0] ** n + CAT_EIGS[1] ** n) * math.exp(-lam * n) / n for n in range(1, 13)
    )
    assert s1.real == pytest.approx(exact1, rel=1e-12)


def test_log_zeta_decays_in_lambda():
    values = np.abs(atom_table(CAT_ORBITS, 1, 12.0).log_zeta([3.0, 5.0, 9.0, 14.0])[0][:, 0]).tolist()
    assert values == sorted(values, reverse=True)
    assert values[-1] < 1e-6


def test_tail_bound_monotone_in_truncation():
    tails = [atom_table(CAT_ORBITS, 1, L).log_zeta([3.0])[1][0, 0] for L in (6.0, 9.0, 12.0)]
    assert tails[0] > tails[1] > tails[2] > 0


def test_truncation_gap_geometric():
    # |value(L) - value(L + roof)| shrinks at least like e^{-(Re lam - h) roof}
    lam, h = 3.0, math.log(CAT_EIGS[1])
    values = [atom_table(CAT_ORBITS, 1, L).log_zeta([lam])[0][0, 0] for L in (6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0)]
    gaps = [abs(b - a) for a, b in zip(values, values[1:])]
    for g1, g2 in zip(gaps, gaps[1:]):
        assert g2 <= g1 * math.exp(-(lam - h)) * 1.05


def test_truncation_before_the_first_atom_is_uncertified():
    # L_max = 0.5 < the shortest length 1 sums no atom: the value 0 is exact only for an empty orbit set
    values, tails = atom_table(CAT_ORBITS, 1, 0.5).log_zeta([3.0])
    for k in range(3):
        assert (values[0, k], tails[0, k]) == (0, math.inf)
    assert tails[0, 3] == math.inf  # the Euler sum
    assert tails[0, 4] == math.inf  # the assembly
    assert all(row["tail_bound"] == math.inf for row in zeta_rows(CAT_ORBITS, 1, [3.0, 5.0 + 1j], 0.5))
    _, tails = atom_table([], 1, 0.5).log_zeta([3.0])
    assert tails[0, 1] == 0.0
    assert tails[0, 3] == 0.0


# ------------------------------------------------- euler product and assembly
# columns of AtomTable.log_zeta: log zeta_k at k = 0..2m, the Euler sum at 2m + 1, the assembly at 2m + 2

def test_euler_no_orbits():
    values, _ = atom_table([], 1, 10.0).log_zeta([3.0])
    assert values[0, 3] == 0
    assert cmath.exp(values[0, 3]) == 1


def test_euler_single_orbit_closed_form():
    orbit = PrimeOrbit(length=1.0, poincare=np.diag([2.0, 0.5]), rho=np.eye(1))
    lam = 2.0
    values, _ = atom_table([orbit], 1, 8.0).log_zeta([lam])
    # log(1 - e^{-lam}) truncated at j <= 8
    exact = -sum(math.exp(-lam * j) / j for j in range(1, 9))
    assert values[0, 3].real == pytest.approx(exact, rel=1e-12)


def test_euler_divergence_flag():
    orbit = PrimeOrbit(length=1.0, poincare=np.diag([2.0, 0.5]), rho=np.eye(1))
    assert math.isinf(atom_table([orbit], 1, 8.0).log_zeta([-0.5])[1][0, 3])


def test_assembly_equals_euler_exactly_for_cat():
    values, _ = atom_table(CAT_ORBITS, 1, 12.0).log_zeta([2.5, 3.0, 4.0])
    for euler, assembly in values[:, 3:]:
        assert assembly - euler == 0.0  # bit-exact, not approximate


def test_assembly_matches_per_degree_formula():
    lam = 3.0
    values, _ = atom_table(CAT_ORBITS, 1, 12.0).log_zeta([lam])
    per_degree = sum((-1) ** k * values[0, k] for k in range(3))
    assert values[0, 4] == pytest.approx(-per_degree, rel=1e-12)


def test_assembly_m_zero_degenerate():
    orbit = PrimeOrbit(length=1.0, poincare=np.zeros((0, 0)), rho=np.eye(1))
    lam = 2.0
    values, _ = atom_table([orbit], 0, 6.0).log_zeta([lam])
    assert values[0, 2] == pytest.approx(values[0, 0], rel=1e-14)  # m = 0: the assembly against log zeta_0


def test_assembly_dimension_check():
    with pytest.raises(ValueError, match="2m"):
        atom_table(CAT_ORBITS, 2, 6.0)


def test_euler_agrees_with_assembly_at_independent_truncations():
    lam = 3.0
    values, tails = atom_table(CAT_ORBITS, 1, 12.0).log_zeta([lam])
    short_values, short_tails = atom_table(CAT_ORBITS, 1, 9.0).log_zeta([lam])
    assert abs(values[0, 3] - short_values[0, 4]) <= tails[0, 3] + short_tails[0, 4]


# ----------------------------------------------------------- flat determinant

def test_flat_determinant_alternating_product_is_zeta():
    # the flat determinant det(L_k + lam) is exp(log zeta_k)
    lam = 3.0
    values, _ = atom_table(CAT_ORBITS, 1, 12.0).log_zeta([lam])
    product = 1.0 + 0j
    for k in range(3):
        product *= cmath.exp(values[0, k]) ** ((-1) ** k)
    euler = cmath.exp(values[0, 3])
    # product over k of det^((-1)^k) = zeta^((-1)^m), m = 1
    assert product == pytest.approx(euler ** -1, rel=1e-10)


def test_flat_det_via_F_examples():
    assert flat_det_via_F(np.diag([1.0, 2.0])) == pytest.approx(2.0)
    assert flat_det_via_F(np.zeros((1, 1)), 3.0) == pytest.approx(3.0)


def test_flat_det_via_F_random_vs_direct():
    rng = np.random.default_rng(8)
    for _ in range(10):
        b = rng.normal(size=(5, 5))
        b = b + (abs(min(np.linalg.eigvals(b).real)) + 1.0) * np.eye(5)
        lam = rng.uniform(0.0, 2.0)
        got = flat_det_via_F(b, lam)
        want = np.linalg.det(b + lam * np.eye(5))
        assert abs(got - want) <= 1e-9 * abs(want)


def test_flat_det_via_F_branch_error():
    with pytest.raises(BranchCutError):
        flat_det_via_F(np.diag([-2.0, 1.0]))


def test_mellin_normalized_atom_determinant():
    """flat_det_via_F's Mellin normalization reduces to the atom formula.

    F(s, lam) = (1/Gamma(s)) sum_i w_i t_i^{s-1} e^{-lam t_i}; its -d/ds at
    s = 0 is sum_i w_i t_i^{-1} e^{-lam t_i} because 1/Gamma(s) ~ s near 0.
    """
    atoms = ((0.7, 1.3 + 0.2j), (1.9, -0.4j))
    lam = 0.8

    def f_mellin(s):
        return sum(w * t ** (s - 1) * cmath.exp(-lam * t) for t, w in atoms) / gamma_fn(s)

    h = 1e-5
    d1 = (f_mellin(h) - f_mellin(-h)) / (2 * h)
    d2 = (f_mellin(h / 2) - f_mellin(-h / 2)) / h
    derivative = (4 * d2 - d1) / 3  # Richardson, O(h^4)
    direct = sum(w / t * cmath.exp(-lam * t) for t, w in atoms)
    assert abs(derivative - direct) < 1e-12
    log_det = -sum(w / t * cmath.exp(-lam * t) for t, w in atoms)
    assert cmath.exp(-derivative) == pytest.approx(cmath.exp(log_det), rel=1e-11)


# ------------------------------------------------------------------ cyclicity

def test_cyclicity_random_pairs():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a, b = rng.normal(size=(6, 6)), rng.normal(size=(6, 6))
        assert flat_trace_cyclicity_check(a, b)


def test_cyclicity_hand_example():
    a = np.diag([1.0, 2.0])
    b = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert flat_trace_cyclicity_check(a, b)
    assert np.trace(a @ b) == 0 and np.trace(b @ a) == 0


def test_cyclicity_shape_mismatch():
    with pytest.raises(ValueError):
        flat_trace_cyclicity_check(np.zeros((2, 3)), np.zeros((2, 3)))


# ------------------------------------------------------------------ grid rows

def test_zeta_grid_rows_schema_and_defect():
    rows = zeta_rows(CAT_ORBITS, 1, [3.0, 4.0 + 1.0j], 12.0)
    assert len(rows) == 2 * 4  # k in {0,1,2} plus the euler row, per lambda
    for row in rows:
        assert set(row) == {
            "re_lambda", "im_lambda", "k", "re_logzeta", "im_logzeta",
            "tail_bound", "L_max", "defect",
        }
    assert all(row["defect"] == 0.0 for row in rows if row["re_lambda"] == 3.0)


# ------------------------------------------------------- exact integer traces

def cat_log_zeta(a, roof, theta, lam):
    """Closed form log det(I - chi e^{-lam r} wedge^k A), k = 0, 1, 2, and the Euler sum (k = -1)."""
    mu = np.linalg.eigvals(np.array(a, dtype=float).reshape(2, 2)).astype(complex)
    det = a[0] * a[3] - a[1] * a[2]
    z = cmath.exp(1j * theta - lam * roof)
    out = {0: cmath.log(1 - z), 1: cmath.log(1 - z * mu[0]) + cmath.log(1 - z * mu[1]),
           2: cmath.log(1 - z * det)}
    out[-1] = -(out[0] - out[1] + out[2])
    return out


def test_char_poly_matches_eigenvalue_sums():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        a = rng.integers(-4, 5, size=(d, d))
        e = _char_poly(tuple(map(tuple, a.tolist())))
        assert all(type(x) is int for x in e)
        for k in range(d + 1):
            assert e[k] == pytest.approx(eig_symmetric_sum(a.astype(float), k).real, abs=1e-8)


def test_exterior_trace_exact_on_large_integer_powers():
    # tr(wedge^2 A^n) = det A^n = 1 and tr(wedge^1) = the Lucas number L_2n;
    # float minors of these matrices cancel catastrophically
    for n in (20, 30, 40):
        exact = power(CAT, n)
        assert _char_poly(exact)[2] == 1
        assert _char_poly(exact)[1] == exact[0][0] + exact[1][1]
    # below 2**53 an integer-valued float map reads as the same Python ints
    as_float = np.array(power(CAT, 30), dtype=float)
    assert _char_poly(_integer_entries(as_float))[2] == 1


def test_transversality_denominator_exact_for_integer_maps():
    from atom_reference import _transversality_denominator, _transversality_scale

    def denominator(p):
        return _transversality_denominator(_char_poly(_integer_entries(p)), _transversality_scale(p))

    for n in range(1, 30):
        an = power(CAT, n)
        assert denominator(np.array(an, dtype=float)) == 2 - (an[0][0] + an[1][1])
    # the relative threshold 1e-12 max|entry|^2 still applies to the exact value
    with pytest.raises(NonTransverseOrbitError):
        denominator(np.array(power(CAT, 30), dtype=float))


def test_character_3121_degree_two_matches_closed_form():
    from ruellebf.orbits import Representation

    model = HyperbolicToralModel(((3, 1), (2, 1)), 0.7, Representation("character", 0.7))
    orbits = enumerate_prime_orbits(model, 20)
    lams = [2.0 + 1j * y for y in np.linspace(0.0, 9.9, 12)]
    rows = zeta_rows(orbits, 1, lams, 14.0)
    for lam in lams:
        (row,) = [r for r in rows if r["k"] == 2 and complex(r["re_lambda"], r["im_lambda"]) == lam]
        ref = cat_log_zeta([3, 1, 2, 1], 0.7, 0.7, lam)[2]
        assert abs(complex(row["re_logzeta"], row["im_logzeta"]) - ref) <= 1e-12


@pytest.mark.xfail(strict=True, reason="tail_bound is a geometric estimate, not a bound (ROADMAP item 4)")
def test_tail_bound_covers_the_error_of_a_three_period_census():
    # the 10% inflation of the fitted decay ratio falls short here: the error is 8.06e-5, the tail 6.22e-5
    values, tails = atom_table(enumerate_prime_orbits(CAT, 3), 1, 3.0).log_zeta([3.0])
    ref = cat_log_zeta([2, 1, 1, 1], 1.0, 0.0, 3.0)[1]  # log det(I - e^{-lambda} A)
    assert abs(values[0, 1] - ref) <= tails[0, 1]


@pytest.mark.parametrize("a, roof, l_max", [([2, 1, 1, 1], 1.0, 20.0), ([3, 1, 2, 1], 0.7, 14.0)])
def test_cat_zeta_grid_rows_within_tail_of_closed_form(a, roof, l_max):
    from ruellebf.orbits import Representation

    model = HyperbolicToralModel(((a[0], a[1]), (a[2], a[3])), roof, Representation("character", 0.7))
    orbits = enumerate_prime_orbits(model, 20)
    i = np.arange(100)
    lams = list((2.0 + 0.98 * i / 99) + 1j * (0.1 * i))
    rows = zeta_rows(orbits, 1, lams, l_max)
    assert len(rows) == 4 * len(lams)
    for row in rows:
        ref = cat_log_zeta(a, roof, 0.7, complex(row["re_lambda"], row["im_lambda"]))[row["k"]]
        err = abs(complex(row["re_logzeta"], row["im_logzeta"]) - ref)
        assert err <= row["tail_bound"] + 1e-12 * (1 + abs(ref))
        assert row["defect"] <= 1e-12 * (1 + abs(ref))


# ------------------------------------------------------------- the atom table

def test_atom_table_columns():
    table = atom_table(CAT_ORBITS, 1, 4.0)
    assert table.t.tolist() == sorted(table.t.tolist())
    assert table.group_times.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert table.group_times[table.group].tolist() == table.t.tolist()
    assert table.weights.shape == (table.t.size, 3)
    # (-1)^m sum_k (-1)^k tr(wedge^k P^j) / |det(I - P^j)| is exactly +1 for the cat map
    assert table.sign.tolist() == [1.0] * table.t.size
    alternating = table.weights[:, 0] - table.weights[:, 1] + table.weights[:, 2]
    assert np.allclose(alternating, -1.0, rtol=0, atol=1e-15)


def test_atom_table_float_map_from_eigenvalues(monkeypatch):
    from ruellebf import flat_zeta

    # triangular return maps: the eigenvalues are the diagonal, to the power j
    diags = [np.array([2.5, 0.4, 1.7, 0.6]), np.array([3.1, 0.2, 1.3, 0.9])]
    orbits = []
    for length, diag in zip((1.3, 1.9), diags):
        p = np.diag(diag)
        p[np.triu_indices(4, 1)] = [0.03, -0.02, 0.05, 0.01, -0.04, 0.02]
        orbits.append(PrimeOrbit(length=length, poincare=p, rho=np.array([[1.0]])))
    shapes = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: shapes.append(np.shape(a)) or eigvals(a))
    table = flat_zeta.atom_table(orbits, 2, 9.0)
    # one stacked eigendecomposition per table, over the P^j of every atom
    assert shapes == [(table.t.size, 4, 4)] and table.t.size == 6 + 4
    atoms = sorted((j * o.length, pos, j) for pos, o in enumerate(orbits) for j in range(1, 7) if j * o.length <= 9.0)
    assert table.t.tolist() == [t for t, _, _ in atoms]
    for row, (_, pos, j) in enumerate(atoms):
        mu = diags[pos] ** j
        det = np.prod(1 - mu)
        want = [eig_symmetric_sum(np.diag(mu), k) / abs(det) for k in range(5)]
        assert np.allclose(table.weights[row], want, rtol=1e-12, atol=0)
        assert table.sign[row] == np.sign(det)  # (-1)^m sgn det(I - P^j), m = 2


# ------------------------------------------- the exact route: one kernel per distinct power

@pytest.mark.parametrize("n", [1, 20, 29, 30, 50, 400])
@pytest.mark.parametrize("roof", [1.0, 0.7])
@pytest.mark.parametrize("rep", [Representation(), Representation("character", 0.7)], ids=["trivial", "character"])
@pytest.mark.parametrize("a", [((2, 1), (1, 1)), ((3, 1), (2, 1))], ids=["2111", "3121"])
def test_cat_map_atom_table_matches_the_per_atom_reference(a, rep, roof, n):
    from atom_reference import assert_same_table, reference_atom_table

    # a census repeats each A^N once per divisor of N; past N of about 45 the powers leave int64, and
    # the longer tables fail the transversality check (ROADMAP item 4) at an atom the reference names
    orbits = enumerate_prime_orbits(HyperbolicToralModel(a, roof, rep), n)
    try:
        reference = reference_atom_table(orbits, 1, float(n))
    except ArithmeticError as exc:
        with pytest.raises(type(exc)) as got:
            atom_table(orbits, 1, float(n))
        assert str(got.value) == str(exc)
    else:
        assert_same_table(atom_table(orbits, 1, float(n)), reference)


def test_atom_table_forms_one_characteristic_polynomial_per_distinct_power(monkeypatch):
    from ruellebf import flat_zeta

    orbits = enumerate_prime_orbits(HyperbolicToralModel(((2, 1), (1, 1)), 1.0, Representation("character", 0.7)), 20)
    powers = []
    char_poly = flat_zeta._char_poly
    monkeypatch.setattr(flat_zeta, "_char_poly", lambda p: powers.append(p) or char_poly(p))
    table = flat_zeta.atom_table(orbits, 1, 20.0)
    # the atom (n, j) has P^j = A^(n j): 66 atoms, 20 distinct powers A^1 .. A^20
    assert table.t.size == 66
    assert sorted(powers) == sorted({power(CAT, n) for n in range(1, 21)})


def test_cat_map_atom_table_skips_the_float_route(monkeypatch):
    from atom_reference import assert_same_table, reference_atom_table
    from ruellebf import flat_zeta

    def no_float_route(*args):
        raise AssertionError("a cat-map table has no float atoms")

    orbits = enumerate_prime_orbits(HyperbolicToralModel(((2, 1), (1, 1)), 1.0, Representation("character", 0.7)), 20)
    want = reference_atom_table(orbits, 1, 20.0)
    monkeypatch.setattr(flat_zeta, "_float_char_polys", no_float_route)
    assert_same_table(flat_zeta.atom_table(orbits, 1, 20.0), want)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_euler_coefficients_match_matrix_power_on_matrix_twists(r):
    from atom_reference import assert_same_table, reference_atom_table
    from ruellebf.flat_zeta import _euler_coefficients

    # r x r unitary twists, where the product order of rho^j shows in the last bits; j reaches 32, so
    # the binary powers of j = 31 multiply five factors; P = [[1, 1], [1, 0]] stays transverse there, where
    # the cat map's A^30 fails the 1e-12 threshold (ROADMAP item 4)
    rng = np.random.default_rng(17)
    orbits = []
    for i, length in enumerate([0.09, 0.2, 0.3, 0.45, 1.0]):
        q, u = np.linalg.qr(rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))
        orbits.append(PrimeOrbit(length=length, poincare=np.array([[1, 1], [1, 0]]),
                                 rho=q * (np.diag(u) / np.abs(np.diag(u))), multiplicity=i + 1))
    atoms = [(p, j) for p, orbit in enumerate(orbits) for j in range(1, 40) if j * orbit.length <= 2.9]
    pos, j = (np.array(column) for column in zip(*atoms))
    assert j.max() == 32
    euler, overflow = _euler_coefficients(orbits, pos, j)
    want = [-orbits[p].multiplicity * complex(np.trace(np.linalg.matrix_power(orbits[p].rho, k))) / k
            for p, k in atoms]
    assert euler.tobytes() == np.array(want).tobytes()
    assert not overflow.any()
    assert_same_table(atom_table(orbits, 1, 2.9), reference_atom_table(orbits, 1, 2.9))
    # an orbit set has one twist rank: a twist of another rank after r x r ones is refused
    other = 2 if r == 1 else 1
    orbits.insert(2, PrimeOrbit(length=0.5, poincare=np.array([[2, 1], [1, 1]]), rho=1j * np.eye(other)))
    for build in (atom_table, reference_atom_table):
        with pytest.raises(ValueError, match=rf"^orbit carries a {other}x{other} twist, expected the {r}x{r} of "
                                             r"the first orbit$"):
            build(orbits, 1, 2.9)


def float_spectrum(n_orbits=40, seed=3):
    """m = 2 orbits with triangular float return maps (diagonal 1.3..3 and 0.2..0.7), lengths 0.8..3
    and character twists."""
    rng = np.random.default_rng(seed)
    orbits = []
    for _ in range(n_orbits):
        p = np.diag(np.concatenate([rng.uniform(1.3, 3.0, 2), rng.uniform(0.2, 0.7, 2)]))
        p[np.triu_indices(4, 1)] = rng.uniform(-0.05, 0.05, 6)
        orbits.append(PrimeOrbit(length=rng.uniform(0.8, 3.0), poincare=p,
                                 rho=np.array([[cmath.exp(1j * rng.uniform(0, 2 * np.pi))]])))
    return orbits


def test_lambda_alone_equals_lambda_in_grid():
    from ruellebf.flat_zeta import LOG_ZETA_BLOCK

    i = np.arange(100)
    lams = list((2.0 + 0.98 * i / 99) + 1j * (0.1 * i))
    grid = zeta_rows(CAT_ORBITS, 1, lams, 12.0)
    for idx in (0, 37, 99):
        alone = zeta_rows(CAT_ORBITS, 1, [lams[idx]], 12.0)
        assert [repr(r) for r in alone] == [repr(r) for r in grid[4 * idx:4 * idx + 4]]
    # a float spectrum whose grid spans several lambda blocks: points at and beside the block edges
    orbits = float_spectrum()
    table = atom_table(orbits, 2, 4.0)
    # every sign is +1, so the assembly column repeats the Euler column: six distinct columns
    assert (table.sign == 1.0).all()
    step = LOG_ZETA_BLOCK // (6 * table.t.size)
    i = np.arange(3 * step + 20)
    lams = list((1.0 + 4.0 * i / i.size) + 1j * np.sin(i))
    grid = zeta_rows(orbits, 2, lams, 4.0)
    for idx in (0, step - 1, step, 2 * step, 3 * step + 19):
        alone = zeta_rows(orbits, 2, [lams[idx]], 4.0)
        assert [repr(r) for r in alone] == [repr(r) for r in grid[6 * idx:6 * idx + 6]]


def test_empty_orbits_give_zero_and_euler_tail_inf_off_region():
    rows = zeta_rows([], 1, [3.0, -1.0, 0.5j], 10.0)
    assert all(r["re_logzeta"] == 0.0 and r["im_logzeta"] == 0.0 for r in rows)
    assert all(r["tail_bound"] == 0.0 and r["defect"] == 0.0 for r in rows)
    assert atom_table([], 1, 10.0).log_zeta([-1.0])[1][0, 3] == 0.0
    rows = zeta_rows(CAT_ORBITS, 1, [-0.5, 0.0, 0.5j, 3.0], 12.0)
    euler_tails = [r["tail_bound"] for r in rows if r["k"] == -1]
    assert [math.isinf(t) for t in euler_tails] == [True, True, True, False]


def reference_geometric_tail(grouped):
    """The per-row np.polyfit form of the tail estimate, kept as the reference."""
    points = [(t, g) for t, g in grouped if g > 0.0]
    if not grouped:
        return 0.0
    if len(points) < 2:
        return math.inf
    window = points[-min(len(points), 6):]
    ts = np.array([t for t, _ in window])
    logs = np.log([g for _, g in window])
    slope, intercept = np.polyfit(ts, logs, 1)
    if slope >= 0.0:
        return math.inf
    mean_gap = (ts[-1] - ts[0]) / (len(ts) - 1)
    ratio = math.exp(slope * mean_gap) * 1.1
    if ratio >= 1.0:
        return math.inf
    amplitude = max(window[-1][1], math.exp(intercept + slope * ts[-1]))
    return amplitude * ratio / (1.0 - ratio)


def test_geometric_tails_match_polyfit_reference():
    from ruellebf.flat_zeta import _geometric_tails

    rng = np.random.default_rng(12)
    times = np.cumsum(rng.uniform(0.3, 1.0, size=14))
    decay = np.exp(-rng.uniform(-0.2, 2.0, size=(200, 1)) * times) * rng.uniform(0.5, 2.0, size=(200, 14))
    decay[rng.random(size=decay.shape) < 0.2] = 0.0
    tails = _geometric_tails(times, decay)
    for row, tail in zip(decay, tails):
        want = reference_geometric_tail(list(zip(times.tolist(), row.tolist())))
        if math.isinf(want):
            assert math.isinf(tail)
        else:
            assert tail == pytest.approx(want, rel=1e-12)
    assert _geometric_tails(np.array([]), np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("a, roof, n_max, lambda0", [((2, 1, 1, 1), 1.0, 29, 3.0), ((3, 1, 2, 1), 0.7, 20, 6.0)])
def test_per_degree_loop_traces_match_the_closed_form(a, roof, n_max, lambda0):
    # the degree-k flat traces sum over periods n of r sum_nu (chi nu)^n at t = n r, nu in spec wedge^k A:
    # the second trace is sum_nu r^2 sum_n n q^n = sum_nu (r/2)^2 / sinh^2(z_nu r/2), q = e^{-z_nu r}
    chi = cmath.exp(0.7j)
    model = HyperbolicToralModel((a[:2], a[2:]), roof, Representation("character", 0.7))
    table = atom_table(enumerate_prime_orbits(model, n_max), 1, n_max * roof)
    traces = table.loop_traces(lambda0, 3, table.flat_weights())
    mat = np.array([a[:2], a[2:]], dtype=float)
    for k, spectrum in enumerate([[1.0], np.linalg.eigvals(mat), [np.linalg.det(mat)]]):
        z = [lambda0 - cmath.log(chi * nu) / roof for nu in spectrum]
        want = sum((roof / 2) ** 2 / cmath.sinh(zn * roof / 2) ** 2 for zn in z)
        assert abs(traces[1, k] - want) <= 1e-13 * abs(want)


def test_log_zeta_past_the_float_range_warns_nothing():
    # mult = 10**308 is a float, its Euler weight times tr P = 3 is not: the k = 1 column reads -inf and
    # nan without a numpy warning (an error under this suite's filterwarnings), the other columns finite
    orbit = PrimeOrbit(2.0, np.array([[2, 1], [1, 1]]), np.eye(1), 10 ** 308)
    values, tails = atom_table([orbit], 1, 4.0).log_zeta([3.0])
    assert values[0, 1].real == -math.inf and math.isnan(values[0, 1].imag) and tails[0, 1] == math.inf
    assert np.isfinite(np.delete(values[0], 1)).all()


def test_loop_traces_load_no_matrix_module():
    # an orbit-side trace and its loop terms need neither the matrix half of the package nor scipy: the loop
    # sign and the loop rule sit beside the orbit traces, so a cat-map table, from the prime orbits of periods
    # 1..4 of [[2, 1], [1, 1]] (A**n, 1, 2, 5 and 10 of them), gives its loop terms with no module of the
    # package loaded but flat_zeta, the same terms as the enumerated orbits give
    import json
    import subprocess
    import sys
    from pathlib import Path

    import ruellebf
    from ruellebf.flat_zeta import _loop_terms, loop_sign

    code = ("import json, sys, types, numpy as np; from ruellebf import flat_zeta; a = np.array([[2, 1], [1, 1]]); "
            "orbits = [types.SimpleNamespace(length=float(n), poincare=np.linalg.matrix_power(a, n), "
            "rho=np.eye(1, dtype=complex), multiplicity=count) for n, count in ((1, 1), (2, 2), (3, 5), (4, 10))]; "
            "table = flat_zeta.atom_table(orbits, 1, 4.0); signed = (table.flat_weights() "
            "* [flat_zeta.loop_sign(k) for k in range(3)]).sum(axis=1, keepdims=True); "
            "terms = flat_zeta._loop_terms(table.loop_traces(3.0, 6, signed)[:, 0]); print(json.dumps("
            "[repr(terms), sorted(m for m in sys.modules if m.split('.')[0] in ('ruellebf', 'scipy'))]))")
    env = {"PYTHONPATH": str(Path(ruellebf.__file__).resolve().parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    got, modules = json.loads(out.stdout)
    assert modules == ["ruellebf", "ruellebf.flat_zeta"]
    table = atom_table(enumerate_prime_orbits(HyperbolicToralModel(((2, 1), (1, 1))), 4), 1, 4.0)
    signed = (table.flat_weights() * [loop_sign(k) for k in range(3)]).sum(axis=1, keepdims=True)
    assert got == repr(_loop_terms(table.loop_traces(3.0, 6, signed)[:, 0]))
