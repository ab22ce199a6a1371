import math
from fractions import Fraction

import numpy as np
import pytest

from ruellebf.orbits import (
    HyperbolicToralModel,
    PrimeOrbit,
    Representation,
    SpectrumFormatError,
    anosov_check,
    enumerate_prime_orbits,
    fixed_point_count,
    load_length_spectrum,
    prime_orbit_counts,
)

CAT = HyperbolicToralModel(((2, 1), (1, 1)))


def lattice_fixed_points(a, n):
    """Exhaustive count of solutions (A^n - I) x in Z^2 with x in [0,1)^2.

    Solves x = M^{-1} m over the rationals for every integer vector m in the
    image box of the fundamental domain.
    """
    m_pow = HyperbolicToralModel(a).power(n)
    mat = ((m_pow[0][0] - 1, m_pow[0][1]), (m_pow[1][0], m_pow[1][1] - 1))
    det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    assert det != 0
    reach = [abs(mat[0][0]) + abs(mat[0][1]), abs(mat[1][0]) + abs(mat[1][1])]
    count = 0
    for m1 in range(-reach[0] - 1, reach[0] + 2):
        for m2 in range(-reach[1] - 1, reach[1] + 2):
            x1 = Fraction(mat[1][1] * m1 - mat[0][1] * m2, det)
            x2 = Fraction(-mat[1][0] * m1 + mat[0][0] * m2, det)
            if 0 <= x1 < 1 and 0 <= x2 < 1:
                count += 1
    return count


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 5), (3, 16)])
def test_fixed_point_count_cat_map(n, expected):
    assert fixed_point_count(CAT, n) == expected
    assert lattice_fixed_points(((2, 1), (1, 1)), n) == expected


def test_fixed_point_count_other_matrix_vs_lattice():
    model = HyperbolicToralModel(((3, 2), (1, 1)))
    for n in (1, 2):
        assert fixed_point_count(model, n) == lattice_fixed_points(((3, 2), (1, 1)), n)


def test_fixed_point_count_rejects_non_anosov():
    rotation = HyperbolicToralModel(((0, -1), (1, 0)))
    with pytest.raises(ValueError, match="not Anosov"):
        fixed_point_count(rotation, 1)


def test_prime_counts_cat():
    assert prime_orbit_counts(CAT, 3) == {1: 1, 2: 2, 3: 5}


def test_sieve_consistency_exact():
    counts = prime_orbit_counts(CAT, 20)
    for n in range(1, 21):
        total = sum(d * counts[d] for d in range(1, n + 1) if n % d == 0)
        assert total == fixed_point_count(CAT, n)


@pytest.mark.parametrize("a", [((2, 1), (1, 1)), ((3, 1), (2, 1))])
def test_census_matches_binary_powers_and_fixed_point_counts(a):
    # the running product of the census against the binary powers of power and fixed_point_count
    from ruellebf.flat_zeta import _integer_entries
    from ruellebf.orbits import _census

    model = HyperbolicToralModel(a)
    census = _census(model, 41)
    assert [n for n, _, _ in census] == list(range(1, 42))
    for n, power, _ in census:
        assert power == model.power(n)
        fixed = sum(d * census[d - 1][2] for d in range(1, n + 1) if n % d == 0)
        assert fixed == fixed_point_count(model, n)
    assert prime_orbit_counts(model, 41) == {n: count for n, _, count in census}
    orbits = enumerate_prime_orbits(model, 41)
    assert [(o.period, o.multiplicity) for o in orbits] == [(n, count) for n, _, count in census if count]
    for orbit in orbits:
        assert _integer_entries(orbit.poincare) == [list(row) for row in model.power(orbit.period)]


def test_enumerate_keeps_the_period_of_every_orbit():
    # the Fibonacci map [[1, 1], [1, 0]] has no prime orbit of period 2
    model = HyperbolicToralModel(((1, 1), (1, 0)), roof=0.5)
    orbits = enumerate_prime_orbits(model, 12)
    assert [o.period for o in orbits] == [n for n in range(1, 13) if n != 2]
    for orbit in orbits:
        assert orbit.length == orbit.period * 0.5
        assert np.array_equal(orbit.poincare, np.array(model.power(orbit.period)))


def test_enumerate_rejects_an_orbit_length_past_the_float_range():
    with pytest.raises(ValueError, match="orbit length must be positive and finite"):
        enumerate_prime_orbits(HyperbolicToralModel(((2, 1), (1, 1)), roof=1e308), 3)


def test_enumerate_single_period():
    orbits = enumerate_prime_orbits(CAT, 1)
    assert len(orbits) == 1
    orbit = orbits[0]
    assert orbit.length == 1.0
    assert np.array_equal(orbit.poincare, np.array([[2.0, 1.0], [1.0, 1.0]]))
    assert orbit.multiplicity == 1


def test_enumerate_keeps_return_maps_exact_past_float_range():
    # from period 39 the entries of A^n exceed 2^53, where a float map would round them
    from ruellebf.flat_zeta import _integer_entries

    for orbit in enumerate_prime_orbits(CAT, 41):
        assert _integer_entries(orbit.poincare) == [list(row) for row in CAT.power(orbit.period)]


def test_enumerate_keeps_return_maps_exact_past_int64():
    # from period 46 the entries of A^n pass 2^63, where numpy would store them as rounded floats
    from ruellebf.flat_zeta import _char_poly

    for orbit in enumerate_prime_orbits(CAT, 48)[44:]:
        assert orbit.poincare.tolist() == [list(row) for row in CAT.power(orbit.period)]
        assert _char_poly(orbit.poincare)[-1] == 1


def test_enumerate_trivial_rep_all_ones():
    for orbit in enumerate_prime_orbits(CAT, 4):
        assert orbit.rho[0, 0] == 1.0


def test_transverse_sign_constant_for_cat():
    # det(I - A^n) < 0 for every n: feeds the (-1)^m bookkeeping downstream
    for orbit in enumerate_prime_orbits(CAT, 8):
        for j in (1, 2, 3):
            p = np.linalg.matrix_power(orbit.poincare, j)
            det = np.linalg.det(np.eye(2) - p)
            assert det < 0


def test_character_powers_two_routes():
    theta = 0.7342
    model = HyperbolicToralModel(((2, 1), (1, 1)), rep=Representation("character", theta))
    for orbit in enumerate_prime_orbits(model, 5):
        n = orbit.period
        for j in (1, 2, 5):
            via_power = np.linalg.matrix_power(orbit.rho, j)[0, 0]
            via_angle = np.exp(1j * theta * n * j)
            assert abs(via_power - via_angle) < 1e-12


def test_bigint_vs_floating_eigenvalue_formula():
    lam = max(np.linalg.eigvals(CAT.matrix()).real)
    for n in range(1, 31):
        exact = fixed_point_count(CAT, n)
        approx = abs(lam ** n + lam ** -n - 2)
        assert abs(exact - approx) <= 1e-6 * exact


def test_anosov_check_examples():
    assert anosov_check(HyperbolicToralModel(((1, 0), (0, 1)))) == (False, 0.0)
    ok, theta = anosov_check(CAT)
    assert ok
    assert theta == pytest.approx(math.log((3 + math.sqrt(5)) / 2), rel=1e-12)
    assert anosov_check(HyperbolicToralModel(((0, -1), (1, 0))))[0] is False


def test_anosov_check_roof_scales_theta():
    model = HyperbolicToralModel(((2, 1), (1, 1)), roof=2.0)
    _, theta = anosov_check(model)
    assert theta == pytest.approx(math.log((3 + math.sqrt(5)) / 2) / 2.0)


def test_model_requires_unimodular():
    with pytest.raises(ValueError, match="unimodular"):
        HyperbolicToralModel(((2, 0), (0, 1)))


def test_prime_orbit_rejects_unit_circle_eigenvalue():
    with pytest.raises(ValueError, match="unit circle"):
        PrimeOrbit(length=1.0, poincare=np.eye(2), rho=np.eye(1))


def test_prime_orbit_rejects_nonunitary_rho():
    with pytest.raises(ValueError, match="unitary"):
        PrimeOrbit(length=1.0, poincare=np.diag([2.0, 0.5]), rho=np.array([[0.5]]))


def test_prime_orbit_checks_every_singular_value_of_rho():
    # |det rho| = 1 is not enough: diag(2, 0.5) stretches one direction and shrinks the other
    with pytest.raises(ValueError, match="unitary"):
        PrimeOrbit(length=1.0, poincare=np.diag([2.0, 0.5]), rho=np.diag([2.0, 0.5]))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(PrimeOrbit(length=1.0, poincare=np.diag([2.0, 0.5]), rho=swap).rho, swap)


@pytest.mark.parametrize("length, corner, rho", [
    (math.nan, 0.5, 1.0), (math.inf, 0.5, 1.0), (1.0, 0.5, complex(math.nan, 0.0)), (1.0, 0.5, complex(0.0, math.inf)),
    (1.0, math.inf, 1.0),
], ids=["nan-1.0", "inf-1.0", "1.0-(nan+0j)", "1.0-infj", "poincare-inf"])
def test_prime_orbit_rejects_non_finite_length_and_rho(length, corner, rho):
    with pytest.raises(ValueError, match="finite"):
        PrimeOrbit(length=length, poincare=np.diag([2.0, corner]), rho=np.array([[rho]]))


# ----------------------------------------------------------------- CSV loader

HEADER = "length,multiplicity,m,P_entries,rho_re,rho_im\n"


def test_loader_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(HEADER)
    assert load_length_spectrum(path) == []


def test_loader_geodesic_row(tmp_path):
    ell = 0.9624
    entries = f"{math.exp(ell)};0.0;0.0;{math.exp(-ell)}"
    path = tmp_path / "geo.csv"
    path.write_text(HEADER + f"{ell},1,1,{entries},1.0,0.0\n")
    orbits = load_length_spectrum(path)
    assert len(orbits) == 1
    assert np.trace(orbits[0].poincare) == pytest.approx(2 * math.cosh(ell), rel=1e-12)


def test_loader_duplicate_rows_aggregate(tmp_path):
    entries = "3.0;0.0;0.0;0.25"
    row = f"2.5,1,1,{entries},1.0,0.0\n"
    path = tmp_path / "dup.csv"
    path.write_text(HEADER + row + row)
    orbits = load_length_spectrum(path)
    assert len(orbits) == 1
    assert orbits[0].multiplicity == 2


def test_loader_sorts_by_length(tmp_path):
    entries = "3.0;0.0;0.0;0.25"
    path = tmp_path / "sort.csv"
    path.write_text(HEADER + f"2.5,1,1,{entries},1.0,0.0\n" + f"1.5,1,1,{entries},1.0,0.0\n")
    lengths = [o.length for o in load_length_spectrum(path)]
    assert lengths == sorted(lengths)


def test_loader_skips_comments(tmp_path):
    entries = "3.0;0.0;0.0;0.25"
    path = tmp_path / "com.csv"
    path.write_text("# preamble\n" + HEADER + "# mid comment\n" + f"1.0,1,1,{entries},1.0,0.0\n")
    assert len(load_length_spectrum(path)) == 1


def test_loader_malformed_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + "not-a-number,1,1,1.0;0.0;0.0;1.0,1.0,0.0\n")
    with pytest.raises(SpectrumFormatError, match="line 2"):
        load_length_spectrum(path)


def test_loader_unit_circle_row_rejected_with_line(tmp_path):
    path = tmp_path / "circle.csv"
    path.write_text(HEADER + "1.0,1,1,1.0;0.0;0.0;1.0,1.0,0.0\n")
    with pytest.raises(SpectrumFormatError, match="line 2"):
        load_length_spectrum(path)


def test_loader_wrong_entry_count_reports_line(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(HEADER + "1.0,1,1,1.0;2.0,1.0,0.0\n")
    with pytest.raises(SpectrumFormatError, match="line 2"):
        load_length_spectrum(path)


def test_loader_rejects_m_below_one_with_line(tmp_path):
    # four entries fit a "-2 x -2" map, so only the m check stops this row
    path = tmp_path / "negative_m.csv"
    path.write_text(HEADER + "1.0,1,-1,2;1;1;1,1.0,0.0\n")
    with pytest.raises(SpectrumFormatError, match="line 2: m must be a positive integer"):
        load_length_spectrum(path)


GOOD_ROW = "1.0,1,1,3.0;0.0;0.0;0.25,1.0,0.0\n"
CIRCLE_ROW = "2.0,1,1,1.0;0.0;0.0;1.0,1.0,0.0\n"
MALFORMED_ROW = "not-a-number,1,1,3.0;0.0;0.0;0.25,1.0,0.0\n"


@pytest.mark.parametrize("line3, line5, message", [
    (CIRCLE_ROW, MALFORMED_ROW, "unit circle"),
    (MALFORMED_ROW, CIRCLE_ROW, "could not convert"),
])
def test_loader_first_bad_line_wins_over_error_kind(tmp_path, line3, line5, message):
    # validation and format errors interleave as if each row were checked as it is read
    path = tmp_path / "two-errors.csv"
    path.write_text(HEADER + GOOD_ROW + line3 + GOOD_ROW + line5)
    with pytest.raises(SpectrumFormatError, match=rf"^line 3: .*{message}"):
        load_length_spectrum(path)


def test_loader_duplicate_of_invalid_record_reports_earliest_line(tmp_path):
    # lines 3 and 5 hold one record; line 5 sorts first by length, line 3 comes first in the file
    shorter = CIRCLE_ROW.replace("2.0,", "0.5,", 1)
    path = tmp_path / "dup-invalid.csv"
    path.write_text(HEADER + GOOD_ROW + CIRCLE_ROW + GOOD_ROW + shorter)
    with pytest.raises(SpectrumFormatError, match="^line 3: Poincare map has an eigenvalue on the unit circle$"):
        load_length_spectrum(path)


def test_loader_reports_the_first_failed_check_of_a_row(tmp_path):
    # a non-positive length is checked before the map, as in PrimeOrbit
    path = tmp_path / "two-checks.csv"
    path.write_text(HEADER + GOOD_ROW + CIRCLE_ROW.replace("2.0,", "-1.0,", 1))
    with pytest.raises(SpectrumFormatError, match="^line 3: orbit length must be positive and finite$"):
        load_length_spectrum(path)


def test_loader_bad_header(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("length,mult\n")
    with pytest.raises(SpectrumFormatError, match="header"):
        load_length_spectrum(path)


def reference_merge(orbits):
    """The quadratic merge the loader used before its (P, rho) buckets, kept as the reference."""
    merged = []
    for orbit in sorted(orbits, key=lambda o: o.length):
        for i, seen in enumerate(merged):
            if (
                math.isclose(seen.length, orbit.length, rel_tol=0, abs_tol=1e-12)
                and seen.poincare.shape == orbit.poincare.shape
                and np.array_equal(seen.poincare, orbit.poincare)
                and np.array_equal(seen.rho, orbit.rho)
            ):
                merged[i] = PrimeOrbit(
                    length=seen.length, poincare=seen.poincare, rho=seen.rho,
                    multiplicity=seen.multiplicity + orbit.multiplicity,
                )
                break
        else:
            merged.append(orbit)
    return merged


def _orbit_key(orbit):
    return (orbit.length, orbit.multiplicity, orbit.poincare.shape, orbit.poincare.tobytes(),
            orbit.rho.tobytes(), orbit.period)


def test_loader_merge_matches_reference_on_shuffled_duplicates(tmp_path):
    rng = np.random.default_rng(5)
    maps = ["3.0;0.0;0.0;0.25", "3.0;-0.0;0.0;0.25", "3.0;0.1;0.0;0.25", "0.25;0.0;0.0;3.0",
            "4.0;0.0;0.0;0.25;0.0;2.0;0.0;0.0;0.0;0.0;0.5;0.0;0.0;0.0;0.0;5.0"]
    rows = []
    for _ in range(300):
        entries = maps[int(rng.integers(len(maps)))]
        m = 2 if entries.count(";") == 15 else 1
        length = [1.0, 1.0 + 5e-13, 1.0 + 1e-12, 1.0 - 5e-13, 2.0, 2.0 + 5e-13][int(rng.integers(6))]
        rho = ["1.0,0.0", "1.0,-0.0", "-0.0,1.0", "0.0,1.0"][int(rng.integers(4))]
        rows.append(f"{length!r},{int(rng.integers(1, 4))},{m},{entries},{rho}\n")
    path = tmp_path / "shuffled.csv"
    path.write_text(HEADER + "".join(rows))
    raw = tmp_path / "raw.csv"
    loaded_rows = []
    for row in rows:  # each row alone, so nothing merges
        raw.write_text(HEADER + row)
        loaded_rows.extend(load_length_spectrum(raw))
    got = load_length_spectrum(path)
    want = reference_merge(loaded_rows)
    assert len(got) < len(rows)
    assert [_orbit_key(o) for o in got] == [_orbit_key(o) for o in want]
