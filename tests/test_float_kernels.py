"""The float orbit path in stacked numpy calls: pinned output bytes and bit-identical kernels."""

import dataclasses
import hashlib
import json
import math
import random

import numpy as np
import pytest

from ruellebf import cli
from ruellebf.orbits import PrimeOrbit

from atom_reference import assert_same_table

# ------------------------------------------------------------ pinned output bytes

PYTHAGOREAN = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29)]


def _decimal(rng, lo, hi):
    """A uniform draw on [lo, hi] rounded to 6 decimals; every step is exact or correctly rounded."""
    return rng.randint(round(lo * 10**6), round(hi * 10**6)) / 10**6


def _pin_map(rng, kind):
    """A 4 x 4 return map: upper triangular with a real spectrum, or an expanding and a
    contracting rotation block (complex eigenvalue pairs) with a small coupling."""
    p = [[0.0] * 4 for _ in range(4)]
    if kind == "triangular":
        for i, (lo, hi) in enumerate([(1.5, 3.0), (0.3, 0.8), (1.1, 1.8), (0.3, 0.8)]):
            p[i][i] = _decimal(rng, lo, hi)
        for i in range(4):
            for j in range(i + 1, 4):
                p[i][j] = _decimal(rng, -0.05, 0.05)
        return p
    for block, (lo, hi) in enumerate([(1.5, 3.0), (0.3, 0.7)]):
        a, b, c = rng.choice(PYTHAGOREAN)
        scale = _decimal(rng, lo, hi)
        cos, sin = scale * a / c, scale * b / c
        at = 2 * block
        p[at][at], p[at][at + 1], p[at + 1][at], p[at + 1][at + 1] = cos, -sin, sin, cos
    for i in range(2):
        for j in range(2, 4):
            p[i][j] = _decimal(rng, -0.05, 0.05)
    return p


def write_pin_spectrum(path, n_rows=200, seed=20261018):
    """A seeded m = 2 spectrum of n_rows rows: classes repeated up to four times, some copies
    with a -0.0 entry or a length 4e-13 away (both merge), shuffled, with a comment line.

    Only integer arithmetic, correctly rounded division and repr are used, so the file is the
    same on every platform.
    """
    rng = random.Random(seed)
    rows = []
    while len(rows) < n_rows:
        length = rng.randint(8, 25) / 10  # lengths on a 0.1 grid: distinct classes share them
        p = _pin_map(rng, rng.choice(["triangular", "triangular", "rotation"]))
        a, b, c = rng.choice(PYTHAGOREAN + [(1, 0, 1)])
        rho = (rng.choice([1, -1]) * a / c, rng.choice([1, -1]) * b / c)
        for copy in range(rng.randint(1, 4)):
            entries = [repr(x) for row in p for x in row]
            if copy == 1:
                entries[8] = "-0.0"  # P[2][0] is 0.0 in both kinds of map
            shift = 4e-13 if copy == 2 else 0.0
            rows.append(f"{length + shift!r},{rng.randint(1, 2)},2,{';'.join(entries)},{rho[0]!r},{rho[1]!r}\n")
    rows = rows[:n_rows]
    rng.shuffle(rows)
    path.write_text("# seeded pin spectrum\nlength,multiplicity,m,P_entries,rho_re,rho_im\n" + "".join(rows),
                    encoding="utf-8")


PIN_CONFIGS = {
    "orbits": {"model": {"spectrum_file": "pin.csv"}, "rep": {"trivial": True}},
    "zeta": {"model": {"spectrum_file": "pin.csv"}, "rep": {"trivial": True},
             "truncation": {"L_max": 4.0}, "grid": [[3.0, 0.0], [4.5, 1.0], [6.0, -2.0]]},
}

# SHA-256 of the CSV output (numpy 2.4 with its bundled OpenBLAS, x86-64 with AVX-512, glibc
# 2.36). orbits was recorded with the per-row loader that the stacked one replaced; zeta with
# the characteristic polynomials in real arithmetic, which moved one of its 144 cells by
# 4.7e-16 relative from the np.poly coefficients before them. The zeta digest depends on the
# platform's exp, log and LAPACK to the last bit, no longer on its BLAS.
PIN_DIGESTS = {
    "orbits": "ca8590806006acbfd5ef15fa0563eeac075a77983054d5b452caff925ccc3029",
    "zeta": "ee43ec553243a6d051690510a1d4d9e982234dba7bda10d1303c7eab69614cd2",
}


@pytest.mark.parametrize("command", sorted(PIN_CONFIGS))
def test_spectrum_outputs_match_pinned_digests(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    write_pin_spectrum(tmp_path / "pin.csv")
    (tmp_path / "cfg.json").write_text(json.dumps(PIN_CONFIGS[command]), encoding="utf-8")
    assert cli.main([command, "--config", "cfg.json", "--out", "out.csv"]) == 0
    assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == PIN_DIGESTS[command]


# ------------------------------------------------- stacked characteristic polynomials

def random_float_maps(rng, m, n):
    """n float 2m x 2m maps, cycling through three kinds: upper triangular (a real spectrum),
    Gaussian (real roots or complex pairs), and rotation blocks r R(theta) conjugated by a
    Gaussian matrix (complex pairs only)."""
    d = 2 * m
    maps = []
    for i in range(n):
        if i % 3 == 0:
            p = np.triu(rng.uniform(-0.1, 0.1, (d, d)), 1) + np.diag(rng.uniform(0.1, 5.0, d))
        elif i % 3 == 1:
            p = 2.0 * rng.normal(size=(d, d))
        else:
            p = np.zeros((d, d))
            for at in range(0, d, 2):
                r, theta = rng.uniform(0.2, 4.0), rng.uniform(0.0, 2 * np.pi)
                p[at:at + 2, at:at + 2] = r * np.array([[np.cos(theta), -np.sin(theta)],
                                                        [np.sin(theta), np.cos(theta)]])
            q = rng.normal(size=(d, d))
            p = q @ p @ np.linalg.inv(q)
        maps.append(p)
    return np.array(maps)


def complex_recurrence(roots):
    """Coefficients of prod (x - r) over roots, in Python complex arithmetic, root by root."""
    c = [1 + 0j]
    for r in roots:
        c = [c[0]] + [c[i] - r * c[i - 1] for i in range(1, len(c))] + [0j - r * c[-1]]
    return c


@pytest.mark.parametrize("m", [1, 2, 3])
def test_stacked_char_polys_match_per_matrix_bit_for_bit(m):
    from ruellebf.flat_zeta import _char_poly, _float_char_polys

    maps = random_float_maps(np.random.default_rng(100 + m), m, 300)
    complex_spectra = sum(bool(np.iscomplexobj(np.linalg.eigvals(p))) for p in maps)
    assert 100 <= complex_spectra < len(maps)  # real and complex spectra share one stack
    stacked = _float_char_polys(maps)
    assert stacked.dtype == float and stacked.shape == (len(maps), 2 * m + 1)
    for p, row in zip(maps, stacked):
        # the per-matrix formula: signed coefficients of a plain complex recurrence over the eigenvalues
        coeffs = complex_recurrence(complex(r) for r in np.linalg.eigvals(p).tolist())
        reference = np.array([(-1) ** k * c.real for k, c in enumerate(coeffs)])
        assert row.tobytes() == reference.tobytes() == np.array(_char_poly(p)).tobytes()
        assert _float_char_polys(p[None])[0].tobytes() == row.tobytes()


def test_atom_table_keeps_integer_valued_float_powers_exact(monkeypatch):
    from ruellebf.flat_zeta import atom_table
    from ruellebf.orbits import PrimeOrbit

    # P has eigenvalues +-sqrt(3) and P^2 = 3I: only the j = 1 atom joins the float stack, the
    # j = 2 atom takes the exact integer route
    orbit = PrimeOrbit(length=1.0, poincare=np.array([[0.0, 0.5], [6.0, 0.0]]), rho=np.eye(1))
    shapes = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: shapes.append(np.shape(a)) or eigvals(a))
    table = atom_table([orbit], 1, 2.0)
    assert shapes == [(1, 2, 2)]
    # det(I - P^2) = (1 - 3)^2 = 4 and tr wedge^k P^2 = 1, 6, 9; det(I - P) = -2
    assert table.weights[1].tolist() == [0.25, 1.5, 2.25]
    assert table.sign.tolist() == [1.0, -1.0]


# ------------------------------------------------- the stacked atom table and log zeta

def random_spectrum(rng, m, n_orbits):
    """PrimeOrbits with float 2m x 2m return maps of spectral radius 1.2 to 2 (real and complex
    spectra, -0.0 below the diagonal of every triangular map) and one with zero eigenvalues, lengths
    on a 0.1 grid (shared times), twists 1, -1, +-i with signed zeros and random characters, and multiplicities 1 to
    3. For m = 1 an integer-valued float map and one whose square is integer-valued join, so both
    routes share the table."""
    maps = random_float_maps(rng, m, n_orbits)
    for i, p in enumerate(maps):
        p *= rng.uniform(1.2, 2.0) / np.max(np.abs(np.linalg.eigvals(p)))
        if i % 3 == 0:
            p[np.tril_indices(2 * m, -1)] = -0.0
    maps = list(maps)
    if m == 1:
        maps += [np.array([[2.0, 1.0], [1.0, 1.0]]), np.array([[0.0, 0.5], [6.0, 0.0]])]
    maps.append(np.diag([1.5] + [0.0] * (2 * m - 1)))  # zero eigenvalues: zero coefficients
    # twists on and off the axes, where the signed zeros of Python's complex arithmetic show
    twists = [1.0, -1.0, complex(0.0, 1.0), complex(0.0, -1.0), complex(-0.0, -1.0)]
    orbits = []
    for i, p in enumerate(maps):
        rho = twists[i] if i < len(twists) else np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        orbits.append(PrimeOrbit(length=rng.integers(5, 30) / 10, poincare=p, rho=np.array([[rho]], dtype=complex),
                                 multiplicity=int(rng.integers(1, 4))))
    return orbits


@pytest.mark.parametrize("m", [1, 2, 3])
def test_stacked_atom_table_matches_per_atom_reference_bit_for_bit(m):
    from atom_reference import reference_atom_table, reference_log_zeta
    from ruellebf.flat_zeta import atom_table

    orbits = random_spectrum(np.random.default_rng(202), m, 60)
    table, reference = atom_table(orbits, m, 3.0), reference_atom_table(orbits, m, 3.0)
    assert_same_table(table, reference)
    # repetitions j >= 4, shared atom times and complex twists
    assert min(o.length for o in orbits) * 4 <= 3.0 and table.t.size > 60
    assert table.group_times.size < table.t.size
    assert np.count_nonzero(table.euler.imag) > table.t.size // 2
    lambdas = [3.0, 4.5 + 1.0j, -0.5 + 2.0j, 0.0, 12.0 - 2.0j]
    for got, want in zip(table.log_zeta(lambdas), reference_log_zeta(reference, lambdas)):
        assert got.tobytes() == want.tobytes()


def test_log_zeta_blocks_match_the_per_atom_sum(monkeypatch):
    from atom_reference import reference_log_zeta
    from ruellebf import flat_zeta

    table = flat_zeta.atom_table(random_spectrum(np.random.default_rng(202), 2, 60), 2, 3.0)
    rng = np.random.default_rng(9)
    lambdas = rng.uniform(-1.0, 6.0, 50) + 1j * rng.uniform(-3.0, 3.0, 50)
    want = reference_log_zeta(table, lambdas)
    # blocks of 3 lambdas, the last one short
    monkeypatch.setattr(flat_zeta, "LOG_ZETA_BLOCK", 3 * 7 * table.t.size + 5)
    for got, ref in zip(table.log_zeta(lambdas), want):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", range(200, 208))
def test_stacked_atom_table_fails_at_the_reference_atom(seed):
    from atom_reference import reference_atom_table
    from ruellebf.flat_zeta import NonTransverseOrbitError, atom_table

    # at m = 3 these spectra mix tables that build with ones whose first failing atom sits anywhere
    orbits = random_spectrum(np.random.default_rng(seed), 3, 60)
    try:
        reference = reference_atom_table(orbits, 3, 3.0)
    except NonTransverseOrbitError as exc:
        with pytest.raises(NonTransverseOrbitError) as got:
            atom_table(orbits, 3, 3.0)
        assert str(got.value) == str(exc)
    else:
        assert_same_table(atom_table(orbits, 3, 3.0), reference)


def test_first_failing_atom_wins_across_routes():
    from atom_reference import reference_atom_table
    from ruellebf.flat_zeta import NonTransverseOrbitError, atom_table

    # |det(I - P)| against a threshold of 1e-12 * (1e8)^2 = 1e4, on each route: exact integers, an
    # integer-valued float map (exact traces on the float route) and a float map
    failing = [np.array([[2, 10**8], [0, 3]]), np.array([[2.0, 1e8], [0.0, 3.0]]), np.array([[2.5, 1e8], [0.0, 0.5]])]
    sizes = ["2.000e+00", "2.000e+00", "7.500e-01"]
    benign = random_spectrum(np.random.default_rng(7), 1, 6)
    cases = [([1.5], [i]) for i in range(3)]
    # all three at once: the shortest fails first, or at one length the first in input order
    cases += [([1.5, 1.6, 1.7], [i, (i + 1) % 3, (i + 2) % 3]) for i in range(3)]
    cases += [([1.5] * 3, [i, (i + 1) % 3, (i + 2) % 3]) for i in range(3)]
    for lengths, which in cases:
        flat = [PrimeOrbit(length, failing[i], np.eye(1)) for length, i in zip(lengths, which)]
        orbits = benign[:3] + flat + benign[3:]
        with pytest.raises(NonTransverseOrbitError) as want:
            reference_atom_table(orbits, 1, 2.5)
        with pytest.raises(NonTransverseOrbitError) as got:
            atom_table(orbits, 1, 2.5)
        assert str(got.value) == str(want.value) == f"non-transverse orbit: |det(I - P^j)| = {sizes[which[0]]}"


def test_non_finite_power_raises_the_reference_message():
    from atom_reference import reference_atom_table
    from ruellebf.flat_zeta import NonTransverseOrbitError, atom_table

    # P passes its check (|det(I - P)| ~ 1e308 against a threshold ~ 1e296); P^2 has an inf entry
    overflowing = PrimeOrbit(length=1.0, poincare=np.array([[1e154, 1e154], [1e140, 1e154]]), rho=np.eye(1))
    benign = random_spectrum(np.random.default_rng(7), 1, 6)
    for orbits in ([overflowing], benign + [overflowing]):
        with pytest.raises(NonTransverseOrbitError) as want:
            reference_atom_table(orbits, 1, 2.5)
        with pytest.raises(NonTransverseOrbitError) as got:
            atom_table(orbits, 1, 2.5)
        assert str(got.value) == str(want.value) == "non-transverse orbit: |det(I - P^j)| = nan"


def test_multiplicity_past_the_float_range_raises_what_the_reference_raises():
    from atom_reference import reference_atom_table
    from ruellebf.flat_zeta import atom_table

    huge = PrimeOrbit(length=0.7, poincare=np.diag([2.5, 0.3]), rho=np.eye(1), multiplicity=10**400)
    # non-transverse at t = 0.6, before the huge multiplicity's first atom: |det(I - P)| = 0.5
    # against a threshold of 1e-12 * (1e8)^2
    flat = PrimeOrbit(length=0.6, poincare=np.array([[2.0, 1e8], [0.0, 0.5]]), rho=np.eye(1))
    # an exact trace past the float range: P = [[a, b], [-b, a]] has det P = a^2 + b^2 just past it
    # (2**1024 - 2**970 is the least int that float() refuses), while det(I - P) = 1 - 2a + det P is
    # just inside it and passes its check
    a = 10**154
    b = math.isqrt(2**1024 - 2**970 - a * a) + 1
    exact = PrimeOrbit(length=1.0, poincare=np.array([[a, b], [-b, a]], dtype=object), rho=np.eye(1))
    benign = random_spectrum(np.random.default_rng(7), 1, 6)
    for orbits in ([huge], benign + [huge], [exact], benign + [exact], [huge, flat]):
        raised = []
        for build in (reference_atom_table, atom_table):
            with pytest.raises(ArithmeticError) as exc:
                build(orbits, 1, 2.5)
            raised.append((type(exc.value), str(exc.value)))
        assert raised[0] == raised[1]
    assert raised[0][0].__name__ == "NonTransverseOrbitError"


# ------------------------------------------- loaded orbits: plain PrimeOrbits, one eigvals per float atom

def test_loaded_spectrum_table_matches_the_reference_bit_for_bit(tmp_path):
    from atom_reference import reference_atom_table, reference_log_zeta
    from ruellebf.flat_zeta import atom_table
    from ruellebf.orbits import load_length_spectrum

    # the pin spectrum holds copies with a -0.0 entry, which merge with the record they equal
    write_pin_spectrum(tmp_path / "pin.csv")
    orbits = load_length_spectrum(tmp_path / "pin.csv")
    # a loaded orbit carries its fields and nothing else
    assert all(set(vars(orbit)) == {f.name for f in dataclasses.fields(orbit)} for orbit in orbits)
    assert not any(orbit.poincare.flags.writeable for orbit in orbits)
    table, reference = atom_table(orbits, 2, 4.0), reference_atom_table(orbits, 2, 4.0)
    assert_same_table(table, reference)
    lambdas = [3.0, 4.5 + 1.0j, 6.0 - 2.0j]
    for got, want in zip(table.log_zeta(lambdas), reference_log_zeta(reference, lambdas)):
        assert got.tobytes() == want.tobytes()


def test_spectrum_zeta_eigendecomposes_once_per_record_and_once_per_float_atom(tmp_path, monkeypatch):
    from ruellebf.flat_zeta import atom_table
    from ruellebf.orbits import load_length_spectrum

    monkeypatch.chdir(tmp_path)
    write_pin_spectrum(tmp_path / "pin.csv")
    (tmp_path / "cfg.json").write_text(json.dumps(PIN_CONFIGS["zeta"]), encoding="utf-8")
    orbits = load_length_spectrum(tmp_path / "pin.csv")
    atoms = atom_table(orbits, 2, 4.0).t.size
    # every orbit has its j = 1 atom within L_max
    assert max(orbit.length for orbit in orbits) <= 4.0 and atoms > len(orbits)
    # the loader checks each distinct (P, rho) record once: -0.0 == 0.0, rows within 1e-12 merge
    with open(tmp_path / "pin.csv", encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[2:]]
    records = len({(tuple(map(float, p.split(";"))), complex(float(re), float(im))) for _, _, _, p, re, im in rows})
    matrices = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: matrices.append(len(a)) or eigvals(a))
    assert cli.main(["zeta", "--config", "cfg.json", "--out", "out.csv"]) == 0
    # one eigendecomposition per record, for the loader's check, and one per atom, for its traces
    assert sum(matrices) == records + atoms


# ------------------------------------------- log zeta: distinct columns, grouped phases, bincount

def cat_table(a, roof, rep, n_max=20):
    from ruellebf.flat_zeta import atom_table
    from ruellebf.orbits import HyperbolicToralModel, enumerate_prime_orbits

    model = HyperbolicToralModel(((a[0], a[1]), (a[2], a[3])), roof, rep)
    return atom_table(enumerate_prime_orbits(model, n_max), 1, n_max * roof)


def assert_log_zeta_matches_the_reference(table, lambdas):
    from atom_reference import reference_log_zeta

    for got, want in zip(table.log_zeta(lambdas), reference_log_zeta(table, lambdas)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


CAT_LAMBDAS = [3.0, 2.5 + 1.0j, 2.0 - 7.5j, 1.9, 5.0 + 0.3j, -0.5 + 2.0j, 0.0, 40.0, -30.0 + 1.0j]


@pytest.mark.parametrize("a, roof", [([2, 1, 1, 1], 1.0), ([3, 1, 2, 1], 0.7)])
@pytest.mark.parametrize("twist", ["trivial", "character"])
def test_cat_map_log_zeta_matches_the_reference_bit_for_bit(a, roof, twist):
    from ruellebf.orbits import Representation

    rep = Representation("trivial") if twist == "trivial" else Representation("character", 0.7)
    table = cat_table(a, roof, rep)
    columns = np.column_stack([table.weights * table.euler[:, None], table.euler, table.sign * table.euler]).T
    # det A = 1 and every sign +1: k = 0 repeats k = 2 and the assembly the Euler sum, bit for bit
    assert columns[0].tobytes() == columns[2].tobytes() and columns[3].tobytes() == columns[4].tobytes()
    assert columns[0].tobytes() != columns[1].tobytes()
    assert_log_zeta_matches_the_reference(table, CAT_LAMBDAS)


def test_columns_that_differ_only_in_the_sign_of_a_zero_stay_apart():
    from ruellebf.flat_zeta import AtomTable

    # with euler = -1 - 0.0j, a weight 1 + 0.0j gives the column -1 - 0.0j and 1 - 0.0j gives -1 + 0.0j
    t = np.array([0.5, 0.5, 1.0, 1.5, 2.0, 2.5])
    euler = np.full(t.size, complex(-1.0, -0.0))
    weights = np.array([[complex(1.0, 0.0), 0.5, complex(1.0, -0.0)]] * t.size)
    weights[::2, 1] = complex(-0.0, 0.0)
    group_times, group = np.unique(t, return_inverse=True)
    table = AtomTable(1, t, euler, weights, np.ones(t.size), group, group_times, 0.5)
    columns = np.column_stack([table.weights * table.euler[:, None], table.euler, table.sign * table.euler]).T
    assert np.array_equal(columns[0], columns[2]) and columns[0].tobytes() != columns[2].tobytes()
    assert_log_zeta_matches_the_reference(table, [3.0, 1.0 + 2.0j, -0.0, complex(0.0, -0.0), -1.0 - 1.0j])


def test_grid_sizes_and_blocks_match_the_reference(monkeypatch):
    from ruellebf import flat_zeta
    from ruellebf.orbits import Representation

    table = cat_table([3, 1, 2, 1], 0.7, Representation("character", 0.7))
    rng = np.random.default_rng(23)
    lambdas = rng.uniform(-1.0, 6.0, 40) + 1j * rng.uniform(-8.0, 8.0, 40)
    for size in range(1, 41):
        assert_log_zeta_matches_the_reference(table, lambdas[:size])
    # three distinct columns: blocks of 4 lambdas, the last one short
    monkeypatch.setattr(flat_zeta, "LOG_ZETA_BLOCK", 4 * 3 * table.t.size + 2)
    blocks = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda bins, weights, size: blocks.append(size) or bincount(bins, weights, size))
    assert_log_zeta_matches_the_reference(table, lambdas[:39])
    assert blocks == [4 * 3 * table.group_times.size] * 9 + [3 * 3 * table.group_times.size]


def test_the_euler_tail_is_inf_off_region_and_the_assembly_tail_it_shares_stays_finite():
    from ruellebf.flat_zeta import atom_table

    # det(I - P) = -0.5 < 0 at m = 1: every sign +1, so the assembly column repeats the Euler column;
    # its six terms fall as e^{-lambda t} / j, fast enough near Re lambda = 0 for a finite fitted tail
    orbit = PrimeOrbit(length=0.5, poincare=np.diag([2.0, 0.5]), rho=np.array([[np.exp(0.3j)]]))
    table = atom_table([orbit], 1, 3.0)
    assert (table.sign == 1.0).all() and table.t.size == 6
    lambdas = [0.0, -0.0, -0.2 + 0.5j, -0.0 - 2.0j, 0.3, 1.0]
    assert_log_zeta_matches_the_reference(table, lambdas)
    values, tails = table.log_zeta(lambdas)
    assert values[:, 3].tobytes() == values[:, 4].tobytes()
    assert np.isinf(tails[:4, 3]).all() and np.isfinite(tails[:, 4]).all()
    assert tails[4:, 3].tobytes() == tails[4:, 4].tobytes()
