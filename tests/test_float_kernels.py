"""The float orbit path in stacked numpy calls: pinned output bytes and bit-identical kernels."""

import hashlib
import json
import random

import numpy as np
import pytest

from ruellebf import cli

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
