"""Independent references for every output row of the benchmark workloads.

Each factory returns check(text) -> one reason per op, "" when the op's rows
agree with the reference. References never call ruellebf: cat maps use the
closed form log det(I - chi e^{-lambda r} wedge^k A), CSV spectra and matrix
models use the eigenvalues the generator built in (triangular maps).
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

# Rounding floor for values the program computes in float64 from the same
# atoms or matrices; relative to the size of the terms summed.
FLOOR = 1e-12
# Looser floor for routes that go through LU determinants or repeated solves.
LINALG_FLOOR = 1e-10


@dataclass(frozen=True)
class SpectrumClass:
    length: float
    P: np.ndarray
    rho: complex
    multiplicity: int = 1

    @property
    def mu(self) -> np.ndarray:
        return np.diag(self.P)


def parse_csv(text: str):
    """(columns, data rows as dicts of strings) of a CLI CSV output; meta lines are skipped."""
    body = [line for line in text.splitlines() if not line.startswith("# ")]
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    if not rows:
        raise ValueError("empty output")
    return rows[0], [dict(zip(rows[0], r)) for r in rows[1:]]


def _c(row, stem) -> complex:
    return complex(float(row[stem + "_re"]), float(row[stem + "_im"]))


def _grid_checker(n_ops, rows_per_op, check_op):
    """Split rows into per-op groups and run check_op(index, rows) on each."""
    def check(text):
        try:
            _, rows = parse_csv(text)
        except ValueError as exc:
            return [f"unparseable output: {exc}"] * n_ops
        if len(rows) != n_ops * rows_per_op:
            return [f"{len(rows)} rows, expected {n_ops * rows_per_op}"] * n_ops
        out = []
        for i in range(n_ops):
            try:
                out.append(check_op(i, rows[i * rows_per_op:(i + 1) * rows_per_op]))
            except (KeyError, ValueError) as exc:
                out.append(f"malformed row: {exc!r}")
        return out
    return check


def _same_point(row, lam, re="re_lambda", im="im_lambda") -> bool:
    return float(row[re]) == lam.real and float(row[im]) == lam.imag


def _catmap_eigen(a):
    tr, det = a[0] + a[3], a[0] * a[3] - a[1] * a[2]
    disc = cmath.sqrt(tr * tr - 4 * det)
    return [(tr + disc) / 2, (tr - disc) / 2], det


def catmap_log_zeta(a, roof, theta, lam) -> dict[int, complex]:
    """Closed-form log zeta_k, k = 0, 1, 2, and the Euler sum (k = -1), m = 1."""
    mu, det = _catmap_eigen(a)
    z = cmath.exp(1j * theta - lam * roof)
    out = {0: cmath.log(1 - z), 1: cmath.log(1 - z * mu[0]) + cmath.log(1 - z * mu[1]),
           2: cmath.log(1 - z * det)}
    out[-1] = -(out[0] - out[1] + out[2])
    return out


def catmap_truncation(a, roof, lam, n_max) -> float:
    """Bound on the dropped periods N > n_max of the Euler sum: sum |z|^N (|mu|^N + |mu|^-N + 2) / N."""
    mu = max(abs(x) for x in _catmap_eigen(a)[0])
    q = math.exp(-lam.real * roof)
    if q * mu >= 1:
        return math.inf
    total = 0.0
    for base in (q * mu, q / mu, q, q):
        total += base ** (n_max + 1) / ((n_max + 1) * (1 - base))
    return total


def catmap_zeta(a, roof, theta, l_max, grid):
    """Each row k within its own tail_bound plus FLOOR of the closed form; defect within FLOOR."""
    def check_op(i, rows):
        lam = complex(grid[i])
        ref = catmap_log_zeta(a, roof, theta, lam)
        for row, k in zip(rows, (0, 1, 2, -1)):
            if not _same_point(row, lam) or int(row["k"]) != k or float(row["L_max"]) != l_max:
                return f"row for lambda {lam} k {k} is mislabelled"
            value = complex(float(row["re_logzeta"]), float(row["im_logzeta"]))
            err = abs(value - ref[k])
            tol = float(row["tail_bound"]) + FLOOR * (1 + abs(ref[k]))
            if not err <= tol:
                return f"k={k}: |error| {err:.3e} > tail_bound + floor {tol:.3e}"
        if not float(rows[0]["defect"]) <= FLOOR * (1 + abs(ref[-1])):
            return f"defect {rows[0]['defect']} above floor"
        return ""
    return _grid_checker(len(grid), 4, check_op)


def catmap_bridge(a, roof, theta, n_max, lambda0, grid):
    """det and orbit routes against exp(-(E(lambda0 + hbar) - E(lambda0))), E the closed Euler sum."""
    e0 = catmap_log_zeta(a, roof, theta, lambda0)[-1]
    t0 = catmap_truncation(a, roof, complex(lambda0), n_max)

    def check_op(i, rows):
        hbar = complex(grid[i])
        lam1 = lambda0 + hbar
        ref = cmath.exp(-(catmap_log_zeta(a, roof, theta, lam1)[-1] - e0))
        trunc = t0 + catmap_truncation(a, roof, lam1, n_max)
        tol = abs(ref) * (math.expm1(trunc) + FLOOR)
        for row, route in zip(rows, ("det", "orbit")):
            if row["route"] != route or not _same_point(row, hbar, "hbar_re", "hbar_im"):
                return f"row for hbar {hbar} route {route} is mislabelled"
            err = abs(_c(row, "closed_form") - ref)
            if not err <= tol:
                return f"{route}: |error| {err:.3e} > {tol:.3e}"
        return ""
    return _grid_checker(len(grid), 2, check_op)


def _spectrum_terms(classes, l_max, lam):
    """Per-degree atom terms and the Euler terms, from the classes' eigenvalues."""
    terms = {k: [] for k in range(-1, 5)}
    for c in classes:
        j = 1
        while j * c.length <= l_max * (1 + 1e-12):
            mu_j = c.mu ** j
            e = np.poly(mu_j)  # coefficients of prod (x - mu): e_k up to sign
            euler = -c.multiplicity * c.rho ** j * cmath.exp(-lam * j * c.length) / j
            denom = abs(float(np.prod(1 - mu_j)))
            terms[-1].append(euler)
            for k in range(5):
                terms[k].append(euler * (-1) ** k * e[k] / denom)
            j += 1
    return terms


def spectrum_zeta(classes, l_max, grid):
    """k = 0..4 and Euler rows against sum -mult rho^j e^{-lambda t} / j * e_k(mu^j) / |prod(1 - mu^j)|."""
    def check_op(i, rows):
        lam = complex(grid[i])
        terms = _spectrum_terms(classes, l_max, lam)
        for row, k in zip(rows, (0, 1, 2, 3, 4, -1)):
            if not _same_point(row, lam) or int(row["k"]) != k:
                return f"row for lambda {lam} k {k} is mislabelled"
            ref = complex(sum(terms[k]))
            scale = 1 + sum(abs(t) for t in terms[k])
            err = abs(complex(float(row["re_logzeta"]), float(row["im_logzeta"])) - ref)
            if not err <= FLOOR * scale:
                return f"k={k}: |error| {err:.3e} > {FLOOR * scale:.3e}"
        if not float(rows[0]["defect"]) <= FLOOR * (1 + sum(abs(t) for t in terms[-1])):
            return f"defect {rows[0]['defect']} above floor"
        return ""
    return _grid_checker(len(grid), 6, check_op)


def spectrum_orbits(classes):
    """One row per class, by ascending length, with summed multiplicity, tr P, det P and rho."""
    expected = sorted(classes, key=lambda c: c.length)

    def check(text):
        try:
            _, rows = parse_csv(text)
        except ValueError as exc:
            return [f"unparseable output: {exc}"]
        if len(rows) != len(expected):
            return [f"{len(rows)} classes, expected {len(expected)}"]
        for row, c in zip(rows, expected):
            tr, det = float(np.sum(c.mu)), float(np.prod(c.mu))
            if (float(row["length"]) != c.length or int(row["multiplicity"]) != c.multiplicity
                    or int(row["m"]) != 2 or int(row["period"]) != -1
                    or complex(float(row["rho_re"]), float(row["rho_im"])) != c.rho
                    or not abs(float(row["trace_P"]) - tr) <= FLOOR * abs(tr)
                    or not abs(float(row["det_P"]) - det) <= LINALG_FLOOR * abs(det)):
                return [f"class at length {c.length!r} differs: {row}"]
        return [""]
    return check


def _log_ratio(blocks, hbar) -> complex:
    return sum((-1) ** k * complex(np.sum(np.log1p(hbar / np.diag(b)))) for k, b in enumerate(blocks))


def matrix_bridge(blocks, k_order, grid):
    """Closed form against the eigenvalue product; the K-term loop series within its envelope.

    Envelope: |closed| (exp(B) - 1), B = sum over eigenvalues of r^{K+1} / ((K+1)(1-r)), r = |hbar / mu|.
    """
    mus = np.concatenate([np.diag(b) for b in blocks])

    def check_op(i, rows):
        hbar = complex(grid[i])
        (row,) = rows
        if row["route"] != "det" or row["flag"] != "" or not _same_point(row, hbar, "hbar_re", "hbar_im"):
            return f"row for hbar {hbar} is mislabelled or flagged {row['flag']!r}"
        ref = cmath.exp(_log_ratio(blocks, hbar))
        closed = _c(row, "closed_form")
        if not abs(closed - ref) <= LINALG_FLOOR * abs(ref):
            return f"closed form off by {abs(closed - ref):.3e}"
        r = np.abs(hbar / mus)
        envelope = abs(ref) * (math.expm1(float(np.sum(r ** (k_order + 1) / ((k_order + 1) * (1 - r)))))
                               + LINALG_FLOOR)
        defect = float(row["defect"])
        if not (defect <= envelope and abs(_c(row, "series_value") - ref) <= envelope):
            return f"series defect {defect:.3e} outside envelope {envelope:.3e}"
        return ""
    return _grid_checker(len(grid), 1, check_op)


def matrix_partition(blocks, grid):
    """|det(L + hbar)| against the product of |mu + hbar| over the diagonal."""
    mus = np.concatenate([np.diag(b) for b in blocks])

    def check_op(i, rows):
        hbar = complex(grid[i])
        (row,) = rows
        if not _same_point(row, hbar, "hbar_re", "hbar_im") or row["resonance_hit"] != "false":
            return f"row for hbar {hbar} is mislabelled or flags a resonance"
        ref = math.exp(float(np.sum(np.log(np.abs(mus + hbar)))))
        err = abs(float(row["partition"]) - ref)
        return "" if err <= LINALG_FLOOR * ref else f"partition off by {err:.3e} (relative {err / ref:.3e})"
    return _grid_checker(len(grid), 1, check_op)


def matrix_diagrams(blocks, k_order, lambda0, external=1.0):
    """Chain and cycle rows: graph counts, |Aut|, and the chain and loop coefficients.

    Chain of order N: (-1)^{N-1} i B^T (L + lambda0)^{-(N-1)} A, by triangular solves.
    Cycle of order N: (-1)^N / N sum_k (-1)^{k+1} sum_i (mu_ki + lambda0)^{-N}, at hbar power N + 1.
    """
    n = sum(b.shape[0] for b in blocks)
    shifted = np.zeros((n, n))
    at = 0
    for b in blocks:
        shifted[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
    shifted += lambda0 * np.eye(n)
    vec = np.full(n, external)
    chain, vecs = [], vec
    for order in range(1, k_order + 1):
        chain.append(((-1) ** (order - 1) * 1j * float(vec @ vecs), abs(vec) @ np.abs(vecs)))
        vecs = solve_triangular(shifted, vecs)
    cycle = {}
    for order in range(2, k_order + 1):
        terms = [(-1) ** (k + 1) * (np.diag(b) + lambda0) ** (-order) for k, b in enumerate(blocks)]
        flat = np.concatenate(terms)
        cycle[order] = ((-1) ** order / order * float(np.sum(flat)), float(np.sum(np.abs(flat))) / order)
    expected = []
    for order in range(1, k_order + 1):
        expected.append(("chain", order, order - 1, 2, 2, order, chain[order - 1]))
        if order > 1:
            expected.append(("cycle", order, order, 0, 2 * order, order + 1, cycle[order]))

    def check(text):
        try:
            _, rows = parse_csv(text)
        except ValueError as exc:
            return [f"unparseable output: {exc}"]
        if len(rows) != len(expected):
            return [f"{len(rows)} diagrams, expected {len(expected)}"]
        for row, (kind, order, edges, tails, aut, power, (ref, scale)) in zip(rows, expected):
            shape = (row["kind"], int(row["order"]), int(row["n_vertices"]), int(row["n_edges"]),
                     int(row["n_tails"]), int(row["aut_order"]), int(row["hbar_power"]))
            if shape != (kind, order, order, edges, tails, aut, power):
                return [f"diagram row {shape} differs from {(kind, order, order, edges, tails, aut, power)}"]
            err = abs(complex(float(row["coeff_re"]), float(row["coeff_im"])) - ref)
            if not err <= LINALG_FLOOR * scale:
                return [f"{kind} order {order} coefficient off by {err:.3e}"]
        return [""]
    return check
