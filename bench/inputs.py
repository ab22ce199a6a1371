"""Seeded workload inputs for the ruelle-bf benchmark.

Each workload is a list of CLI invocations. An invocation carries its JSON
config, the files that config names, how its output rows split into ops, an
oracle that checks every op, and which ops are known defects of the program.
Inputs depend only on the seed; the program sees only the files written here.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

# Workload name -> the one-line reason it is in the benchmark.
WHY = {
    "catmap-orbit": "cat-map zeta and orbit bridge: per-lambda atom rebuilds in flat_zeta dominate; "
                    "the only workload where the --threads 2 pool overlaps pure-Python work",
    "spectrum-csv": "4000-row m=2 length spectrum: the O(rows x classes) loader merge and 4x4 float "
                    "minors per atom, single-threaded",
    "matrix-bf": "64-dim graded matrix model: graded_core, the matrix half of bf_engine and feynman; "
                 "never touches orbits or flat_zeta",
}

NEAR_EDGE_RE = 2.66


@dataclass(frozen=True)
class Invocation:
    """One `ruelle-bf <command>` run.

    rows_per_op > 0: each grid point is one op owning that many output rows.
    rows_per_op == 0: the whole invocation is one op.
    known_defect: why every op of this invocation fails at the seed ("" if none).
    known_ops: grid indexes known to fail their oracle at the seed.
    known_exit: a known failure of the whole invocation that only some seeds
    trigger, matched against the exit status and last stderr line.
    """

    name: str
    command: str
    config: dict
    check: Callable[[str], list[str]]
    threads: int = 1
    rows_per_op: int = 0
    known_defect: str = ""
    known_ops: frozenset = field(default_factory=frozenset)
    known_exit: str = ""

    @property
    def n_ops(self) -> int:
        return len(self.config["grid"]) if self.rows_per_op else 1

    @property
    def n_points(self) -> int:
        return len(self.config.get("grid", []))

    def cut_to_first_point(self) -> "Invocation":
        if len(self.config.get("grid", [])) <= 1:
            return self
        config = copy.deepcopy(self.config)
        config["grid"] = config["grid"][:1]
        return Invocation(self.name, self.command, config, self.check, self.threads, self.rows_per_op)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]

    @property
    def n_points(self) -> int:
        return sum(inv.n_points for inv in self.invocations)


def _pairs(values) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in values]


def lambda_grid(n: int = 100) -> np.ndarray:
    """Re 2.0 -> 2.98 and Im 0 -> 9.9 in n equal steps (n = 100 gives those ends)."""
    i = np.arange(n)
    return (2.0 + 0.98 * i / 99) + 1j * (0.1 * i)


def hbar_spiral(n: int, radius: float) -> np.ndarray:
    """n points spiralling out to |hbar| = radius, golden-angle spaced."""
    i = np.arange(n)
    return radius * (i + 1) / n * np.exp(2j * math.pi * 0.6180339887498949 * i)


def sunflower(n: int, radius: float) -> np.ndarray:
    """n points filling the disc |hbar| <= radius evenly (Vogel's spiral)."""
    i = np.arange(n)
    return radius * np.sqrt((i + 0.5) / n) * np.exp(2j * math.pi * 0.6180339887498949 * i)


def catmap_orbit(seed: int, workdir: Path, size: int = 100, n_max: int = 20) -> Workload:
    """Cat-map workload. Its inputs are fixed: the seed changes nothing here."""
    del seed, workdir
    lam = lambda_grid(size)
    hbar = hbar_spiral(size, 1.5)
    theta = 0.7

    def zeta(name, a, roof, l_max, known_ops=frozenset()):
        cfg = {"model": {"catmap": {"A": a, "roof": roof}}, "rep": {"character": theta},
               "truncation": {"n_max": n_max, "L_max": l_max}, "grid": _pairs(lam)}
        check = oracles.catmap_zeta(a, roof, theta, l_max, lam)
        return Invocation(name, "zeta", cfg, check, threads=2, rows_per_op=4, known_ops=known_ops)

    bridge_cfg = {"model": {"catmap": {"A": [2, 1, 1, 1], "roof": 1.0}}, "rep": {"character": theta},
                  "truncation": {"n_max": n_max, "L_max": float(n_max), "K": 8},
                  "lambda0": 3.0, "grid": _pairs(hbar)}
    near_edge = frozenset(int(i) for i in np.flatnonzero(lam.real <= NEAR_EDGE_RE))
    probe_cfg = {"model": {"catmap": {"A": [2, 1, 1, 1], "roof": 1.0}}, "rep": {"character": theta},
                 "truncation": {"n_max": 30, "L_max": 30.0}, "grid": [[3.0, 0.0]]}
    return Workload("catmap-orbit", WHY["catmap-orbit"], (
        zeta("zeta-2111", [2, 1, 1, 1], 1.0, float(n_max)),
        Invocation("bridge-2111", "bridge", bridge_cfg,
                   oracles.catmap_bridge([2, 1, 1, 1], 1.0, theta, n_max, 3.0, hbar),
                   threads=2, rows_per_op=2),
        # Near the convergence abscissa (~1.88) the heuristic tail_bound
        # under-reports the float error of tr(wedge^2 P^n) (ROADMAP items 2, 4).
        zeta("zeta-3121", [3, 1, 2, 1], 0.7, 0.7 * n_max, known_ops=near_edge),
        Invocation("probe-2111-n30", "zeta", probe_cfg,
                   oracles.catmap_zeta([2, 1, 1, 1], 1.0, theta, 30.0, np.array([3.0 + 0j])),
                   threads=2, rows_per_op=4,
                   known_defect="spurious NonTransverseOrbitError traceback, exit 1 (ROADMAP items 2, 5)"),
    ))


def spectrum_classes(rng, n_classes: int, lo: float, hi: float) -> list[oracles.SpectrumClass]:
    """m = 2 classes: P upper triangular with diagonal e^{l}, e^{-l}, e^{l/2}, e^{-l/2}.

    Lengths have density proportional to e^l on [lo, hi]; the strictly upper
    triangle is a coupling within +-0.05, so the eigenvalues are the diagonal.
    """
    out = []
    for _ in range(n_classes):
        length = math.log(math.exp(lo) + rng.random() * (math.exp(hi) - math.exp(lo)))
        p = np.diag([math.exp(length), math.exp(-length), math.exp(length / 2), math.exp(-length / 2)])
        p[np.triu_indices(4, 1)] = rng.uniform(-0.05, 0.05, 6)
        phase = rng.uniform(0.0, 2 * math.pi)
        out.append(oracles.SpectrumClass(length, p, complex(math.cos(phase), math.sin(phase))))
    return out


def write_spectrum(path: Path, classes, rng, copies: int) -> list[oracles.SpectrumClass]:
    """Write each class as `copies` rows of multiplicity 1, shuffled.

    Returns the classes with their aggregated multiplicity.
    """
    order = rng.permutation(len(classes) * copies)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["length", "multiplicity", "m", "P_entries", "rho_re", "rho_im"])
        for i in order:
            c = classes[i // copies]
            writer.writerow([repr(c.length), 1, 2, ";".join(repr(float(x)) for x in c.P.ravel()),
                             repr(c.rho.real), repr(c.rho.imag)])
    return [oracles.SpectrumClass(c.length, c.P, c.rho, copies) for c in classes]


def spectrum_csv(seed: int, workdir: Path, n_classes: int = 1000, copies: int = 4) -> Workload:
    rng = np.random.default_rng([seed, 2])
    main_csv, probe_csv = workdir / "spectrum.csv", workdir / "spectrum-probe.csv"
    classes = write_spectrum(main_csv, spectrum_classes(rng, n_classes, 0.5, 7.0), rng, copies)
    probe_classes = write_spectrum(probe_csv, spectrum_classes(rng, 20, 5.0, 7.0), rng, 1)
    lam = np.array([3.0, 4.5 + 1.0j, 12.0 - 2.0j, 24.0 + 0.5j])
    base = {"rep": {"trivial": True}, "truncation": {"n_max": 1, "L_max": 8.0}}
    return Workload("spectrum-csv", WHY["spectrum-csv"], (
        Invocation("orbits-csv", "orbits", dict(base, model={"spectrum_file": str(main_csv)}),
                   oracles.spectrum_orbits(classes)),
        # The heuristic tail_bound is infinite wherever the last atom groups lie
        # closer than log(1.1)/Re(lambda); on about 1% of seeds that holds at
        # every point and the CLI exits 3 (ROADMAP item 4).
        Invocation("zeta-csv", "zeta", dict(base, model={"spectrum_file": str(main_csv)}, grid=_pairs(lam)),
                   oracles.spectrum_zeta(classes, 8.0, lam), rows_per_op=6,
                   known_exit="exit 3: all grid points diverge"),
        Invocation("probe-csv-L14", "zeta",
                   {"model": {"spectrum_file": str(probe_csv)}, "rep": {"trivial": True},
                    "truncation": {"n_max": 1, "L_max": 14.0}, "grid": [[3.0, 0.0]]},
                   oracles.spectrum_zeta(probe_classes, 14.0, np.array([3.0 + 0j])), rows_per_op=6,
                   known_defect="NonTransverseOrbitError traceback, exit 1: the 1e-12*max|entry|^d "
                                "threshold trips above atom time ~11.5 (ROADMAP items 2, 5)"),
    ))


def triangular_blocks(rng, lows, width: float, size: int, coupling: float = 0.3) -> list[np.ndarray]:
    """Upper-triangular blocks; block k has its diagonal in [lows[k], lows[k] + width].

    The diagonal is an evenly spaced set in a seeded order, so the spectrum,
    and with it every flagged point, is the same for every seed.
    """
    blocks = []
    for low in lows:
        b = np.triu(rng.uniform(-coupling, coupling, (size, size)), 1)
        b[np.diag_indices(size)] = rng.permutation(np.linspace(low, low + width, size))
        blocks.append(b)
    return blocks


def matrix_config(blocks) -> dict:
    size = blocks[0].shape[0]
    d = np.zeros((size * len(blocks),) * 2)
    for k, b in enumerate(blocks):
        d[k * size:(k + 1) * size, k * size:(k + 1) * size] = b
    return {"matrix": {"d": d.tolist(), "graded_split": [[k, size] for k in range(len(blocks))]}}


def matrix_bf(seed: int, workdir: Path, n_points: int = 1000, size: int = 16, k_order: int = 16) -> Workload:
    """Seeded models on a fixed hbar grid, so the count of flagged points moves little with the seed."""
    del workdir
    rng = np.random.default_rng([seed, 3])
    blocks = triangular_blocks(rng, [3.0 + 0.4 * k for k in range(4)], 0.4, size)
    hbar = sunflower(n_points, 0.9)
    model = matrix_config(blocks)
    probe_blocks = triangular_blocks(rng, [1.0] * 4, 7.0, size)
    grid_cfg = {"model": model, "truncation": {"K": 8}, "grid": _pairs(hbar)}
    # cmd_partition flags a resonance when |det(L + hbar)| < 1e-9 * max|L|^n, a
    # scale test that trips far from any zero once n = 64 (same cause as the probe).
    mus = np.concatenate([np.diag(b) for b in blocks])
    log_det = np.log(np.abs(mus[None, :] + hbar[:, None])).sum(axis=1)
    false_flag = log_det < math.log(1e-9) + len(mus) * math.log(max(1.0, float(np.abs(mus).max())))
    return Workload("matrix-bf", WHY["matrix-bf"], (
        Invocation("bridge-matrix", "bridge", grid_cfg, oracles.matrix_bridge(blocks, 8, hbar), rows_per_op=1),
        Invocation("partition-matrix", "partition", grid_cfg, oracles.matrix_partition(blocks, hbar),
                   rows_per_op=1, known_ops=frozenset(int(i) for i in np.flatnonzero(false_flag))),
        Invocation("diagrams-matrix", "diagrams", {"model": model, "truncation": {"K": k_order}, "lambda0": 0.5},
                   oracles.matrix_diagrams(blocks, k_order, 0.5)),
        Invocation("probe-matrix-wide", "bridge",
                   {"model": matrix_config(probe_blocks), "truncation": {"K": 8}, "grid": [[0.5, 0.0]]},
                   oracles.matrix_bridge(probe_blocks, 8, np.array([0.5 + 0j])), rows_per_op=1,
                   known_defect="false 'zero is a resonance', exit 2: _checked_det compares det "
                                "against max|entry|^n"),
    ))


GENERATORS = {"catmap-orbit": catmap_orbit, "spectrum-csv": spectrum_csv, "matrix-bf": matrix_bf}


def build(name: str, seed: int, workdir: Path, **sizes) -> Workload:
    """Write the workload's input files under workdir and return its invocations.

    sizes overrides the generator's keyword defaults (the tests use tiny ones).
    """
    workdir.mkdir(parents=True, exist_ok=True)
    return GENERATORS[name](seed, workdir, **sizes)


def write_config(inv: Invocation, path: Path) -> None:
    path.write_text(json.dumps(inv.config), encoding="utf-8")
