"""Command-line front end.

One JSON config document drives every run; see README for the schema. Its
number arrays (grids, lambda0, matrices, external vectors) are validated in one
pass each; only a failing array is walked, to name its first bad entry at the
same path as an entry-by-entry check. Every command builds its table as
columns, a dict from column name to cells, and writes it from them, never
from per-row dicts: a CSV table by one format template per table, floats in
locale-independent scientific notation with 17 significant digits, and JSON
row objects zipped from the columns. A meta value keeps to its one comment
line (a carriage return or newline in it is written as \\r or \\n). JSON floats
are Python's shortest repr; both formats spell non-finite values inf, -inf and
nan (strings in JSON). Grid points are emitted in input order, and identical
configs produce byte-identical output files. An orbit-model grid is evaluated
in one pass over one atom table, and a matrix-model grid reads one loop
series. The partition command reads the block spectra for the whole grid in
one pass, its gauge cross-check from one operator spectrum per model. The
diagrams table writes the chain and cycle of each order from their
closed forms and builds no graph.

Exit codes: 0 success, 1 config error (a usage error on the command line, a
run out of memory, or a standard output that cannot be written, by --help too),
2 model invalid, 3 numerical non-convergence; EXIT_CODES maps every library
error to one of them.

A command imports only what it runs: bf_engine with a matrix model or the
bridge and partition commands, hashlib for a matrix model_id. run()
is the process entry point: it freezes the import-time heap out of the
collector (gc.freeze) and exits with main's code; main(argv) has no
process-wide effect.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import itertools
import json
import math
import os
import sys
import types

import numpy as np

from . import flat_zeta, graded_core, orbits as orbits_mod

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MODEL = 2
EXIT_NONCONVERGENT = 3


class ConfigError(ValueError):
    def __init__(self, path, message):
        super().__init__(f"config error at {path}: {message}")
        self.path = path


class ModelError(ValueError):
    pass


def _require(cond, path, message):
    if not cond:
        raise ConfigError(path, message)


def _finite(value) -> bool:
    """A JSON number that converts to a finite float (json.load accepts NaN and Infinity).

    Type tests are exact, here and for integer fields: bool subclasses int, but true is not a number.
    """
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _load_config(path):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read config file {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigError("<file>", f"config file is not UTF-8: {exc}")
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested past the recursion limit
        raise ConfigError("<file>", f"invalid JSON: {exc}")
    _require(isinstance(cfg, dict), "<root>", "config must be a JSON object")
    return cfg


def _parse_rep(cfg) -> orbits_mod.Representation:
    rep = cfg.get("rep", {"trivial": True})
    _require(isinstance(rep, dict) and len(rep) == 1, "rep", "need {'trivial': true} or {'character': theta}")
    if "trivial" in rep:
        _require(rep["trivial"] is True, "rep.trivial", "must be true")
        return orbits_mod.Representation("trivial")
    if "character" in rep:
        theta = rep["character"]
        _require(_finite(theta), "rep.character", "angle must be a finite number")
        return orbits_mod.Representation("character", float(theta))
    raise ConfigError("rep", f"unknown representation {list(rep)[0]!r}")


def _parse_truncation(cfg):
    trunc = cfg.get("truncation", {})
    _require(isinstance(trunc, dict), "truncation", "must be an object")
    n_max = trunc.get("n_max", 8)
    l_max = trunc.get("L_max", 12.0)
    k_ord = trunc.get("K", 8)
    for name, value in (("n_max", n_max), ("K", k_ord)):
        _require(type(value) is int and value > 0, f"truncation.{name}", "must be a positive integer")
    _require(_finite(l_max) and l_max > 0, "truncation.L_max", "must be positive and finite")
    return int(n_max), float(l_max), int(k_ord)


def _finite_floats(values) -> np.ndarray | None:
    """A list of JSON numbers as one float array, or None unless each is an int or float that
    converts to a finite float, as _finite tests one: one exact type test, one conversion, which
    raises OverflowError for an int past the float range, and one isfinite check."""
    if not set(map(type, values)) <= {int, float}:
        return None
    try:
        array = np.array(values, dtype=float)
    except OverflowError:
        return None
    return array if np.isfinite(array).all() else None


def _complex_array(entries, path) -> np.ndarray:
    """A list of finite numbers and [re, im] pairs of them as one complex array, each value
    complex(entry) or complex(re, im) bit for bit: its real and imaginary parts are assembled apart.

    Validated in one pass; only when that fails are the entries walked, and the ConfigError names
    the first bad one at path.format(index) ("grid[{}]" gives grid[i]; "lambda0" stays as it is).
    """
    pairs = [entry if isinstance(entry, list) else (entry, 0.0) for entry in entries]
    values = _finite_floats(list(itertools.chain.from_iterable(pairs))) if set(map(len, pairs)) <= {2} else None
    if values is None:
        bad = next(i for i, pair in enumerate(pairs) if len(pair) != 2 or _finite_floats(pair) is None)
        raise ConfigError(path.format(bad), "must be a finite number or an [re, im] pair of them")
    array = np.empty(len(pairs), dtype=complex)
    array.real, array.imag = values[0::2], values[1::2]
    return array


def _parse_complex(entry, path) -> complex:
    return complex(_complex_array([entry], path)[0])


def _parse_grid(cfg):
    grid = cfg.get("grid", [])
    _require(isinstance(grid, list), "grid", "must be a list")
    return _complex_array(grid, "grid[{}]").tolist()


def _parse_matrix(value, path) -> np.ndarray:
    """A non-empty square matrix (list of rows) of finite real numbers, validated in one pass."""
    square = isinstance(value, list) and value and all(isinstance(row, list) for row in value) \
        and set(map(len, value)) == {len(value)}
    entries = _finite_floats(list(itertools.chain.from_iterable(value))) if square else None
    _require(entries is not None, path, "must be a square matrix (list of rows) of finite numbers")
    return entries.reshape(len(value), len(value)).astype(complex)


def _parse_external(cfg, n):
    """The diagrams command's external A and B vectors (default all ones)."""
    ext = cfg.get("external", {})
    _require(isinstance(ext, dict), "external", "must be an object")
    vecs = {name: ext.get(name, [1.0] * n) for name in ("A", "B")}
    for name, vec in vecs.items():
        _require(isinstance(vec, list) and len(vec) == n, f"external.{name}", f"must be a list of {n} numbers")
    return [_complex_array(vec, f"external.{name}[{{}}]") for name, vec in vecs.items()]


def _parse_model(cfg, rep):
    model = cfg.get("model")
    _require(isinstance(model, dict) and len(model) == 1, "model",
             "exactly one of catmap | spectrum_file | matrix required")
    kind = next(iter(model))
    body = model[kind]
    if kind == "catmap":
        _require(isinstance(body, dict), "model.catmap", "must be an object")
        a = body.get("A")
        _require(isinstance(a, list) and len(a) == 4 and all(type(x) is int for x in a),
                 "model.catmap.A", "need 4 integers (row major)")
        roof = body.get("roof", 1.0)
        _require(_finite(roof) and roof > 0, "model.catmap.roof", "must be positive and finite")
        try:
            toral = orbits_mod.HyperbolicToralModel(((a[0], a[1]), (a[2], a[3])), float(roof), rep)
        except ValueError as exc:
            raise ModelError(str(exc))
        return "catmap", toral
    if kind == "spectrum_file":
        _require(isinstance(body, str), "model.spectrum_file", "must be a path string")
        return "spectrum", body
    if kind == "matrix":
        from . import bf_engine

        _require(isinstance(body, dict), "model.matrix", "must be an object")
        d = _parse_matrix(body.get("d"), "model.matrix.d")
        iota = body.get("iota")
        iota = None if iota is None else _parse_matrix(iota, "model.matrix.iota")
        split = body.get("graded_split")
        try:
            cx = graded_core.ToyBFComplex(d, iota)
            if split is not None:
                _require(isinstance(split, list), "model.matrix.graded_split",
                         "must be a list of [degree, size] pairs")
                for pair in split:
                    _require(isinstance(pair, list) and len(pair) == 2 and all(type(x) is int for x in pair)
                             and pair[1] >= 0, "model.matrix.graded_split", "entries are [degree, size >= 0] integers")
                _require(sum(size for _, size in split) == cx.n, "model.matrix.graded_split",
                         "sizes must sum to the dimension")
            bf = bf_engine.MatrixBFModel(cx, split)
        except ConfigError:
            raise
        except ValueError as exc:  # SingularBlockError included
            raise ModelError(str(exc))
        return "matrix", bf
    raise ConfigError("model", f"unknown model source {kind!r}")


def _orbit_data(kind, model, n_max, l_max):
    """(orbits, m, model_id, reach), reach the L_max an orbit sum reads: a cat map's census ends at
    period n_max, so its atoms stop at n_max * roof, and the census walks only the periods within
    reach, at least period 1, whose orbit is the shortest. Raises ModelError for invalid dynamics,
    and ConfigError when reach stops short of the shortest orbit."""
    if kind == "catmap":
        reach = min(l_max, n_max * model.roof)
        limit, periods = reach * flat_zeta.REACH_FACTOR, n_max  # limit: the reach test of flat_zeta.atom_table
        # past the float range the full census runs, and reports the first orbit length that is inf
        if math.isfinite(n_max * model.roof * flat_zeta.REACH_FACTOR):
            periods = min(n_max, int(limit // model.roof) + 1)
            while periods > 1 and periods * model.roof > limit:
                periods -= 1
        try:
            orbs = orbits_mod.enumerate_prime_orbits(model, periods)
        except ValueError as exc:  # not Anosov, or an orbit length past the float range
            raise ModelError(str(exc))
        a, rep = model.A, model.rep
        rep_tag = "trivial" if rep.kind == "trivial" else f"character{rep.character_angle!r}"
        model_id = f"catmap[{a[0][0]},{a[0][1]},{a[1][0]},{a[1][1]}]|roof={model.roof!r}|{rep_tag}"
        m = 1
    elif kind == "spectrum":
        try:
            orbs = orbits_mod.load_length_spectrum(model)
        except OSError as exc:
            raise ConfigError("model.spectrum_file", f"cannot read {model}: {exc.strerror}")
        m = orbs[0].m if orbs else 1
        model_id, reach = f"spectrum:{model}", l_max
    else:
        raise ConfigError("model", "this command needs an orbit model (catmap or spectrum_file)")
    shortest = min((o.length for o in orbs), default=0.0)
    _require(shortest <= reach * flat_zeta.REACH_FACTOR, "truncation.L_max",
             f"{l_max!r} is shorter than the shortest orbit, of length {shortest!r}")
    return orbs, m, model_id, reach


def _matrix_model_id(bf) -> str:
    """A hash of L0 and of the (degree, size) of each nonempty block; the unsplit default, one
    degree-0 block, adds nothing to the hash, so unsplit models keep the id of an L0-only hash."""
    import hashlib

    digest = hashlib.sha256(np.ascontiguousarray(bf.complex.L0).tobytes())
    blocks = [(degree, size) for degree, size in bf.graded_split if size]
    if blocks != [(0, bf.complex.n)]:
        digest.update(repr(blocks).encode())
    return f"matrix:{digest.hexdigest()[:12]}"


def _emit(table, fmt, out_path, meta=None):
    """Serialize a table, a dict of equal-length columns in output order, deterministically; CSV
    appends meta as comment lines, and JSON forms its row objects from the columns."""
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(table)
        buf.write(_csv_body(table))
        for key, value in (meta or {}).items():
            # one line per key: a newline in a value (a spectrum path, say) would start a data row
            text = f"{_format_cell(value)}".replace("\r", "\\r").replace("\n", "\\n")
            buf.write(f"# {key}: {text}\n")
        payload = buf.getvalue()
    else:
        def cell(value):  # JSON has no non-finite numbers: those cells carry the CSV spelling
            return _format_cell(value) if isinstance(value, float) and not math.isfinite(value) else value
        cells = [list(map(cell, column)) for column in table.values()]
        doc = {"rows": [dict(zip(table, row)) for row in zip(*cells)]}
        if meta:
            doc["meta"] = {key: cell(value) for key, value in meta.items()}
        payload = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write(payload, out_path)


def _write(payload, out_path):
    """payload to the file out_path, else to standard output and flushed; a failed write raises ConfigError."""
    if not out_path and sys.stdout is None:  # the process started with its standard output closed
        raise ConfigError("--out", "cannot write standard output: it is closed")
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
            sys.stdout.flush()  # a full disk shows here, not at exit
    except OSError as exc:
        raise ConfigError("--out", f"cannot write {out_path or 'standard output'}: {exc.strerror}")


def _csv_body(table) -> str:
    """The data lines of a CSV table of columns, written by one % template per table.

    A column of exact floats takes %.16e, the call format(value, ".16e") makes, and a column of
    exact ints %s. Any other column goes cell by cell through _format_cell (a column of str needs
    no call), and csv.writer quotes each distinct text once; a field alone on its row is quoted
    when empty, as csv.writer quotes it.
    """
    columns, specs = list(table.values()), []
    for i, column in enumerate(columns):
        kinds = set(map(type, column))
        if kinds == {float} or kinds == {int}:
            specs.append("%.16e" if float in kinds else "%s")
            continue
        texts = column if kinds == {str} else [f"{_format_cell(value)}" for value in column]
        distinct = list(dict.fromkeys(texts))
        lines = []  # csv.writer makes one write per row
        writer = csv.writer(types.SimpleNamespace(write=lines.append), lineterminator="\n")
        writer.writerows((text,) if len(columns) == 1 else (text, "") for text in distinct)
        cut = -1 if len(columns) == 1 else -2  # the line ends "\n" or ",\n"
        quoted = {text: line[:cut] for text, line in zip(distinct, lines)}
        columns[i] = list(map(quoted.__getitem__, texts))
        specs.append("%s")
    template = ",".join(specs) + "\n"
    return (template * len(columns[0])) % tuple(itertools.chain.from_iterable(zip(*columns)))


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".16e")  # non-finite values read inf, -inf and nan
    return value


def cmd_orbits(cfg, fmt, out_path):
    rep = _parse_rep(cfg)
    n_max, _, _ = _parse_truncation(cfg)
    kind, model = _parse_model(cfg, rep)
    orbs, m, model_id, _ = _orbit_data(kind, model, n_max, math.inf)  # this command sums no atoms
    # the maps of the float route share one stacked trace and one stacked determinant; the object stack
    # of Python ints reads tr P = e_1 and det P = e_2m off the exact kernel of atom_table, one
    # characteristic polynomial per distinct map
    (floating, maps), (exact, ints) = flat_zeta._float_route(orbs, 2 * m)
    trace_p, det_p = np.zeros(len(orbs)), np.zeros(len(orbs))
    trace_p[floating] = np.trace(maps, axis1=1, axis2=2)
    det_p[floating] = np.linalg.det(maps)
    e, _ = flat_zeta._exact_traces(ints)
    trace_p[exact], det_p[exact] = e[:, 1], e[:, -1]
    rho = np.array([orbit.rho[0, 0] for orbit in orbs], dtype=complex)
    table = {"period": [-1 if orbit.period is None else orbit.period for orbit in orbs],
             "length": [orbit.length for orbit in orbs], "multiplicity": [orbit.multiplicity for orbit in orbs],
             "m": [orbit.m for orbit in orbs], "trace_P": trace_p.tolist(), "det_P": det_p.tolist(),
             "rho_re": rho.real.tolist(), "rho_im": rho.imag.tolist()}
    meta = {"model_id": model_id}
    if kind == "catmap":
        # each period d adds its d * multiplicity fixed points to every multiple of d
        fixed = [0] * (n_max + 1)
        for orbit in orbs:
            for n in range(orbit.period, n_max + 1, orbit.period):
                fixed[n] += orbit.period * orbit.multiplicity
        # independently of the census: |det(A^n - I)| = |delta^n - t_n + 1|, t_n = tr A^n by its recurrence
        (a, b), (c, d) = model.A
        tau, delta = a + d, a * d - b * c
        traces = [2, tau]
        for n in range(2, n_max + 1):
            traces.append(tau * traces[-1] - delta * traces[-2])
        meta["sieve_consistent"] = all(fixed[n] == abs(delta ** n - traces[n] + 1) for n in range(1, n_max + 1))
    _emit(table, fmt, out_path, meta)
    return EXIT_OK


def cmd_zeta(cfg, fmt, out_path):
    rep = _parse_rep(cfg)
    n_max, l_max, _ = _parse_truncation(cfg)
    kind, model = _parse_model(cfg, rep)
    orbs, m, model_id, reach = _orbit_data(kind, model, n_max, l_max)
    grid = _parse_grid(cfg)
    _require(bool(grid), "grid", "a non-empty lambda grid is required")
    table = flat_zeta.zeta_grid_rows(orbs, m, grid, reach)
    # the Euler row, k = -1, closes each lambda's 2m + 2 rows
    if orbs and all(map(math.isinf, table["tail_bound"][2 * m + 1::2 * m + 2])):
        sys.stderr.write("all grid points diverge (every tail bound is infinite)\n")
        return EXIT_NONCONVERGENT
    _emit(table, fmt, out_path, {"model_id": model_id})
    return EXIT_OK


def cmd_bridge(cfg, fmt, out_path):
    from . import bf_engine

    rep = _parse_rep(cfg)
    n_max, l_max, k_ord = _parse_truncation(cfg)
    kind, model = _parse_model(cfg, rep)
    grid = _parse_grid(cfg)
    _require(bool(grid), "grid", "a non-empty hbar grid is required")
    # an orbit model's truncated sums need a base point inside their convergence region; a matrix model's do not
    lambda0 = _parse_complex(cfg.get("lambda0", 0.0 if kind == "matrix" else 3.0), "lambda0")
    if kind == "matrix":
        model_id, bridge = _matrix_model_id(model), bf_engine.expectation_grid(model, grid, k_ord, lambda0)
    else:
        orbs, m, model_id, reach = _orbit_data(kind, model, n_max, l_max)
        bridge = bf_engine.zeta_expectation_bridge_grid(orbs, m, grid, reach, lambda0, k_ord)
    points = len(bridge.hbars)
    hbar_re, hbar_im = [h.real for h in bridge.hbars], [h.imag for h in bridge.hbars]
    flags = ["radius_violation" if diverges else "" for diverges in bridge.diverges]
    series_re = [None if s is None else s.real for s in bridge.series]
    series_im = [None if s is None else s.imag for s in bridge.series]
    tables = [{"model_id": [model_id] * points, "hbar_re": hbar_re, "hbar_im": hbar_im, "K": [k_ord] * points,
               "route": [route] * points, "flag": flags, "series_value_re": series_re, "series_value_im": series_im,
               "closed_form_re": [v.real for v in values], "closed_form_im": [v.imag for v in values],
               "defect": bridge.defects(route)} for route, values in bridge.routes.items()]
    # one row per (point, route), point-major: the routes' tables interleave row by row
    _emit({name: list(itertools.chain.from_iterable(zip(*(table[name] for table in tables)))) for name in tables[0]},
          fmt, out_path)
    return EXIT_OK


def cmd_partition(cfg, fmt, out_path):
    from . import bf_engine

    rep = _parse_rep(cfg)
    kind, model = _parse_model(cfg, rep)
    _require(kind == "matrix", "model", "the partition command needs a matrix model")
    grid = _parse_grid(cfg)
    _require(bool(grid), "grid", "a non-empty hbar grid is required")
    hbars = np.array(grid)
    values = bf_engine.partition_grid(model, hbars).tolist()
    # a resonance is a zero of det(L + hbar): hbar within 1e-9 (relative) of some -mu
    mu = np.concatenate([spectrum for _, spectrum in model.spectra])
    tol = 1e-9 * max(1.0, float(np.max(np.abs(mu))))
    hit = (model.min_spectrum_abs(hbars) < tol).tolist()
    _emit({"hbar_re": hbars.real.tolist(), "hbar_im": hbars.imag.tolist(), "partition": values, "resonance_hit": hit},
          fmt, out_path, {"model_id": _matrix_model_id(model)})
    return EXIT_OK


def cmd_diagrams(cfg, fmt, out_path):
    rep = _parse_rep(cfg)
    n_max, _, k_ord = _parse_truncation(cfg)
    kind, model = _parse_model(cfg, rep)
    if kind != "matrix":  # an orbit model is read and validated, with no L_max: this command sums no atoms
        _orbit_data(kind, model, n_max, math.inf)
    lambda0 = _parse_complex(cfg.get("lambda0", 0.0), "lambda0")
    gi = gt = None
    if kind == "matrix":
        from . import bf_engine

        a_vec, b_vec = _parse_external(cfg, model.complex.n)
        prop = bf_engine.regularized_propagator(model, 0.0, math.inf, lambda0)
        gi = bf_engine.gamma_int(model, prop, a_vec, b_vec, k_ord)
        gt = bf_engine.gamma_tr(model, lambda0, k_ord + 1)
    rows = []  # one tuple per row, transposed into the table's columns
    for order in range(1, k_ord + 1):
        # the connected graphs of bivalent vertices: the chain, whose unlabelled ends swap, and from
        # order 2 the cycle, with its dihedral symmetry and one more hbar for its loop
        shapes = (("chain", order - 1, 2, 2, order, gi), ("cycle", order, 0, 2 * order, order + 1, gt))
        for shape, n_edges, n_tails, aut_order, power, series in shapes[:min(order, 2)]:
            c = series[power] if series is not None and power < len(series) else None
            rows.append((order, shape, order, n_edges, n_tails, aut_order, power,
                         math.nan if c is None else c.real, math.nan if c is None else c.imag))
    columns = ["order", "kind", "n_vertices", "n_edges", "n_tails", "aut_order",
               "hbar_power", "coeff_re", "coeff_im"]
    _emit(dict(zip(columns, map(list, zip(*rows)))), fmt, out_path)
    return EXIT_OK


COMMANDS = {
    "orbits": cmd_orbits,
    "zeta": cmd_zeta,
    "bridge": cmd_bridge,
    "diagrams": cmd_diagrams,
    "partition": cmd_partition,
}


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse passes over a failed write; the help is refused as a table is
        _write(self.format_help(), None)

    def error(self, message):  # a usage error is a config error: exit 1 and one stderr line, not argparse's exit 2
        raise ConfigError("<command line>", message)


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing leaves it as it was."""
    parser = _Parser(
        prog="ruelle-bf",
        description="Ruelle zeta functions from orbit sums and BF-type diagram series",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument("--format", default="csv", choices=["csv", "json"])
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and ignored: every grid is evaluated in one pass")
    return parser


# error class -> (exit code, stderr prefix); the first match wins, so subclasses precede their
# bases. ArithmeticError covers IRDivergenceError and the partition_grid cross-check; LinAlgError
# is a LAPACK routine that did not converge; MemoryError a table that a truncation (n_max, K) or
# an input makes too large to allocate.
EXIT_CODES = (
    (ConfigError, EXIT_CONFIG, ""),
    (MemoryError, EXIT_CONFIG, "out of memory: "),
    (ModelError, EXIT_MODEL, "model invalid: "),
    (orbits_mod.SpectrumFormatError, EXIT_MODEL, "model invalid: "),
    (flat_zeta.NonTransverseOrbitError, EXIT_MODEL, "model invalid: "),
    (graded_core.SingularBlockError, EXIT_MODEL, "model invalid: "),
    (ArithmeticError, EXIT_NONCONVERGENT, "non-convergent: "),
    (np.linalg.LinAlgError, EXIT_NONCONVERGENT, "non-convergent: "),
)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _load_config(args.config)
        return COMMANDS[args.command](cfg, args.format, args.out)
    except tuple(cls for cls, _, _ in EXIT_CODES) as exc:
        code, prefix = next((code, prefix) for cls, code, prefix in EXIT_CODES if isinstance(exc, cls))
        detail = exc
        if not isinstance(exc, (ConfigError, ModelError)):  # a bare MemoryError has no message
            detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        sys.stderr.write(f"{prefix}{detail}\n")
        return code


def run():
    """The process entry point (`ruelle-bf`, `python -m ruellebf.cli`): main() on sys.argv, then exit.

    The objects the imports made live until exit, so they leave the collector's generations first:
    no collection walks them again, the ones at exit included.
    """
    gc.freeze()
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:
        # main reported the failed write; what it left buffered would fail the exit flush again, so the
        # descriptor goes to devnull, as the signal module's note on SIGPIPE does it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    run()
