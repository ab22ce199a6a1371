"""The CLI's two I/O layers against their per-cell and per-entry references (tests/cli_reference.py):
the CSV writer's bytes, and the config validators' values, exit codes, paths and messages."""

import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest

from ruellebf import cli

from cli_reference import (
    reference_parse_complex,
    reference_parse_external,
    reference_parse_grid,
    reference_parse_matrix,
    reference_payload,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def as_table(rows, columns) -> dict:
    """The columns of a table given as row dicts, in the form cli._emit takes it."""
    return {c: [row[c] for row in rows] for c in columns}


def emitted(rows, columns, fmt, meta=None) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(as_table(rows, columns), fmt, None, meta)
    return out.getvalue()


# ------------------------------------------------------------------ the writer

SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308 / 3, 1e308, 1e-5, 0.1]
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
ints = st.one_of(st.integers(-5, 5), st.integers(-10**400, 10**400))
texts = st.text(alphabet=st.sampled_from([",", '"', "\n", "\r", "a", " ", "%", "#", "é"]), max_size=5)
others = st.one_of(st.booleans(), st.none(), floats.map(np.float64), texts)
cells = st.one_of(floats, ints, others)
# each column draws its cells from one kind, the templated ones included, or from all of them mixed
column_kinds = st.sampled_from([floats, ints, texts, st.booleans(), floats.map(np.float64), cells])


@st.composite
def tables(draw):
    columns = draw(st.lists(st.text(alphabet="ab,\" _", min_size=1, max_size=4), min_size=1, max_size=4,
                            unique=True))
    kinds = [draw(column_kinds) for _ in columns]
    rows = [{c: draw(kind) for c, kind in zip(columns, kinds)} for _ in range(draw(st.integers(0, 6)))]
    meta = draw(st.one_of(st.none(), st.dictionaries(st.sampled_from(["model_id", "sieve_consistent", "note"]),
                                                     st.one_of(texts, st.booleans(), floats), max_size=3)))
    return rows, columns, meta


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(table=tables())
def test_emit_writes_the_bytes_of_the_per_cell_writer(table):
    rows, columns, meta = table
    for fmt in ("csv", "json"):
        assert emitted(rows, columns, fmt, meta) == reference_payload(rows, columns, fmt, meta)


@pytest.mark.parametrize("cell", ["", None])
def test_an_empty_field_alone_on_its_row_is_quoted(cell):
    rows = [{"only": cell}, {"only": "x"}, {"only": cell}]
    assert emitted(rows, ["only"], "csv") == reference_payload(rows, ["only"], "csv") == 'only\n""\nx\n""\n'


def test_emit_file_holds_the_payload_bytes(tmp_path):
    rows = [{"id": "catmap[2,1,1,1]|roof=1.0|trivial", "x": -0.0, "n": 10**30, "hit": True, "s": None},
            {"id": 'say "hi"\r\n', "x": math.nan, "n": -3, "hit": False, "s": 1.5}]
    columns = ["id", "x", "n", "hit", "s"]
    meta = {"model_id": "spectrum:a\nb\r.csv"}
    cli._emit(as_table(rows, columns), "csv", str(tmp_path / "out.csv"), meta)
    payload = reference_payload(rows, columns, "csv", meta)
    assert (tmp_path / "out.csv").read_bytes() == payload.encode("utf-8")
    assert payload.splitlines()[1:3] == ['"catmap[2,1,1,1]|roof=1.0|trivial",-0.0000000000000000e+00,'
                                         '1000000000000000000000000000000,true,', '"say ""hi""']


@pytest.mark.parametrize("command", ["zeta", "orbits"])
def test_a_newline_in_the_spectrum_path_stays_inside_its_meta_line(tmp_path, monkeypatch, command):
    # the model_id meta value carries the spectrum path; a raw newline in it used to end the comment
    # line and leave the rest of the path as a data row
    monkeypatch.chdir(tmp_path)
    outputs = {}
    for name in ("plain.csv", "a\nb\rc.csv"):
        (tmp_path / name).write_text("length,multiplicity,m,P_entries,rho_re,rho_im\n1.0,1,1,2;0;0;0.5,1,0\n",
                                     encoding="utf-8")
        cfg = {"model": {"spectrum_file": name}, "truncation": {"L_max": 3.0}, "grid": [3.0]}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main([command, "--config", "cfg.json", "--out", "out.csv"]) == 0
        with open(tmp_path / "out.csv", newline="", encoding="utf-8") as fh:
            outputs[name] = list(csv.reader(fh))
    plain, odd = outputs.values()
    assert plain[-1] == ["# model_id: spectrum:plain.csv"]
    assert odd[-1] == ["# model_id: spectrum:a\\nb\\rc.csv"]
    assert odd[:-1] == plain[:-1] and len(plain) > 2


# ------------------------------------------------------------- the validators

def outcome(parse, *args):
    """("ok", the value's dtype, shape and bytes) or ("error", the ConfigError's path and message)."""
    try:
        value = parse(*args)
    except cli.ConfigError as exc:
        return "error", exc.path, str(exc)
    value = np.asarray(value)
    return "ok", value.dtype, value.shape, value.tobytes()


BAD_NUMBERS = [True, False, "1.0", None, {}, math.nan, math.inf, -math.inf, 10**400, -(10**400)]
COMPLEX_ENTRIES = [
    3, -0.0, 2.5, 2**70, 2**1024 - 2**971 - 1, [1, 2], [-0.0, -0.0], [1e308, -5e-324], [3.0], [1, 2, 3], [],
    *BAD_NUMBERS, *([x, 0.0] for x in BAD_NUMBERS), *([0.0, x] for x in BAD_NUMBERS),
]


@pytest.mark.parametrize("entry", COMPLEX_ENTRIES, ids=repr)
def test_one_complex_entry_as_the_per_entry_validator_reads_it(entry):
    for path in ("lambda0", "external.A[0]"):
        want = outcome(reference_parse_complex, entry, path)
        got = outcome(cli._parse_complex, entry, path)
        assert got == want
        assert got[0] == "error" or type(cli._parse_complex(entry, path)) is complex


GRIDS = [
    [], [3.0], [[3.0, 0.0], 4.0, 5, [-0.0, 1.5]], [4.0, [1.0]], [[1.0, 2.0, 3.0]], [1.0, [2.0, 3.0], True],
    [1.0, 2.0, [3.0, math.nan]], [1.0, "2.0"], [[1, 10**400]], [2.0, [1.0, 2.0], None, math.inf],
    "not a list", {"re": 1.0},
]


@pytest.mark.parametrize("grid", GRIDS, ids=repr)
def test_grid_as_the_per_entry_validator_reads_it(grid):
    want, got = outcome(reference_parse_grid, {"grid": grid}), outcome(cli._parse_grid, {"grid": grid})
    assert got == want
    if got[0] == "ok":
        assert [type(z) for z in cli._parse_grid({"grid": grid})] == [complex] * len(grid)


MATRICES = [
    [[2.0, 0.0], [0.0, 3.0]], [[1, 2**70], [-0.0, 5e-324]], [[7]], [], [[]], [[1.0, 2.0]], [[1.0], [2.0]],
    [[1.0, 2.0], [3.0]], [[1.0, 2.0], 3.0], [1.0, 2.0], "eye", None, [[1.0, True], [0.0, 1.0]],
    [[1.0, 2.0], [3.0, "4"]], [[1.0, math.nan], [0.0, 1.0]], [[1.0, 0.0], [-math.inf, 1.0]],
    [[10**400, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, [1.0]]],
]


@pytest.mark.parametrize("matrix", MATRICES, ids=repr)
def test_matrix_as_the_per_entry_validator_reads_it(matrix):
    for path in ("model.matrix.d", "model.matrix.iota"):
        assert outcome(cli._parse_matrix, matrix, path) == outcome(reference_parse_matrix, matrix, path)


EXTERNALS = [
    {}, {"A": [1, [2.0, -1.0]]}, {"A": [1.0], "B": [1.0, 2.0]}, {"B": [1.0, True]}, {"A": [1.0, math.nan]},
    {"A": [[1.0, 2.0, 3.0], 1.0]}, {"B": [10**400, 1.0]}, {"A": "ones"}, [1.0, 2.0],
]


@pytest.mark.parametrize("external", EXTERNALS, ids=repr)
def test_external_as_the_per_entry_validator_reads_it(external):
    cfg = {"external": external}
    assert outcome(cli._parse_external, cfg, 2) == outcome(reference_parse_external, cfg, 2)


json_numbers = st.one_of(st.integers(-3, 3), st.integers(-10**400, 10**400), st.floats(allow_nan=True))
json_values = st.one_of(json_numbers, st.booleans(), st.none(), st.text(max_size=2))
entries = st.one_of(json_values, st.lists(json_values, max_size=3), st.lists(json_numbers, min_size=2, max_size=2))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(grid=st.lists(entries, max_size=6), matrix=st.lists(st.lists(json_values, max_size=3), max_size=3))
def test_random_grids_and_matrices_as_the_per_entry_validators_read_them(grid, matrix):
    assert outcome(cli._parse_grid, {"grid": grid}) == outcome(reference_parse_grid, {"grid": grid})
    assert outcome(cli._parse_matrix, matrix, "m") == outcome(reference_parse_matrix, matrix, "m")


BASE = {"model": {"matrix": {"d": [[2.0, 0.5], [0.0, 3.0]], "iota": [[1, 0], [0, 1]]}},
        "truncation": {"K": 3}, "grid": [[0.5, 0.0], 0.25], "lambda0": 0.5}


@pytest.mark.parametrize("command, change", [
    ("bridge", {}), ("partition", {}), ("diagrams", {}), ("diagrams", {"external": {"A": [1, [2.0, 1.0]]}}),
    ("bridge", {"grid": [0.5, [0.1, True]]}), ("partition", {"grid": [[0.1, 0.2], [0.3]]}),
    ("partition", {"grid": []}), ("bridge", {"grid": [0.5, 10**400]}),
    ("diagrams", {"lambda0": [0.5, math.nan]}), ("diagrams", {"lambda0": "0.5"}),
    ("diagrams", {"external": {"B": [1.0, 10**400]}}), ("diagrams", {"external": {"A": [1.0, [1.0, 2.0, 3.0]]}}),
    ("partition", {"model": {"matrix": {"d": [[2.0, 0.5], [0.0]]}}}),
    ("partition", {"model": {"matrix": {"d": [[2.0, 0.5], [0.0, 3.0]], "iota": [[1, 0], [0, False]]}}}),
    ("partition", {"model": {"matrix": {"d": []}}}),
    ("partition", {"model": {"matrix": {"d": [[2.0, math.inf], [0.0, 3.0]]}}}),
])
def test_commands_read_configs_as_with_the_per_entry_validators(tmp_path, monkeypatch, command, change):
    (tmp_path / "cfg.json").write_text(json.dumps(dict(BASE, **change)), encoding="utf-8")

    def run():
        err = io.StringIO()
        out = tmp_path / "out.csv"
        out.unlink(missing_ok=True)
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(out)])
        return code, err.getvalue(), out.read_bytes() if out.exists() else None

    got = run()
    for name, reference in [("_parse_complex", reference_parse_complex), ("_parse_grid", reference_parse_grid),
                            ("_parse_matrix", reference_parse_matrix), ("_parse_external", reference_parse_external)]:
        monkeypatch.setattr(cli, name, reference)
    assert got == run()
