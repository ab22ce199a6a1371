"""Property: any small JSON config, including non-finite and wrong-typed
values, makes every command exit with a documented code and no traceback."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ruellebf.cli import COMMANDS, main  # noqa: E402

SPECTRA = {
    "valid.csv": "length,multiplicity,m,P_entries,rho_re,rho_im\n1.0,1,1,2;0;0;0.5,1,0\n1.5,2,1,3;1;0;0.4,0,1\n",
    "nan-length.csv": "length,multiplicity,m,P_entries,rho_re,rho_im\nnan,1,1,2;0;0;0.5,1,0\n",
    "inf-entry.csv": "length,multiplicity,m,P_entries,rho_re,rho_im\n1.0,1,1,inf;0;0;0.5,1,0\n",
    "bad-header.csv": "length,m\n1.0,1\n",
}

junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just({}), st.just([]))
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
number = st.one_of(st.integers(-3, 6), st.floats(-4.0, 8.0), non_finite)
value = st.one_of(number, junk)
complex_entry = st.one_of(value, st.lists(value, min_size=2, max_size=2))


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 3))
    entry = st.one_of(st.floats(-3.0, 5.0), st.integers(-2, 4), non_finite, junk) if draw(st.booleans()) \
        else st.floats(0.5, 5.0)
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@st.composite
def models(draw):
    kind = draw(st.sampled_from(["catmap", "matrix", "spectrum_file", "junk"]))
    if kind == "catmap":
        return {"catmap": {"A": draw(st.lists(st.one_of(st.integers(-3, 3), value), min_size=3, max_size=5)),
                           "roof": draw(st.one_of(st.floats(0.5, 2.0), value))}}
    if kind == "matrix":
        body = {"d": draw(matrices())}
        if draw(st.booleans()):
            body["iota"] = draw(matrices())
        if draw(st.booleans()):
            body["graded_split"] = draw(st.lists(st.lists(st.one_of(st.integers(0, 3), value), max_size=3),
                                                 max_size=3))
        return {"matrix": body}
    if kind == "spectrum_file":
        return {"spectrum_file": draw(st.sampled_from([*SPECTRA, "missing.csv"]))}
    return draw(junk)


@st.composite
def configs(draw):
    cfg = {"model": draw(models())}
    optional = {
        "rep": st.one_of(st.just({"trivial": True}), st.fixed_dictionaries({"character": value}), junk),
        "truncation": st.one_of(st.fixed_dictionaries({}, optional={
            "n_max": st.one_of(st.integers(1, 6), value),
            "L_max": st.one_of(st.floats(0.5, 8.0), value),
            "K": st.one_of(st.integers(1, 4), value),
        }), junk),
        "grid": st.one_of(st.lists(complex_entry, max_size=3), junk),
        "lambda0": complex_entry,
        "external": st.one_of(st.fixed_dictionaries({}, optional={
            "A": st.lists(complex_entry, max_size=3), "B": st.lists(complex_entry, max_size=3)}), junk),
    }
    for key, strategy in optional.items():
        if draw(st.booleans()):
            cfg[key] = draw(strategy)
    return cfg


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in SPECTRA.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        yield Path(tmp)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(sorted(COMMANDS)), cfg=configs())
def test_any_config_exits_with_a_documented_code(workdir, command, cfg):
    if isinstance(cfg["model"], dict) and "spectrum_file" in cfg["model"]:
        cfg["model"]["spectrum_file"] = str(workdir / cfg["model"]["spectrum_file"])
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path), "--out", str(workdir / "out.csv")])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


BRIDGE_MODELS = {
    "catmap": ({"catmap": {"A": [2, 1, 1, 1], "roof": 1.0}}, 2),
    "matrix": ({"matrix": {"d": [[2.0, 0.0], [0.0, 3.0]], "graded_split": [[0, 1], [1, 1]]}}, 1),
}
finite = st.one_of(st.floats(-4.0, 4.0), st.floats(-1e300, 1e300), st.sampled_from([40.0, -6.0, 1e155, 1e200]))
hbar_points = st.lists(finite, min_size=2, max_size=2)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(sorted(BRIDGE_MODELS)), point=hbar_points,
       others=st.lists(hbar_points, max_size=4), at=st.integers(0, 4))
def test_bridge_point_rows_do_not_depend_on_the_grid(workdir, kind, point, others, at):
    model, rows_per_point = BRIDGE_MODELS[kind]
    at = min(at, len(others))

    def bridge_lines(grid):
        path = workdir / "bridge.json"
        cfg = {"model": model, "rep": {"character": 0.7}, "truncation": {"n_max": 5, "L_max": 5.0}, "grid": grid}
        path.write_text(json.dumps(cfg), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["bridge", "--config", str(path), "--out", str(workdir / "bridge.csv")]) == 0
        assert err.getvalue() == ""
        return (workdir / "bridge.csv").read_text(encoding="utf-8").splitlines()

    alone = bridge_lines([point])
    inside = bridge_lines(others[:at] + [point] + others[at:])
    assert inside[0] == alone[0]
    assert inside[1 + at * rows_per_point:1 + (at + 1) * rows_per_point] == alone[1:]
