import csv
import json
import math
import time
import warnings

import numpy as np
import pytest

from ruellebf.cli import main

from graph_reference import automorphism_order, chain_graph, cycle_graph

CAT_CONFIG = {
    "model": {"catmap": {"A": [2, 1, 1, 1], "roof": 1.0}},
    "rep": {"trivial": True},
    "truncation": {"n_max": 3, "L_max": 12.0, "K": 8},
    "grid": [[3.0, 0.0]],
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    return [dict(zip(header, r)) for r in body]


def test_orbits_command_catmap(tmp_path):
    cfg = write_config(tmp_path, CAT_CONFIG)
    out = tmp_path / "orbits.csv"
    assert main(["orbits", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv_rows(out)
    assert [int(r["period"]) for r in rows] == [1, 2, 3]
    assert [int(r["multiplicity"]) for r in rows] == [1, 2, 5]
    assert "# sieve_consistent: true" in out.read_text()


def test_orbits_command_exact_trace_and_det_of_integer_return_maps(tmp_path):
    # P = A^n for A = [[2,1],[1,1]]: det P = 1 and tr P = L_2n, the Lucas number, at every period
    payload = {"model": {"catmap": {"A": [2, 1, 1, 1]}}, "truncation": {"n_max": 30}}
    out = tmp_path / "orbits.csv"
    assert main(["orbits", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    rows = read_csv_rows(out)
    assert [int(r["period"]) for r in rows] == list(range(1, 31))
    lucas = [2, 1]
    while len(lucas) <= 60:
        lucas.append(lucas[-1] + lucas[-2])
    for r in rows:
        assert float(r["det_P"]) == 1.0
        assert float(r["trace_P"]) == lucas[2 * int(r["period"])]


def test_orbits_command_stays_exact_past_float_range(tmp_path):
    # at periods 39-41 the entries of A^n exceed 2^53: det P is still exactly 1, and tr P is the
    # Lucas number L_2n rounded once, to the nearest float
    payload = {"model": {"catmap": {"A": [2, 1, 1, 1]}}, "truncation": {"n_max": 41}}
    out = tmp_path / "orbits.csv"
    assert main(["orbits", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    rows = read_csv_rows(out)
    assert [int(r["period"]) for r in rows] == list(range(1, 42))
    lucas = [2, 1]
    while len(lucas) <= 82:
        lucas.append(lucas[-1] + lucas[-2])
    for r in rows:
        assert float(r["det_P"]) == 1.0
        assert float(r["trace_P"]) == float(lucas[2 * int(r["period"])])


@pytest.mark.parametrize("fmt, a, last", [("csv", [2, 1, 1, 1], "inf"), ("json", [-2, -1, -1, -1], "-inf")])
def test_orbits_trace_past_the_float_range_reads_inf(tmp_path, capsys, fmt, a, last):
    # tr A^n passes the float range at period 738; tr (-A)^n = (-1)^n tr A^n, so -A reads -inf at 739
    payload = {"model": {"catmap": {"A": a}}, "truncation": {"n_max": 739}}
    code, out, err = _run_quietly(capsys, ["orbits", "--config", write_config(tmp_path, payload), "--format", fmt])
    assert (code, err) == (0, "")
    if fmt == "csv":
        rows = list(csv.DictReader(line for line in out.splitlines() if not line.startswith("#")))
        assert "# sieve_consistent: true" in out
    else:
        doc = _strict_json(out)
        rows = doc["rows"]
        assert doc["meta"]["sieve_consistent"] is True
    trace = {int(r["period"]): r["trace_P"] for r in rows}
    assert math.isfinite(float(trace[737]))
    assert (trace[738], trace[739]) == ("inf", last)
    assert all(float(r["det_P"]) == 1.0 for r in rows)


def test_orbits_command_rotation_exits_2(tmp_path, capsys):
    payload = dict(CAT_CONFIG, model={"catmap": {"A": [0, -1, 1, 0]}})
    cfg = write_config(tmp_path, payload)
    assert main(["orbits", "--config", cfg]) == 2


def test_orbits_command_empty_spectrum(tmp_path):
    spectrum = tmp_path / "spec.csv"
    spectrum.write_text("length,multiplicity,m,P_entries,rho_re,rho_im\n")
    payload = dict(CAT_CONFIG, model={"spectrum_file": str(spectrum)})
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "orbits.csv"
    assert main(["orbits", "--config", cfg, "--out", str(out)]) == 0
    assert read_csv_rows(out) == []


def test_config_error_reports_field_path(tmp_path, capsys):
    payload = dict(CAT_CONFIG, model={"catmap": {"A": [2, 1, 1]}})
    cfg = write_config(tmp_path, payload)
    assert main(["orbits", "--config", cfg]) == 1
    assert "model.catmap.A" in capsys.readouterr().err


def test_config_requires_single_model_source(tmp_path, capsys):
    payload = dict(CAT_CONFIG, model={})
    cfg = write_config(tmp_path, payload)
    assert main(["orbits", "--config", cfg]) == 1
    assert "model" in capsys.readouterr().err


def test_zeta_command_defect_zero_at_shared_truncation(tmp_path):
    cfg = write_config(tmp_path, CAT_CONFIG)
    out = tmp_path / "zeta.csv"
    assert main(["zeta", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv_rows(out)
    assert len(rows) == 4  # k = 0, 1, 2 and the euler row
    assert all(float(r["defect"]) == 0.0 for r in rows)
    ks = sorted(int(r["k"]) for r in rows)
    assert ks == [-1, 0, 1, 2]


def test_zeta_command_tail_monotone_in_re_lambda(tmp_path):
    payload = dict(CAT_CONFIG, grid=[[2.5, 0.0], [3.0, 0.0], [4.0, 0.0]])
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "zeta.csv"
    assert main(["zeta", "--config", cfg, "--out", str(out)]) == 0
    rows = [r for r in read_csv_rows(out) if int(r["k"]) == 0]
    tails = [float(r["tail_bound"]) for r in rows]
    assert tails == sorted(tails, reverse=True)


def test_zeta_command_all_divergent_exits_3(tmp_path, capsys):
    payload = dict(CAT_CONFIG, grid=[[-1.0, 0.0], [-2.0, 0.0]])
    cfg = write_config(tmp_path, payload)
    assert main(["zeta", "--config", cfg]) == 3


def test_bridge_command_orbit_routes(tmp_path):
    payload = dict(CAT_CONFIG, grid=[[0.0, 0.0], [0.5, 0.0]], lambda0=3.0)
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "bridge.json"
    assert main(["bridge", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    rows = doc["rows"]
    assert {r["route"] for r in rows} == {"det", "orbit"}
    zero_rows = [r for r in rows if r["hbar_re"] == 0.0]
    for row in zero_rows:
        assert row["closed_form_re"] == 1.0 and row["closed_form_im"] == 0.0
        assert row["defect"] == 0.0
    half = [r for r in rows if r["hbar_re"] == 0.5 and r["route"] == "det"][0]
    assert half["defect"] < 1e-6


@pytest.mark.parametrize("command", ["zeta", "bridge"])
@pytest.mark.parametrize("model", ["catmap", "spectrum"])
def test_l_max_short_of_the_shortest_orbit_exits_1(tmp_path, capsys, command, model):
    # L_max = 0.5 sums no atom of orbits of length >= 1: a zeta of 0 or a bridge ratio of 1 would be unfounded
    payload = dict(CAT_CONFIG, truncation={"n_max": 8, "L_max": 0.5})
    if model == "spectrum":
        spectrum = tmp_path / "spec.csv"
        spectrum.write_text("length,multiplicity,m,P_entries,rho_re,rho_im\n1.0,1,1,2;0;0;0.5,1,0\n")
        payload["model"] = {"spectrum_file": str(spectrum)}
    assert main([command, "--config", write_config(tmp_path, payload)]) == 1
    _assert_one_line_error(capsys, "config error at truncation.L_max: 0.5 is shorter than the shortest orbit",
                           "length 1.0")


def test_orbits_reads_no_l_max(tmp_path, capsys):
    outputs = []
    for l_max in (0.5, 12.0):
        payload = dict(CAT_CONFIG, truncation={"n_max": 8, "L_max": l_max})
        code, out, err = _run_quietly(capsys, ["orbits", "--config", write_config(tmp_path, payload)])
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert "# sieve_consistent: true" in outputs[0]


@pytest.mark.parametrize("command", ["zeta", "bridge"])
def test_catmap_atoms_stop_where_the_census_ends(tmp_path, capsys, command):
    # the census ends at period n_max = 3, so with roof 1 it holds no atom past 3.0: L_max = 12 reads
    # the same atoms as L_max = 3, and the zeta L_max column prints the length reached
    outputs = []
    for l_max in (12.0, 3.0):
        payload = dict(CAT_CONFIG, truncation={"n_max": 3, "L_max": l_max, "K": 8})
        code, out, err = _run_quietly(capsys, [command, "--config", write_config(tmp_path, payload)])
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_bridge_command_matrix_model(tmp_path):
    payload = {
        "model": {"matrix": {"d": [[2.0, 0.0], [0.0, 3.0]]}},
        "truncation": {"K": 8},
        "grid": [[0.1, 0.0], [5.0, 0.0]],
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "bridge.json"
    assert main(["bridge", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    rows = json.loads(out.read_text())["rows"]
    good = [r for r in rows if r["hbar_re"] == 0.1][0]
    assert good["flag"] == ""
    assert good["closed_form_re"] == pytest.approx(2.1 * 3.1 / 6.0, rel=1e-9)
    assert good["defect"] < 1e-9
    flagged = [r for r in rows if r["hbar_re"] == 5.0][0]
    assert flagged["flag"] == "radius_violation"
    assert flagged["series_value_re"] is None


def test_partition_command(tmp_path):
    payload = {
        "model": {"matrix": {"d": [[2.0, 0.0], [0.0, 3.0]]}},
        "grid": [[0.0, 0.0], [1.0, 0.0], [-2.0, 0.0]],
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "partition.csv"
    assert main(["partition", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv_rows(out)
    values = [float(r["partition"]) for r in rows]
    assert values[0] == pytest.approx(6.0)
    assert values[1] == pytest.approx(12.0)
    assert values[2] == pytest.approx(0.0, abs=1e-9)
    assert [r["resonance_hit"] for r in rows] == ["false", "false", "true"]


def wide_matrix_model(size=16, blocks=4):
    """A 64-dim graded model: triangular blocks whose spectra spread over [1, 8]."""
    rng = np.random.default_rng(7)
    d = np.zeros((size * blocks,) * 2)
    for k in range(blocks):
        block = np.triu(rng.uniform(-0.3, 0.3, (size, size)), 1) + np.diag(rng.permutation(np.linspace(1.0, 8.0, size)))
        d[k * size:(k + 1) * size, k * size:(k + 1) * size] = block
    return {"matrix": {"d": d.tolist(), "graded_split": [[k, size] for k in range(blocks)]}}


def test_partition_flags_no_resonance_far_from_the_spectrum(tmp_path):
    # |det(L + hbar)| is far below 1e-9 * max|L|^64 here, yet no -hbar is near an eigenvalue
    payload = {"model": wide_matrix_model(), "grid": [[0.5, 0.0], [0.0, 0.9], [-0.5, 0.0]]}
    out = tmp_path / "partition.csv"
    assert main(["partition", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    assert [r["resonance_hit"] for r in read_csv_rows(out)] == ["false", "false", "false"]


def test_bridge_on_wide_matrix_model(tmp_path):
    payload = {"model": wide_matrix_model(), "truncation": {"K": 8}, "grid": [[0.5, 0.0]]}
    out = tmp_path / "bridge.csv"
    assert main(["bridge", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    (row,) = read_csv_rows(out)
    assert row["flag"] == "" and float(row["defect"]) < 1e-6


def test_partition_of_a_well_conditioned_model_with_a_large_entry(tmp_path, capsys):
    # max|L0|^64 = 1e384 is beyond the float range; det(L + hbar) ~ 1.2e17 is not
    mu = np.ones(64)
    mu[0] = 1e6
    payload = {"model": {"matrix": {"d": np.diag(mu).tolist()}}, "grid": [[0.5, 0.0]]}
    assert main(["partition", "--config", write_config(tmp_path, payload)]) == 0
    out, err = capsys.readouterr()
    (row,) = list(csv.DictReader(line for line in out.splitlines() if not line.startswith("#")))
    assert float(row["partition"]) == pytest.approx(np.prod(np.abs(mu + 0.5)), rel=1e-10)
    assert err == ""


@pytest.mark.parametrize("split, same_id", [(None, True), ([[0, 0], [0, 2]], True), ([[1, 2]], False)])
def test_matrix_model_id_hashes_the_graded_split(tmp_path, capsys, split, same_id):
    # L0 = diag(2, 3) in one degree-0 block keeps its id; in degree 1 it is another model
    body = {"d": [[2.0, 0.0], [0.0, 3.0]]}
    if split is not None:
        body["graded_split"] = split
    payload = {"model": {"matrix": body}, "grid": [[1.0, 0.0]]}
    assert main(["partition", "--config", write_config(tmp_path, payload)]) == 0
    assert ("# model_id: matrix:30e2eb796b72\n" in capsys.readouterr().out) == same_id


def test_partition_requires_matrix_model(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(CAT_CONFIG, grid=[[0.0, 0.0]]))
    assert main(["partition", "--config", cfg]) == 1


def test_diagrams_command_enumeration(tmp_path):
    """Every row's closed-form graph data matches the reference graph toolkit."""
    matrix = {"model": {"matrix": {"d": [[2.0, 0.0], [0.0, 3.0]]}}, "truncation": {"K": 16}, "lambda0": 0.0}
    catmap = dict(CAT_CONFIG, truncation={"K": 16})
    for name, payload in (("matrix", matrix), ("catmap", catmap)):
        out = tmp_path / f"{name}.csv"
        assert main(["diagrams", "--config", write_config(tmp_path, payload, f"{name}.json"), "--out", str(out)]) == 0
        rows = read_csv_rows(out)
        chains = [r for r in rows if r["kind"] == "chain"]
        cycles = [r for r in rows if r["kind"] == "cycle"]
        assert len(chains) == 16 and len(cycles) == 15  # no cycle listed at order 1
        for r in rows:
            order = int(r["order"])
            graph = chain_graph(order, tail_labels=None) if r["kind"] == "chain" else cycle_graph(order)
            assert int(r["n_vertices"]) == graph.n_vertices
            assert int(r["n_edges"]) == len(graph.edges)
            assert int(r["n_tails"]) == len(graph.tails)
            assert int(r["aut_order"]) == automorphism_order(graph)
        for r in chains:
            assert int(r["aut_order"]) == 2
            assert int(r["hbar_power"]) == int(r["order"])
        for r in cycles:
            assert int(r["aut_order"]) == 2 * int(r["order"])
            assert int(r["hbar_power"]) == int(r["order"]) + 1
        if name == "catmap":  # an orbit model has no matrix series to read coefficients from
            assert {(r["coeff_re"], r["coeff_im"]) for r in rows} == {("nan", "nan")}
    # order-1 chain coefficient is i F(ones, ones) = i * sum of (L^{-1} d)
    first = read_csv_rows(tmp_path / "matrix.csv")[0]
    assert (first["kind"], first["order"]) == ("chain", "1")
    assert float(first["coeff_im"]) == pytest.approx(2.0, rel=1e-12)


def test_outputs_are_deterministic(tmp_path):
    cfg = write_config(tmp_path, dict(CAT_CONFIG, grid=[[2.5, 0.0], [3.0, 0.0]]))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["zeta", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_threads_preserve_grid_order(tmp_path):
    grid = [[lam, 0.0] for lam in (2.5, 3.0, 3.5, 4.0, 5.0)]
    cfg = write_config(tmp_path, dict(CAT_CONFIG, grid=grid))
    single = tmp_path / "single.csv"
    multi = tmp_path / "multi.csv"
    assert main(["zeta", "--config", cfg, "--out", str(single), "--threads", "1"]) == 0
    assert main(["zeta", "--config", cfg, "--out", str(multi), "--threads", "4"]) == 0
    assert single.read_bytes() == multi.read_bytes()


def test_json_format_round_trip(tmp_path):
    cfg = write_config(tmp_path, CAT_CONFIG)
    out = tmp_path / "zeta.json"
    assert main(["zeta", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["model_id"].startswith("catmap[2,1,1,1]")
    assert len(doc["rows"]) == 4


def test_missing_config_file(tmp_path, capsys):
    assert main(["orbits", "--config", str(tmp_path / "nope.json")]) == 1


def _unreadable_file_args(tmp_path, case):
    a_dir = tmp_path / "a_dir"
    a_dir.mkdir()
    latin1 = tmp_path / "latin1"
    if case == "config is a directory":
        return ["--config", str(a_dir)]
    if case == "config not UTF-8":
        latin1.write_bytes(json.dumps(CAT_CONFIG).encode("utf-16"))
        return ["--config", str(latin1)]
    if case == "spectrum is a directory":
        return ["--config", write_config(tmp_path, dict(CAT_CONFIG, model={"spectrum_file": str(a_dir)}))]
    if case == "spectrum not UTF-8":
        latin1.write_bytes(b"length,multiplicity,m,P_entries,rho_re,rho_im\n1.0,1,1,2;0;0;0.5,1,0\n# caf\xe9\n")
        return ["--config", write_config(tmp_path, dict(CAT_CONFIG, model={"spectrum_file": str(latin1)}))]
    if case == "spectrum not UTF-8 past 8 KB":  # past the first chunk of a streaming decoder
        latin1.write_bytes(b"length,multiplicity,m,P_entries,rho_re,rho_im\n" + b"1.0,1,1,2;0;0;0.5,1,0\n" * 400
                           + b"# caf\xe9\n")
        return ["--config", write_config(tmp_path, dict(CAT_CONFIG, model={"spectrum_file": str(latin1)}))]
    return ["--config", write_config(tmp_path, CAT_CONFIG), "--out", str(tmp_path / "no" / "dir" / "x.csv")]


UNREADABLE_FILES = {  # case -> (exit code, stderr fragment)
    "config is a directory": (1, "config error at <file>: cannot read config file"),
    "config not UTF-8": (1, "config error at <file>: config file is not UTF-8"),
    "spectrum is a directory": (1, "config error at model.spectrum_file: cannot read"),
    "spectrum not UTF-8": (2, "model invalid: SpectrumFormatError: file is not UTF-8"),
    "spectrum not UTF-8 past 8 KB": (2, "model invalid: SpectrumFormatError: file is not UTF-8"),
    "out in a missing directory": (1, "config error at --out: cannot write"),
}


@pytest.mark.parametrize("case", UNREADABLE_FILES)
def test_unreadable_files_exit_with_one_line(tmp_path, capsys, case):
    code, fragment = UNREADABLE_FILES[case]
    assert main(["zeta"] + _unreadable_file_args(tmp_path, case)) == code
    _assert_one_line_error(capsys, fragment)


USAGE_ERRORS = {  # argv after the command name -> stderr line
    ("zeta",): "config error at <command line>: the following arguments are required: --config\n",
    ("frob", "--config", "c.json"): "config error at <command line>: argument command: invalid choice: 'frob'",
    ("zeta", "--config", "c.json", "--threads", "x"):
        "config error at <command line>: argument --threads: invalid int value: 'x'\n",
    ("zeta", "--config", "c.json", "--format", "xml"):
        "config error at <command line>: argument --format: invalid choice: 'xml'",
}


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_a_usage_error_exits_1_with_one_line(capsys, argv):
    # argparse alone would exit 2, the code of an invalid model, after a usage block
    assert main(list(argv)) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.endswith("\n")
    assert err.startswith(USAGE_ERRORS[argv])


def test_a_usage_error_of_the_process_exits_1_with_one_line(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    import ruellebf

    env = {"PYTHONPATH": str(Path(ruellebf.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "ruellebf.cli", "zeta"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", USAGE_ERRORS[("zeta",)])


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: ruelle-bf") and err == ""


def test_one_parser_per_process():
    from ruellebf import cli

    assert cli.build_parser() is cli.build_parser()


def test_a_config_with_a_utf8_byte_order_mark_runs_as_without_it(tmp_path, capsys):
    # some editors save JSON with a BOM: the same exit code and bytes as the file without it
    marked = tmp_path / "marked.json"
    marked.write_text(json.dumps(CAT_CONFIG), encoding="utf-8-sig")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    plain = _run_quietly(capsys, ["zeta", "--config", write_config(tmp_path, CAT_CONFIG)])
    assert plain[0] == 0 and plain[1]
    assert _run_quietly(capsys, ["zeta", "--config", str(marked)]) == plain


def test_malformed_spectrum_exits_2(tmp_path, capsys):
    spectrum = tmp_path / "bad.csv"
    spectrum.write_text("length,multiplicity,m,P_entries,rho_re,rho_im\nx,1,1,1;0;0;1,1,0\n")
    payload = dict(CAT_CONFIG, model={"spectrum_file": str(spectrum)})
    cfg = write_config(tmp_path, payload)
    assert main(["orbits", "--config", cfg]) == 2
    assert "line 2" in capsys.readouterr().err


# ------------------------------------------------- one pass per orbit grid

ORBIT_GRID = [[2.0 + 0.98 * i / 99, 0.1 * i] for i in range(100)]
CHARACTER_CONFIG = dict(CAT_CONFIG, rep={"character": 0.7}, truncation={"n_max": 20, "L_max": 20.0, "K": 8})


def _data_lines(path):
    return [line for line in path.read_text().splitlines()[1:] if not line.startswith("#")]


@pytest.mark.parametrize("command, grid, rows_per_point", [
    ("zeta", ORBIT_GRID, 4),
    ("bridge", [[0.015 * (i + 1), 0.01 * i] for i in range(100)], 2),
])
def test_point_alone_matches_point_in_grid(tmp_path, command, grid, rows_per_point):
    cfg = write_config(tmp_path, dict(CHARACTER_CONFIG, grid=grid), "grid.json")
    out = tmp_path / "grid.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    lines = _data_lines(out)
    assert len(lines) == rows_per_point * len(grid)
    for i in (0, 41, 99):
        one_cfg = write_config(tmp_path, dict(CHARACTER_CONFIG, grid=[grid[i]]), f"one{i}.json")
        one = tmp_path / f"one{i}.csv"
        assert main([command, "--config", one_cfg, "--out", str(one)]) == 0
        assert _data_lines(one) == lines[rows_per_point * i:rows_per_point * (i + 1)]


@pytest.mark.parametrize("command", ["zeta", "bridge"])
def test_threads_option_is_accepted_and_changes_nothing(tmp_path, command):
    cfg = write_config(tmp_path, dict(CHARACTER_CONFIG, grid=ORBIT_GRID[:20]))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"{threads}.csv"
        assert main([command, "--config", cfg, "--out", str(out), "--threads", threads]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", ["zeta", "bridge"])
def test_one_atom_table_per_orbit_invocation(tmp_path, monkeypatch, command):
    from ruellebf import flat_zeta

    built = []
    original = flat_zeta.atom_table

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(flat_zeta, "atom_table", counting)
    cfg = write_config(tmp_path, dict(CHARACTER_CONFIG, grid=ORBIT_GRID[:30]))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 0
    assert len(built) == 1


def _count_linalg_calls_from_orbits(monkeypatch):
    """Counts of np.linalg.eigvals, det and matrix_power calls made from ruellebf.orbits or ruellebf.cli."""
    import sys

    calls = {"eigvals": 0, "det": 0, "matrix_power": 0}

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") in ("ruellebf.orbits", "ruellebf.cli"):
                calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    return calls


def test_one_anosov_check_and_no_power_or_det_per_period_in_orbits(tmp_path, monkeypatch):
    # the census checks A once, on its exact trace and determinant, and forms each A^n by one product;
    # per period, an older census ran an Anosov check (eigvals), a binary power twice (matrix_power) and
    # the orbit's own checks (eigvals, det)
    calls = _count_linalg_calls_from_orbits(monkeypatch)
    payload = dict(CAT_CONFIG, truncation={"n_max": 20, "L_max": 20.0})
    assert main(["zeta", "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "out.csv")]) == 0
    assert calls == {"eigvals": 0, "det": 0, "matrix_power": 0}


def test_orbits_sieve_digest_needs_no_anosov_check_or_power_per_period(tmp_path, monkeypatch):
    # the digest reads |det(A^n - I)| off the trace recurrence, not off fixed_point_count per period
    calls = _count_linalg_calls_from_orbits(monkeypatch)
    out = tmp_path / "out.csv"
    payload = dict(CAT_CONFIG, truncation={"n_max": 20})
    assert main(["orbits", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    assert calls["eigvals"] <= 2 and calls["matrix_power"] == 0
    assert out.read_text().splitlines()[-1] == "# sieve_consistent: true"


def test_orbits_of_a_conjugate_cat_map_match_those_of_the_cat_map(tmp_path):
    # an integer conjugate of [2, 1, 1, 1] with entries near 1e18: the same Anosov check, census and traces
    columns = {}
    for a in ([2, 1, 1, 1], [1000000002, -1000000000999999999, 1, -999999999]):
        out = tmp_path / "out.csv"
        payload = dict(CAT_CONFIG, model={"catmap": {"A": a}}, truncation={"n_max": 12})
        assert main(["orbits", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        rows = read_csv_rows(out)
        columns[tuple(a)] = [[row[name] for name in ("period", "multiplicity", "trace_P", "det_P")] for row in rows]
    first, second = columns.values()
    assert len(first) == 12 and first == second


def test_orbits_sieve_digest_flags_a_corrupted_census(tmp_path, monkeypatch):
    from ruellebf import orbits

    census = orbits._census

    def corrupted(model, n_max):  # one orbit too many at period 3
        return [(n, power, count + (n == 3)) for n, power, count in census(model, n_max)]

    monkeypatch.setattr(orbits, "_census", corrupted)
    out = tmp_path / "out.csv"
    payload = dict(CAT_CONFIG, truncation={"n_max": 8})
    assert main(["orbits", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1] == "# sieve_consistent: false"


@pytest.mark.parametrize("command", ["zeta", "bridge"])
def test_catmap_census_stops_at_the_periods_within_l_max(tmp_path, monkeypatch, command):
    from ruellebf import orbits

    walked = []
    census = orbits._census
    monkeypatch.setattr(orbits, "_census", lambda model, n_max: walked.append(n_max) or census(model, n_max))
    outs = []
    for n_max in (12000, 6):
        out = tmp_path / f"{n_max}.csv"
        payload = dict(CHARACTER_CONFIG, truncation={"n_max": n_max, "L_max": 6.0}, grid=ORBIT_GRID[:10])
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert walked == [6, 6]


# ----------------------------------------------------------- exit-code table

def _assert_one_line_error(capsys, *fragments):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    for fragment in fragments:
        assert fragment in err


def test_non_transverse_orbit_exits_2(tmp_path, capsys):
    # the relative threshold 1e-12 * max|entry|^2 trips on the exact
    # |det(I - A^30)| = 3.46e12 of the [2, 1, 1, 1] cat map
    payload = dict(CHARACTER_CONFIG, truncation={"n_max": 30, "L_max": 30.0}, grid=[[3.0, 0.0]])
    cfg = write_config(tmp_path, payload)
    assert main(["zeta", "--config", cfg]) == 2
    _assert_one_line_error(capsys, "model invalid", "NonTransverseOrbitError", "3.461e+12")


def test_singular_block_exits_2(tmp_path, capsys):
    payload = {"model": {"matrix": {"d": [[1.0, 2.0], [2.0, 4.0]]}}, "grid": [[0.5, 0.0]]}
    cfg = write_config(tmp_path, payload)
    assert main(["partition", "--config", cfg]) == 2
    _assert_one_line_error(capsys, "model invalid", "resonance")


def test_partition_cross_check_failure_exits_3(tmp_path, capsys, monkeypatch):
    from ruellebf import graded_core

    build = graded_core.ToyBFComplex.__post_init__

    def corrupting(self):  # a gauge-fixed inverse off by one part in a million
        build(self)
        object.__setattr__(self, "L1_inv", self.L1_inv * (1 + 1e-6))

    monkeypatch.setattr(graded_core.ToyBFComplex, "__post_init__", corrupting)
    payload = {"model": {"matrix": {"d": [[2.0, 0.0], [0.0, 3.0]]}}, "grid": [[0.0, 0.0], [0.5, 0.0]]}
    assert main(["partition", "--config", write_config(tmp_path, payload)]) == 3
    _assert_one_line_error(capsys, "non-convergent: ArithmeticError", "disagree at hbar = (0.5+0j)")


def test_ir_divergence_exits_3(tmp_path, capsys):
    payload = {"model": {"matrix": {"d": [[2.0, 0.0], [0.0, 3.0]]}}, "truncation": {"K": 3}, "lambda0": -5.0}
    cfg = write_config(tmp_path, payload)
    assert main(["diagrams", "--config", cfg]) == 3
    _assert_one_line_error(capsys, "non-convergent", "IRDivergenceError")


@pytest.mark.parametrize("catmap, message", [
    ({"A": [0, -1, 1, 0]}, "not Anosov: an eigenvalue lies on the unit circle"),
    # eigenvalues e^{+-i pi/3}: trace 1 and det 1, which float eigenvalues of entries near 1e8 miss
    ({"A": [100000000, -9999999900000001, 1, -99999999]}, "not Anosov: an eigenvalue lies on the unit circle"),
    ({"A": [2, 1, 1, 1], "roof": 1e308}, "orbit length must be positive and finite"),  # 2 * roof is inf
    ({"A": [2, 0, 0, 2]}, "A must be unimodular, got det = 4"),
], ids=["rotation", "elliptic", "huge-roof", "not-unimodular"])
@pytest.mark.parametrize("command", ["orbits", "zeta", "bridge"])
def test_invalid_catmap_exits_2_with_one_line(tmp_path, capsys, command, catmap, message):
    cfg = write_config(tmp_path, dict(CAT_CONFIG, model={"catmap": catmap}))
    code, out, err = _run_quietly(capsys, [command, "--config", cfg])
    assert (code, out, err) == (2, "", f"model invalid: {message}\n")


def test_matrix_bridge_evaluates_at_lambda0(tmp_path, capsys):
    # det(L + lambda0 + hbar) / det(L + lambda0) on L = diag(2, 3), radius min |mu + lambda0|; a
    # matrix config without the key reads lambda0 = 0
    base = {"model": {"matrix": {"d": [[2.0, 0.0], [0.0, 3.0]]}}, "truncation": {"K": 8}, "grid": [[0.1, 0.0]]}
    outs = {}
    for lambda0 in (None, 0.0, 1.5, -2.0):
        payload = base if lambda0 is None else dict(base, lambda0=lambda0)
        cfg = write_config(tmp_path, payload)
        outs[lambda0] = _run_quietly(capsys, ["bridge", "--config", cfg, "--format", "json"])
    assert outs[None] == outs[0.0]
    code, out, err = outs[1.5]
    assert (code, err) == (0, "")
    (row,) = json.loads(out)["rows"]
    assert complex(row["closed_form_re"], row["closed_form_im"]) == pytest.approx(3.6 * 4.6 / (3.5 * 4.5), rel=1e-14)
    assert row["flag"] == "" and row["defect"] <= (0.1 / 3.5) ** 9
    # a lambda0 on the spectrum of -L
    assert outs[-2.0] == (3, "", "non-convergent: IRDivergenceError: IR divergence: degree-0 block + lambda has a "
                                 "zero eigenvalue\n")


@pytest.mark.parametrize("command, payload", [
    ("orbits", {"model": {"catmap": {"A": [2, 1, 1, 1]}}, "truncation": {"n_max": 10**15}}),
    ("diagrams", {"model": {"catmap": {"A": [2, 1, 1, 1]}}, "truncation": {"n_max": 10**15}}),
    ("bridge", dict(CAT_CONFIG, truncation={"n_max": 3, "L_max": 3.0, "K": 10**15}, grid=[0.1])),
    ("bridge", {"model": {"matrix": {"d": [[2.0, 0.0], [0.0, 3.0]]}}, "truncation": {"K": 10**15}, "grid": [0.1]}),
    ("diagrams", {"model": {"matrix": {"d": [[2.0, 0.0], [0.0, 3.0]]}}, "truncation": {"K": 10**15}}),
], ids=["orbits-n_max", "diagrams-n_max", "bridge-catmap-K", "bridge-matrix-K", "diagrams-matrix-K"])
def test_a_truncation_too_large_to_allocate_exits_1_with_one_line(tmp_path, command, payload):
    # the census sieve of n_max + 1 counts, the K + 1 series coefficients and the K loop-trace rows are
    # Python lists: asking for 10**15 of them fails at once, before any memory is touched or any trace
    # formed; in a process of its own, so that a run that starts computing fails at the timeout, not hangs
    import subprocess
    import sys
    from pathlib import Path

    import ruellebf

    env = {"PYTHONPATH": str(Path(ruellebf.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "ruellebf.cli", command, "--config", write_config(tmp_path, payload)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "out of memory: MemoryError\n")


def test_a_multiplicity_near_the_float_limit_runs_with_an_empty_stderr(tmp_path):
    # mult = 10**308 fits a float, but its Euler weight times tr P = 3 does not: the k = 1 column reads inf
    # and nan, as any value past the float range does, and no numpy warning reaches stderr
    import subprocess
    import sys
    from pathlib import Path

    import ruellebf

    row = f"2.0,{10 ** 308},1,2;1;1;1,1.0,0.0"
    (tmp_path / "s.csv").write_text(f"length,multiplicity,m,P_entries,rho_re,rho_im\n{row}\n")
    cfg = write_config(tmp_path, {"model": {"spectrum_file": "s.csv"}, "truncation": {"L_max": 4.0}, "grid": [3.0]})
    env = {"PYTHONPATH": str(Path(ruellebf.__file__).resolve().parent.parent)}
    for command in ("zeta", "bridge"):
        proc = subprocess.run([sys.executable, "-m", "ruellebf.cli", command, "--config", cfg], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "nan" in proc.stdout


def test_a_real_series_at_a_real_hbar_keeps_a_positive_zero_imaginary_part(tmp_path):
    # the loop series starts at its order-0 zero, so each Horner step ends in + c and the last in + 0j: at a
    # negative hbar a step that ended in a product would leave -0.0
    payload = {"model": {"matrix": {"d": [[2, 0, 0], [0, 3, 0], [0, 0, 5]], "graded_split": [[0, 1], [1, 2]]}},
               "truncation": {"K": 8}, "grid": [-0.5]}
    out = tmp_path / "bridge.csv"
    assert main(["bridge", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    (row,) = read_csv_rows(out)
    assert (row["series_value_re"], row["series_value_im"]) == ("1.0000005342605478e+00", "0.0000000000000000e+00")


def test_acyclic_matrix_bridge_needs_no_damping(tmp_path):
    # spectrum +-0.7i: not damped, but mu != 0, so the loop series exists with Taylor radius 0.7
    payload = {"model": {"matrix": {"d": [[0.0, -0.7], [0.7, 0.0]]}}, "truncation": {"K": 8},
               "grid": [[0.1, 0.0], [0.2, 0.1], [0.0, 0.3]]}
    out = tmp_path / "bridge.json"
    assert main(["bridge", "--config", write_config(tmp_path, payload), "--out", str(out), "--format", "json"]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 3
    for row in rows:
        hbar = complex(row["hbar_re"], row["hbar_im"])
        assert row["flag"] == ""
        assert complex(row["closed_form_re"], row["closed_form_im"]) == pytest.approx(1 + hbar ** 2 / 0.49, rel=1e-12)
        assert row["defect"] <= (abs(hbar) / 0.7) ** 9


def test_bridge_reads_a_real_lambda0_and_its_pair_alike(tmp_path, capsys):
    outs = []
    for lambda0 in (3.0, [3.0, 0.0]):
        payload = dict(CHARACTER_CONFIG, grid=[[0.1, 0.0], [0.5, 0.2]], lambda0=lambda0)
        code, out, err = _run_quietly(capsys, ["bridge", "--config", write_config(tmp_path, payload)])
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("module, attr, error, code", [
    ("flat_zeta", "zeta_grid_rows", "NonTransverseOrbitError", 2),
    ("flat_zeta", "zeta_grid_rows", "SingularBlockError", 2),
    ("flat_zeta", "zeta_grid_rows", "ConvergenceError", 3),
    ("flat_zeta", "zeta_grid_rows", "IRDivergenceError", 3),
    ("bf_engine", "partition_grid", "ArithmeticError", 3),
    ("flat_zeta", "zeta_grid_rows", "LinAlgError", 3),
])
def test_every_library_error_maps_to_its_exit_code(tmp_path, capsys, monkeypatch, module, attr, error, code):
    import builtins

    from ruellebf import bf_engine, feynman, flat_zeta, graded_core

    modules = {"flat_zeta": flat_zeta, "bf_engine": bf_engine}
    classes = {
        "NonTransverseOrbitError": flat_zeta.NonTransverseOrbitError,
        "SingularBlockError": graded_core.SingularBlockError,
        "ConvergenceError": feynman.ConvergenceError,
        "IRDivergenceError": bf_engine.IRDivergenceError,
        "ArithmeticError": builtins.ArithmeticError,
        "LinAlgError": np.linalg.LinAlgError,
    }

    def raising(*args, **kwargs):
        raise classes[error]("injected")

    monkeypatch.setattr(modules[module], attr, raising)
    if module == "bf_engine":
        payload, command = {"model": {"matrix": {"d": [[2.0, 0.0], [0.0, 3.0]]}}, "grid": [[0.5, 0.0]]}, "partition"
    else:
        payload, command = CAT_CONFIG, "zeta"
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg]) == code
    _assert_one_line_error(capsys, error, "injected")


@pytest.mark.parametrize("field, value, path", [
    ("lambda0", "abc", "lambda0"),
    ("lambda0", [1.0], "lambda0"),
    ("external", "ones", "external"),
    ("external", {"A": [1.0]}, "external.A"),
    ("external", {"B": [1.0, "x"]}, "external.B[1]"),
    ("lambda0", [0.5, math.inf], "lambda0"),
    ("external", {"A": [1.0, math.nan]}, "external.A[1]"),
])
def test_diagrams_validates_lambda0_and_external(tmp_path, capsys, field, value, path):
    payload = {"model": {"matrix": {"d": [[2.0, 0.0], [0.0, 3.0]]}}, "truncation": {"K": 2}, field: value}
    cfg = write_config(tmp_path, payload)
    assert main(["diagrams", "--config", cfg]) == 1
    _assert_one_line_error(capsys, f"config error at {path}")


def test_malformed_graded_split_is_a_config_error(tmp_path, capsys):
    payload = {"model": {"matrix": {"d": [[2.0, 0.0], [0.0, 3.0]], "graded_split": "x"}}, "grid": [[0.5, 0.0]]}
    cfg = write_config(tmp_path, payload)
    assert main(["partition", "--config", cfg]) == 1
    _assert_one_line_error(capsys, "config error at model.matrix.graded_split")


def test_diagrams_accepts_complex_lambda0_and_external(tmp_path):
    payload = {"model": {"matrix": {"d": [[2.0, 0.0], [0.0, 3.0]]}}, "truncation": {"K": 2},
               "lambda0": [0.5, 0.1], "external": {"A": [1.0, [0.0, 1.0]], "B": [2.0, 1.0]}}
    cfg = write_config(tmp_path, payload)
    assert main(["diagrams", "--config", cfg, "--out", str(tmp_path / "d.csv")]) == 0


def test_mixed_m_spectrum_exits_2(tmp_path, capsys):
    spectrum = tmp_path / "mixed.csv"
    spectrum.write_text(
        "length,multiplicity,m,P_entries,rho_re,rho_im\n"
        "1.0,1,1,2;0;0;0.5,1,0\n"
        "2.0,1,2,2;0;0;0;0;0.5;0;0;0;0;3;0;0;0;0;0.25,1,0\n"
    )
    cfg = write_config(tmp_path, dict(CAT_CONFIG, model={"spectrum_file": str(spectrum)}))
    assert main(["zeta", "--config", cfg]) == 2
    _assert_one_line_error(capsys, "model invalid", "mixes")


@pytest.mark.parametrize("prefix", ["scipy", "ruellebf.feynman"])
def test_cli_import_leaves_scipy_unloaded(prefix):
    import subprocess
    import sys
    from pathlib import Path

    import ruellebf

    code = f"import sys, ruellebf.cli; print(sorted(m for m in sys.modules if (m + '.').startswith('{prefix}.')))"
    env = {"PYTHONPATH": str(Path(ruellebf.__file__).resolve().parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


# ------------------------------------------------------- non-finite inputs

@pytest.mark.parametrize("command, change, path", [
    ("zeta", {"truncation": {"L_max": math.inf}}, "truncation.L_max"),
    ("zeta", {"truncation": {"L_max": math.nan}}, "truncation.L_max"),
    ("zeta", {"grid": [[3.0, math.nan]]}, "grid[0]"),
    ("zeta", {"grid": [3.0, -math.inf]}, "grid[1]"),
    ("zeta", {"model": {"catmap": {"A": [2, 1, 1, 1], "roof": math.inf}}}, "model.catmap.roof"),
    ("zeta", {"rep": {"character": math.nan}}, "rep.character"),
    ("bridge", {"lambda0": math.nan}, "lambda0"),
    ("partition", {"model": {"matrix": {"d": [[2.0, 0.0], [0.0, math.inf]]}}}, "model.matrix.d"),
])
def test_non_finite_config_values_exit_1(tmp_path, capsys, command, change, path):
    # json.dumps writes NaN and Infinity, and json.load reads them back
    cfg = write_config(tmp_path, dict(CAT_CONFIG, **change))
    started = time.perf_counter()
    assert main([command, "--config", cfg]) == 1
    assert time.perf_counter() - started < 1.0
    _assert_one_line_error(capsys, f"config error at {path}", "finite")


@pytest.mark.parametrize("row", ["nan,1,1,2;0;0;0.5,1,0", "1.0,1,1,2;0;0;0.5,inf,0", "1.0,1,1,2;0;0;0.5,1,nan",
                                 "1.0,1,1,2;0;0;inf,1,0"])
def test_non_finite_spectrum_row_exits_2_with_its_line(tmp_path, capsys, row):
    spectrum = tmp_path / "nonfinite.csv"
    spectrum.write_text("length,multiplicity,m,P_entries,rho_re,rho_im\n1.0,1,1,2;0;0;0.5,1,0\n" + row + "\n")
    cfg = write_config(tmp_path, dict(CAT_CONFIG, model={"spectrum_file": str(spectrum)}))
    assert main(["zeta", "--config", cfg]) == 2
    _assert_one_line_error(capsys, "model invalid", "line 3", "finite")


# ------------------------------------------------------- boolean inputs

MATRIX_CONFIG = {"model": {"matrix": {"d": [[2.0, 0.0], [0.0, 3.0]], "graded_split": [[0, 1], [1, 1]]}},
                 "truncation": {"K": 2}, "grid": [[0.5, 0.0]]}


@pytest.mark.parametrize("command, base, change, path", [
    ("orbits", CAT_CONFIG, {"model": {"catmap": {"A": [2, 1, 1, True]}}}, "model.catmap.A"),
    ("orbits", CAT_CONFIG, {"model": {"catmap": {"A": [2, 1, 1, 1], "roof": True}}}, "model.catmap.roof"),
    ("orbits", CAT_CONFIG, {"truncation": {"n_max": True}}, "truncation.n_max"),
    ("bridge", CAT_CONFIG, {"truncation": {"K": True}}, "truncation.K"),
    ("zeta", CAT_CONFIG, {"grid": [True]}, "grid[0]"),
    ("zeta", CAT_CONFIG, {"grid": [[3.0, False]]}, "grid[0]"),
    ("orbits", CAT_CONFIG, {"rep": {"trivial": False}}, "rep.trivial"),
    ("partition", MATRIX_CONFIG, {"model": {"matrix": {"d": [[True, 0.0], [0.0, 3.0]]}}}, "model.matrix.d"),
    ("partition", MATRIX_CONFIG, {"model": {"matrix": {"d": [[2.0, 0.0], [0.0, 3.0]],
                                                       "graded_split": [[0, True], [1, 1]]}}},
     "model.matrix.graded_split"),
])
def test_boolean_config_values_exit_1(tmp_path, capsys, command, base, change, path):
    # bool subclasses int, so true and false must be rejected explicitly
    cfg = write_config(tmp_path, dict(base, **change))
    assert main([command, "--config", cfg]) == 1
    _assert_one_line_error(capsys, f"config error at {path}")


@pytest.mark.parametrize("command, base", [
    ("orbits", dict(CAT_CONFIG, model={"spectrum_file": "spec.csv"})),
    ("zeta", dict(CAT_CONFIG, model={"spectrum_file": "spec.csv"})),
    ("bridge", MATRIX_CONFIG), ("partition", MATRIX_CONFIG), ("diagrams", MATRIX_CONFIG),
])
def test_a_character_on_a_spectrum_or_matrix_model_exits_1(tmp_path, capsys, command, base):
    # a spectrum is twisted by its rho columns and a matrix model not at all: a character would change no number
    cfg = write_config(tmp_path, dict(base, rep={"character": 0.7}))
    assert main([command, "--config", cfg]) == 1
    _assert_one_line_error(capsys, "config error at rep: ", "takes only {'trivial': true}")
    # the rep is validated first
    cfg = write_config(tmp_path, dict(base, rep={"character": math.inf}))
    assert main([command, "--config", cfg]) == 1
    _assert_one_line_error(capsys, "config error at rep.character: ")


SPECTRUM_HEADER_LINE = "length,multiplicity,m,P_entries,rho_re,rho_im\n"


@pytest.mark.parametrize("command, config, spectrum, code, fragment", [
    ("orbits", "{not json", None, 1, "config error at <file>: invalid JSON"),
    ("orbits", dict(CAT_CONFIG, rep={"sheaf": 1}), None, 1, "config error at rep: unknown representation 'sheaf'"),
    ("orbits", dict(CAT_CONFIG, model={"torus": {}}), None, 1, "config error at model: unknown model source 'torus'"),
    ("zeta", MATRIX_CONFIG, None, 1, "config error at model: this command needs an orbit model"),
    ("zeta", dict(CAT_CONFIG, model={"spectrum_file": "spec.csv"}), SPECTRUM_HEADER_LINE + "1.0,1,1,2;0;0;0.5,1\n",
     2, "model invalid: SpectrumFormatError: line 2: expected 6 fields, found 5"),
    ("zeta", dict(CAT_CONFIG, model={"spectrum_file": "spec.csv"}), "# lengths only\n",
     2, "model invalid: SpectrumFormatError: missing header row"),
    ("zeta", dict(CAT_CONFIG, model={"spectrum_file": "spec.csv"}), SPECTRUM_HEADER_LINE + "1.0,0,1,2;0;0;0.5,1,0\n",
     2, "model invalid: SpectrumFormatError: line 2: multiplicity must be a positive integer"),
    # a P_entries field longer than the csv module's field limit (a 2m x 2m map at m of about 41)
    ("zeta", dict(CAT_CONFIG, model={"spectrum_file": "spec.csv"}),
     SPECTRUM_HEADER_LINE + "1.0,1,1," + "1" * 140000 + ",1,0\n",
     2, f"model invalid: SpectrumFormatError: line 2: field larger than field limit ({csv.field_size_limit()})"),
    # arrays nested past the recursion limit of json.load
    ("orbits", "[" * 100000 + "]" * 100000, None, 1, "config error at <file>: invalid JSON: maximum recursion depth"),
], ids=["invalid-json", "unknown-rep", "unknown-model", "zeta-on-matrix", "five-fields", "no-header", "multiplicity-0",
        "field-past-limit", "deep-nesting"])
def test_config_and_spectrum_errors_exit_with_one_line(tmp_path, capsys, monkeypatch, command, config, spectrum,
                                                       code, fragment):
    monkeypatch.chdir(tmp_path)  # the spectrum path is relative to the working directory
    if spectrum is not None:
        (tmp_path / "spec.csv").write_text(spectrum, encoding="utf-8")
    cfg = tmp_path / "config.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
    assert main([command, "--config", str(cfg)]) == code
    _assert_one_line_error(capsys, fragment)


def test_overflowing_propagator_exits_3(tmp_path, capsys):
    # 1 / 1e-310 overflows: the propagator integral of a subnormal generator is infinite
    payload = {"model": {"matrix": {"d": [[1e-310]]}}, "truncation": {"K": 2}, "lambda0": 0.0}
    assert main(["diagrams", "--config", write_config(tmp_path, payload)]) == 3
    _assert_one_line_error(capsys, "non-convergent", "IRDivergenceError", "overflows")


# ------------------------------------------------ graded split as a layout

@pytest.mark.parametrize("split, code, fragment", [
    ([[0, 1], [1, 1]], 2, "model invalid: L restricted to im(iota) couples two graded_split blocks"),
    ([[0, 1], [1, 2]], 1, "config error at model.matrix.graded_split: sizes must sum to the dimension"),
], ids=["coupled-blocks", "sizes-overrun"])
def test_graded_split_must_tile_l0(tmp_path, capsys, split, code, fragment):
    payload = {"model": {"matrix": {"d": [[2.0, 0.5], [0.0, 3.0]], "graded_split": split}}, "grid": [[0.5, 0.0]]}
    assert main(["partition", "--config", write_config(tmp_path, payload)]) == code
    _assert_one_line_error(capsys, fragment)


# ------------------------------------------------------ non-finite cells

LEFT_OF_AXIS_CONFIG = {"model": {"catmap": {"A": [2, 1, 1, 1]}}, "truncation": {"n_max": 20, "L_max": 20.0},
                       "grid": [[3.0, 0.0], [-60.0, 0.0]]}


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


def test_json_writes_non_finite_cells_as_strings(tmp_path):
    cfg = write_config(tmp_path, LEFT_OF_AXIS_CONFIG)
    csv_out, json_out = tmp_path / "zeta.csv", tmp_path / "zeta.json"
    assert main(["zeta", "--config", cfg, "--out", str(csv_out)]) == 0
    assert main(["zeta", "--config", cfg, "--out", str(json_out), "--format", "json"]) == 0
    doc = _strict_json(json_out.read_text())
    assert len(doc["rows"]) == 8
    for csv_row, json_row in zip(read_csv_rows(csv_out), doc["rows"]):
        for column in ("re_logzeta", "im_logzeta", "tail_bound", "defect"):
            cell = json_row[column]
            if isinstance(cell, str):
                assert cell in ("inf", "-inf", "nan") and cell == csv_row[column]
            else:  # finite cells stay JSON numbers, equal to the CSV value
                assert math.isfinite(cell) and cell == float(csv_row[column])
    assert doc["rows"][4]["re_logzeta"] == "-inf"


def test_json_diagrams_of_an_orbit_model_are_strict_json(tmp_path):
    out = tmp_path / "diagrams.json"
    cfg = write_config(tmp_path, CAT_CONFIG)
    assert main(["diagrams", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    rows = _strict_json(out.read_text())["rows"]
    assert rows and all(r["coeff_re"] == r["coeff_im"] == "nan" for r in rows)


# ------------------------------------------- no numpy warnings on stderr

def _run_quietly(capsys, argv):
    """main(argv) with every RuntimeWarning raised as an error; returns (exit code, stdout, stderr)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("row, l_max, det", [
    # P^j = diag(10**(10 j), 10**(-10 j)) overflows from j = 31 (L_max / length = 40); P^2 is already non-transverse
    ("0.1,1,1,1e10;0;0;1e-10,1.0,0.0", 4.0, "1.000e+20"),
    # tr wedge^2 P = 1e400 overflows: det(I - P) is inf
    ("1,1,1,1e200;0;0;1e200,1.0,0.0", 4.0, "inf"),
    # det(I - P) = -1e200 is finite, its threshold scale (1e200)**2 is not
    ("1,1,1,1e200;0;0;1e-200,1.0,0.0", 4.0, "1.000e+200"),
    # an exact integer map: P^11 = 10**165 I, so the exact det(I - P^11) and its scale are past the float range
    ("1,1,1,1e15;0;0;1e15,1.0,0.0", 12.0, "inf"),
], ids=["power", "det", "scale", "integer"])
def test_overflowing_return_map_power_exits_2_with_one_line(tmp_path, capsys, row, l_max, det):
    spectrum = tmp_path / "spectrum.csv"
    spectrum.write_text(f"length,multiplicity,m,P_entries,rho_re,rho_im\n{row}\n")
    payload = {"model": {"spectrum_file": str(spectrum)}, "truncation": {"L_max": l_max}, "grid": [[3.0, 0.0]]}
    code, _, err = _run_quietly(capsys, ["zeta", "--config", write_config(tmp_path, payload)])
    assert code == 2
    assert err == f"model invalid: NonTransverseOrbitError: non-transverse orbit: |det(I - P^j)| = {det}\n"


def test_short_roof_stops_raising_powers_at_the_first_scale_past_the_float_range(tmp_path, capsys):
    # L_max / length = 120000 powers of an integer return map; the exact P^j pass the float range near j = 370
    spectrum = tmp_path / "spectrum.csv"
    spectrum.write_text("length,multiplicity,m,P_entries,rho_re,rho_im\n1e-4,1,1,2;1;1;1,1.0,0.0\n")
    payload = {"model": {"spectrum_file": str(spectrum)}, "truncation": {"L_max": 12.0}, "grid": [[3.0, 0.0]]}
    started = time.perf_counter()
    code, _, err = _run_quietly(capsys, ["zeta", "--config", write_config(tmp_path, payload)])
    assert time.perf_counter() - started < 5.0
    assert code == 2
    assert err == "model invalid: NonTransverseOrbitError: non-transverse orbit: |det(I - P^j)| = 3.461e+12\n"


def test_zeta_far_left_of_the_axis_is_quiet_and_prints_minus_inf(tmp_path, capsys):
    code, out, err = _run_quietly(capsys, ["zeta", "--config", write_config(tmp_path, LEFT_OF_AXIS_CONFIG)])
    assert (code, err) == (0, "")
    rows = csv.DictReader(line for line in out.splitlines() if not line.startswith("#"))
    left = [r for r in rows if float(r["re_lambda"]) == -60.0]
    assert [(r["re_logzeta"], r["im_logzeta"], r["tail_bound"]) for r in left] == [("-inf", "nan", "inf")] * 4


def test_zeta_defect_past_the_float_range_reads_inf(tmp_path, capsys):
    # sign -1 atoms make the assembly minus the Euler sum; far left of the axis both parts of their
    # difference are finite, but its modulus is past the float range: that point once stopped the grid with exit 3
    spectrum = tmp_path / "spectrum.csv"
    spectrum.write_text(SPECTRUM_HEADER_LINE + "".join(f"{length},1,1,-2;0;0;-0.5,1.0,0.0\n" for length in (1.0, 1.05, 1.1)))
    payload = {"model": {"spectrum_file": str(spectrum)}, "truncation": {"L_max": 1.1},
               "grid": [[3.0, 0.0], [-644.81, math.pi / 4]]}
    code, out, err = _run_quietly(capsys, ["zeta", "--config", write_config(tmp_path, payload)])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    far = list(csv.DictReader(lines[:1] + lines[5:9]))
    assert all(math.isfinite(float(r["re_logzeta"])) and math.isfinite(float(r["im_logzeta"])) for r in far)
    assert [r["defect"] for r in far] == ["inf"] * 4
    # the lambda = 3 rows read the bytes they have in a grid of their own
    alone = write_config(tmp_path, dict(payload, grid=[[3.0, 0.0]]), "alone.json")
    assert _run_quietly(capsys, ["zeta", "--config", alone])[1].splitlines() == lines[:5] + lines[9:]


@pytest.mark.parametrize("command", ["bridge", "diagrams"])
def test_overflowing_matrix_series_is_quiet(tmp_path, capsys, command):
    # (0.01)**(-N) and the chain link powers overflow long before order K = 400: those cells read nan
    payload = {"model": {"matrix": {"d": [[0.01, 0.0], [0.0, 3.0]]}}, "truncation": {"K": 400},
               "grid": [[0.005, 0.0], [0.5, 0.0]]}
    code, out, err = _run_quietly(capsys, [command, "--config", write_config(tmp_path, payload)])
    assert (code, err) == (0, "")
    assert ",nan,nan" in out


def test_matrix_bridge_overflow_and_poles_are_quiet_non_finite_cells(tmp_path, capsys):
    # the degree-0 product (1 + hbar/2)(1 + hbar/3) overflows at hbar = 1e200(1 + i); hbar = -5 is a pole
    model = {"matrix": {"d": [[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 5.0]], "graded_split": [[0, 2], [1, 1]]}}
    grid = [[1e200, 1e200], [-5.0, 0.0], [0.5, 0.1], [1.5e308, -1.5e308]]
    cfg = write_config(tmp_path, {"model": model, "grid": grid})
    code, out, err = _run_quietly(capsys, ["bridge", "--config", cfg])
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(out.splitlines()))
    assert [(r["closed_form_re"], r["closed_form_im"]) for r in rows[:2]] == [("nan", "nan"), ("inf", "nan")]
    assert not math.isfinite(float(rows[3]["closed_form_re"]))  # |hbar| itself is past the float range
    # the finite point reads the bytes it has in a grid of its own
    cfg = write_config(tmp_path, {"model": model, "grid": grid[2:3]}, "alone.json")
    _, alone, _ = _run_quietly(capsys, ["bridge", "--config", cfg])
    assert alone.splitlines() == [out.splitlines()[0], out.splitlines()[3]]


def test_overflowing_orbit_loop_series_is_quiet(tmp_path, capsys):
    # t**(N-1) = 600**119 passes the float range: the series cells read nan, flagged radius_violation
    spectrum = tmp_path / "spectrum.csv"
    spectrum.write_text("length,multiplicity,m,P_entries,rho_re,rho_im\n600,1,1,2;0;0;0.5,1.0,0.0\n")
    payload = {"model": {"spectrum_file": str(spectrum)}, "truncation": {"L_max": 700.0, "K": 120},
               "grid": [[0.1, 0.0]], "lambda0": 0.0}
    code, out, err = _run_quietly(capsys, ["bridge", "--config", write_config(tmp_path, payload)])
    assert (code, err) == (0, "")
    assert out.count(",radius_violation,nan,nan,") == 2


@pytest.mark.parametrize("command", ["orbits", "zeta", "bridge", "diagrams"])
@pytest.mark.parametrize("rows, line", [([f"1.0,{10**400}"], 2), (["0.5,1", f"1.0,{10**308}", f"1.0,{10**308}"], 3)],
                         ids=["one-row", "merged"])
def test_multiplicity_past_the_float_range_exits_2(tmp_path, capsys, command, rows, line):
    # no orbit sum can read a class multiplicity past the float range: the loader refuses it at the
    # line that opens the class, a single row of 10**400 or two rows of 10**308 that merge past the range
    spectrum = tmp_path / "spectrum.csv"
    spectrum.write_text("length,multiplicity,m,P_entries,rho_re,rho_im\n"
                        + "".join(f"{row},1,2;0;0;0.5,1.0,0.0\n" for row in rows))
    payload = {"model": {"spectrum_file": str(spectrum)}, "truncation": {"L_max": 3.0}, "grid": [[3.0, 0.0]]}
    code, out, err = _run_quietly(capsys, [command, "--config", write_config(tmp_path, payload)])
    assert (code, out) == (2, "")
    assert err == f"model invalid: SpectrumFormatError: line {line}: class multiplicity is past the float range\n"


def test_orbit_bridge_past_the_float_factorial_is_finite(tmp_path, capsys):
    # the loop coefficient of order N + 1 divides by (N - 1)!, past the float range from N = 172
    payload = dict(CAT_CONFIG, truncation={"n_max": 20, "L_max": 20.0, "K": 180},
                   grid=[[0.1, 0.0], [0.5, 0.0]], lambda0=3.0)
    code, out, err = _run_quietly(capsys, ["bridge", "--config", write_config(tmp_path, payload)])
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(line for line in out.splitlines() if not line.startswith("#")))
    assert len(rows) == 4 and all(r["K"] == "180" and r["flag"] == "" for r in rows)
    assert all(math.isfinite(float(r["series_value_re"])) and float(r["defect"]) < 1e-12 for r in rows)


OVERFLOW_BRIDGE_CONFIG = dict(CAT_CONFIG, truncation={"n_max": 5, "L_max": 5.0})


@pytest.mark.parametrize("hbar", [[40.0, 0.0], [-6.0, 0.0], [0.0, 1e200], [1e155, 1e155], [-5.887629209736579, -0.4]],
                         ids=["exp-overflow", "left-of-axis", "heuristic-overflow", "nan-series", "defect-overflow"])
def test_one_overflowing_bridge_point_leaves_the_rest_of_the_grid(tmp_path, capsys, hbar):
    # each of these points once stopped the grid with exit 3, or printed a nan series without a flag; at the
    # last, both series components are finite but its modulus, and so the defect, is past the float range
    grid = write_config(tmp_path, dict(OVERFLOW_BRIDGE_CONFIG, grid=[[0.5, 0.0], hbar]))
    code, out, err = _run_quietly(capsys, ["bridge", "--config", grid])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 5 and all(",radius_violation," in line for line in lines[3:])
    alone = write_config(tmp_path, dict(OVERFLOW_BRIDGE_CONFIG, grid=[[0.5, 0.0]]), "alone.json")
    assert _run_quietly(capsys, ["bridge", "--config", alone])[1].splitlines() == lines[:3]


@pytest.mark.parametrize("command, payload, expected", [
    # theta = log|nu| / roof past the float range
    ("orbits", {"model": {"catmap": {"A": [2, 1, 1, 1], "roof": 1e-320}}, "truncation": {"n_max": 3}},
     "period,length,multiplicity,m,trace_P,det_P,rho_re,rho_im\n"
     "1,9.9998886718268301e-321,1,1,3.0000000000000000e+00,1.0000000000000000e+00,1.0000000000000000e+00,"
     "0.0000000000000000e+00\n"
     "2,1.9999777343653660e-320,2,1,7.0000000000000000e+00,1.0000000000000000e+00,1.0000000000000000e+00,"
     "0.0000000000000000e+00\n"
     "3,2.9999666015480490e-320,5,1,1.8000000000000000e+01,1.0000000000000000e+00,1.0000000000000000e+00,"
     "0.0000000000000000e+00\n"
     "# model_id: catmap[2,1,1,1]|roof=1e-320|trivial\n# sieve_consistent: true\n"),
    # det L0 = 1e400 past the float range
    ("partition", {"model": {"matrix": {"d": [[1e200, 0], [0, 1e200]]}}, "grid": [[1, 0]]},
     "hbar_re,hbar_im,partition,resonance_hit\n1.0000000000000000e+00,0.0000000000000000e+00,inf,false\n"
     "# model_id: matrix:53115e7c19b6\n"),
    # e^{-lambda0 t} past the float range at lambda0 = -800
    ("bridge", {"model": {"catmap": {"A": [2, 1, 1, 1]}}, "grid": [[0.1, 0]], "lambda0": [-800, 0]},
     "model_id,hbar_re,hbar_im,K,route,flag,series_value_re,series_value_im,closed_form_re,closed_form_im,defect\n"
     '"catmap[2,1,1,1]|roof=1.0|trivial",1.0000000000000001e-01,0.0000000000000000e+00,8,det,radius_violation,'
     "nan,nan,nan,nan,nan\n"
     '"catmap[2,1,1,1]|roof=1.0|trivial",1.0000000000000001e-01,0.0000000000000000e+00,8,orbit,radius_violation,'
     "nan,nan,nan,nan,nan\n"),
], ids=["orbits-theta", "partition-det", "bridge-lambda0"])
def test_an_overflow_in_a_valid_config_prints_no_warning(tmp_path, capsys, command, payload, expected):
    assert _run_quietly(capsys, [command, "--config", write_config(tmp_path, payload)]) == (0, expected, "")


# ---------------------------------------------- diagrams reads an orbit model

@pytest.mark.parametrize("model, spectrum", [
    ({"spectrum_file": "missing.csv"}, None),
    ({"spectrum_file": "spec.csv"}, "1.0,1,1,2;1;1;1,1,0\n"),
    ({"spectrum_file": "spec.csv"}, SPECTRUM_HEADER_LINE + "1.0,1,1,2;1;1;1,1,0\n"
     "1.5,1,2,2;0;0;0;0;0.5;0;0;0;0;2;0;0;0;0;0.5,1,0\n"),
    ({"catmap": {"A": [1, 1, 0, 1]}}, None),
], ids=["missing-file", "no-header", "mixed-m", "not-anosov"])
def test_diagrams_refuses_the_orbit_models_that_orbits_refuses(tmp_path, capsys, monkeypatch, model, spectrum):
    monkeypatch.chdir(tmp_path)  # the spectrum path is relative to the working directory
    if spectrum is not None:
        (tmp_path / "spec.csv").write_text(spectrum, encoding="utf-8")
    cfg = write_config(tmp_path, {"model": model})
    code, _, err = _run_quietly(capsys, ["orbits", "--config", cfg])
    assert code in (1, 2) and err
    assert _run_quietly(capsys, ["diagrams", "--config", cfg])[::2] == (code, err)
