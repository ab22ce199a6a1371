"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the repository: PYTHONPATH=src python -m pytest -q bench
"""

import json
from pathlib import Path

import pytest

import inputs
import layers
import run

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    """A tiny workload written under tmp_path, which is also the working directory."""
    monkeypatch.chdir(tmp_path)

    def make(name, keep=None, **sizes):
        ws = run.Workspace(name, 7, tmp_path, **sizes)
        if keep is not None:
            ws.workload = inputs.Workload(name, ws.workload.why, ws.workload.invocations[:keep])
        return ws
    return make


def _corrupt_digit(text: str, row: int, column: str) -> str:
    lines = text.split("\n")
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    value = cells[header.index(column)]
    at = value.index(".") + 4  # the fourth decimal of the mantissa
    cells[header.index(column)] = value[:at] + str((int(value[at]) + 1) % 10) + value[at + 1:]
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("name, sizes, row, column, op", [
    ("catmap-orbit", {"size": 3, "n_max": 14}, 5, "re_logzeta", 1),
    ("matrix-bf", {"n_points": 4, "size": 3, "k_order": 4}, 2, "closed_form_im", 2),
])
def test_oracle_rejects_one_corrupted_digit(workspace, name, sizes, row, column, op):
    ws = workspace(name, **sizes)
    inv = ws.workload.invocations[0]
    done = run.Pass("warm")
    run.run_warm(ws, inv, done)
    text = done.outputs[inv.name].decode()
    assert inv.check(text) == [""] * inv.n_ops
    reasons = inv.check(_corrupt_digit(text, row, column))
    assert [i for i, reason in enumerate(reasons) if reason] == [op]


def test_probe_failure_is_counted_not_raised(workspace):
    ws = workspace("catmap-orbit", size=2, n_max=6)
    probe = ws.workload.invocations[-1]
    assert probe.known_defect
    cold, warm = run.Pass("cold"), run.Pass("warm")
    run.run_cold(ws, probe, cold)
    run.run_warm(ws, probe, warm)
    assert "NonTransverseOrbitError" in cold.status[probe.name]
    assert "NonTransverseOrbitError" in warm.status[probe.name]
    tally = run.evaluate(inputs.Workload("probe", "", (probe,)), [cold, warm])
    assert (tally.attempted, tally.failed, tally.known, tally.unexpected) == (1, 1, 1, [])
    assert tally.correct


@pytest.mark.parametrize("name, sizes", [
    ("catmap-orbit", {"size": 3, "n_max": 6}),
    ("matrix-bf", {"n_points": 5, "size": 3, "k_order": 4}),
])
def test_traced_and_untraced_outputs_are_byte_identical(workspace, name, sizes):
    from ruellebf import cli

    ws = workspace(name, **sizes)
    original = cli.main
    plain = run.warm_pass(ws, "warm")
    probe = layers.LayerProbe()
    probe.tracer.install(layers.targets(probe) + [(cli, "removed_function", "cli.removed", None)])
    try:
        traced = run.warm_pass(ws, "traced")
    finally:
        probe.tracer.uninstall()
    assert cli.main is original
    assert traced.outputs == plain.outputs
    assert all(traced.outputs[inv.name] is not None for inv in ws.workload.invocations if not inv.known_defect)
    tally = run.evaluate(ws.workload, [plain, traced])
    assert not [reason for reason in tally.unexpected if "bytes differ" in reason]
    metrics = probe.metrics(plain.wall, traced.wall, traced.outputs, ws.root)
    roots = sum(s.end - s.start for s in probe.tracer.spans if s.name == "cli.main")
    assert metrics["trace.self_sum_s"] == pytest.approx(roots, rel=1e-9)
    assert sum(metrics[f"{m}.self_s"] for m in layers.MODULES) == pytest.approx(roots, rel=1e-9)


def test_printed_metric_names_are_in_benchmark_json(workspace):
    ws = workspace("matrix-bf", keep=1, n_points=3, size=3, k_order=4)
    printed = []
    tally, end_to_end = run.run_end_to_end(ws, 0.0, printed.append)
    assert tally.correct, tally.unexpected
    assert {n: m["unit"] for n, m in end_to_end.items()} == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    tally, per_layer = run.run_traced(ws, printed.append)
    assert tally.correct, tally.unexpected
    assert {n: m["unit"] for n, m in per_layer.items()} == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(inputs.GENERATORS)
