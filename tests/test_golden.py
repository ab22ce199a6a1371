"""Every command's output on the cat-map, spectrum-CSV and matrix configs of the CI, in both formats,
against the files in tests/data/golden byte for byte; a command that refuses a config gives its
recorded exit code and stderr (exits.json). spectrum-quoted.csv is spectrum.csv with CRLF line ends,
every field quoted and a comment line: csv.reader reads it, where spectrum.csv is split line by line.
spectrum-mixed.csv has an m = 1 row, then an m = 2 row, which every orbit command refuses at its line.
The CSV outputs hold with scipy unimportable too."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from ruellebf import cli

GOLDEN = Path(__file__).parent / "data" / "golden"
EXITS = json.loads((GOLDEN / "exits.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["orbits", "zeta", "bridge", "partition", "diagrams"])
@pytest.mark.parametrize("config", ["catmap", "spectrum", "spectrum-quoted", "spectrum-mixed", "matrix"])
def test_cli_reproduces_the_golden_bytes(monkeypatch, config, command, fmt):
    monkeypatch.chdir(GOLDEN)  # the spectrum config names its CSV by a relative path
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", f"{config}.json", "--format", fmt])
    name = f"{config}-{command}.{fmt}"
    if name in EXITS:
        assert [code, err.getvalue()] == EXITS[name] and out.getvalue() == ""
    else:
        assert code == 0 and err.getvalue() == ""
        assert out.getvalue().encode("utf-8") == (GOLDEN / name).read_bytes()


RUN_WITHOUT_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # an import of scipy, or of any module of it, raises ImportError
from ruellebf import cli
results = {}
for config, command in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", f"{config}.json", "--format", "csv"])
    results[f"{config}-{command}.csv"] = [code, out.getvalue(), err.getvalue()]
print(json.dumps(results))
"""


def test_every_command_runs_with_scipy_unimportable():
    # one interpreter runs every command on every golden config: none of them reaches for scipy
    import subprocess
    import sys

    import ruellebf

    runs = [[config, command] for config in ("catmap", "spectrum", "spectrum-quoted", "spectrum-mixed", "matrix")
            for command in ("orbits", "zeta", "bridge", "partition", "diagrams")]
    env = {"PYTHONPATH": str(Path(ruellebf.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", RUN_WITHOUT_SCIPY, json.dumps(runs)], cwd=GOLDEN, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    results = json.loads(proc.stdout)
    assert len(results) == len(runs)
    for name, (code, out, err) in results.items():
        if name in EXITS:
            assert [code, err] == EXITS[name] and out == "", name
        else:
            assert (code, err) == (0, ""), name
            assert out.encode("utf-8") == (GOLDEN / name).read_bytes(), name
