"""Every command's output on the cat-map, spectrum-CSV and matrix configs of the CI, in both formats,
against the files in tests/data/golden byte for byte; a command that refuses a config gives its
recorded exit code and stderr (exits.json). spectrum-quoted.csv is spectrum.csv with CRLF line ends,
every field quoted and a comment line: csv.reader reads it, where spectrum.csv is split line by line."""

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
@pytest.mark.parametrize("config", ["catmap", "spectrum", "spectrum-quoted", "matrix"])
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
