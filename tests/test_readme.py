"""The README's documented usage runs against the public API."""

import re
from pathlib import Path

import pytest

from ruellebf.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Example", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    # the det ratio (2 + 0.1)(3 + 0.1) / (2 * 3) of the diagonal toy model
    assert complex(lines[1]) == pytest.approx(2.1 * 3.1 / 6.0, rel=1e-12)


@pytest.mark.parametrize("command", ["orbits", "zeta", "bridge"])
def test_readme_config_schema_runs(tmp_path, capsys, command):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Config schema\n", 1)[1]
    block = re.search(r"```jsonc\n(.*?)```", section, re.S).group(1)
    config = tmp_path / "config.json"
    config.write_text(re.sub(r"//.*", "", block), encoding="utf-8")
    assert main([command, "--config", str(config)]) == 0
    assert capsys.readouterr().err == ""
