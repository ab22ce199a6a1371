"""Every command's output on each config in tests/data/golden (each *.json but exits.json and the
<config>-<command>.json outputs, the CI's list too), in both formats, against the files there byte
for byte; a command that refuses a config gives its recorded exit code and stderr (exits.json).
spectrum-quoted.csv is spectrum.csv with CRLF line ends, every field quoted and a comment line:
csv.reader reads it, where spectrum.csv is split line by line.
spectrum-mixed.csv has an m = 1 row, then an m = 2 row, which every orbit command refuses at its line;
spectrum-undecodable.csv has a bad row, then a latin-1 byte on the next line: the bad row's line is reported.
The CSV outputs hold with scipy unimportable too, and through the process entry point
(python -m ruellebf.cli), the path of the console script and of the benchmark's cold runs."""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ruellebf import cli

GOLDEN = Path(__file__).parent / "data" / "golden"
EXITS = json.loads((GOLDEN / "exits.json").read_text(encoding="utf-8"))
ENV = {"PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}  # a fresh interpreter on this package
COMMANDS = ["orbits", "zeta", "bridge", "partition", "diagrams"]
# every config of the golden directory: each *.json but exits.json and the <config>-<command>.json outputs
CONFIGS = sorted(path.stem for path in GOLDEN.glob("*.json")
                 if path.stem != "exits" and not path.stem.endswith(tuple(f"-{command}" for command in COMMANDS)))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("config", CONFIGS)
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
print(json.dumps({"results": results, "modules": sorted(name for name in sys.modules if sys.modules[name])}))
"""


def run_without_scipy(runs) -> tuple[dict, list]:
    """(results by golden file name, sorted names of the modules loaded) of one fresh interpreter that
    runs each (config, command) of runs through cli.main, with scipy unimportable."""
    proc = subprocess.run([sys.executable, "-c", RUN_WITHOUT_SCIPY, json.dumps(runs)], cwd=GOLDEN, env=ENV,
                          capture_output=True, text=True, check=True, timeout=120)
    report = json.loads(proc.stdout)
    return report["results"], report["modules"]


def assert_golden(results):
    for name, (code, out, err) in results.items():
        if name in EXITS:
            assert [code, err] == EXITS[name] and out == "", name
        else:
            assert (code, err) == (0, ""), name
            assert out.encode("utf-8") == (GOLDEN / name).read_bytes(), name


def test_every_command_runs_with_scipy_unimportable():
    # one interpreter runs every command on every golden config: none of them reaches for scipy
    runs = [[config, command] for config in CONFIGS for command in COMMANDS]
    results, _ = run_without_scipy(runs)
    assert len(results) == len(runs)
    assert_golden(results)


def test_orbit_commands_load_no_module_they_do_not_run():
    # neither the matrix half of the package nor a numpy module past those of `import numpy` itself;
    # numpy 2 imports numpy.ma on its first np.setdiff1d call, for one
    runs = [[config, command] for config in ("catmap", "spectrum") for command in ("zeta", "orbits", "diagrams")]
    results, modules = run_without_scipy(runs)
    assert_golden(results)
    assert [name for name in modules if name in ("ruellebf.bf_engine", "ruellebf.feynman")] == []
    bare = subprocess.run([sys.executable, "-c", "import json, sys, numpy; print(json.dumps(sorted(sys.modules)))"],
                          env=ENV, capture_output=True, text=True, check=True, timeout=60)
    assert {name for name in modules if name.startswith("numpy.")} <= set(json.loads(bare.stdout))


def test_matrix_commands_load_the_bf_engine():
    results, modules = run_without_scipy([["matrix", command] for command in ("bridge", "partition", "diagrams")])
    assert_golden(results)
    assert "ruellebf.bf_engine" in modules


def entry_point(*args, env=ENV, **kwargs):
    """The CLI as its own process, `python -m ruellebf.cli` in the golden directory."""
    return subprocess.run([sys.executable, "-m", "ruellebf.cli", *args], cwd=GOLDEN, env=env, timeout=60, **kwargs)


@pytest.mark.parametrize("config, command", [("catmap", "zeta"), ("catmap", "partition"), ("spectrum", "orbits"),
                                             ("spectrum", "partition"), ("matrix", "bridge"), ("matrix", "zeta")])
def test_the_process_entry_point_gives_the_golden_bytes_and_exits(config, command):
    proc = entry_point(command, "--config", f"{config}.json", capture_output=True)
    assert_golden({f"{config}-{command}.csv": [proc.returncode, proc.stdout.decode("utf-8"),
                                               proc.stderr.decode("utf-8")]})


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, whose every write fails with ENOSPC")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", ["zeta", "diagrams", "--help"])
def test_a_full_standard_output_exits_1_with_one_line(command, unbuffered):
    # buffered, the diagrams table fits the buffer and fails only at the flush; unbuffered, every write fails;
    # argparse alone would pass over the failed write of the help and exit 0
    env = dict(ENV, PYTHONUNBUFFERED="1") if unbuffered else ENV
    with open("/dev/full", "wb") as full:
        proc = entry_point(command, "--config", "catmap.json", env=env, stdout=full, stderr=subprocess.PIPE)
    message = f"config error at --out: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"
    assert (proc.returncode, proc.stderr.decode("utf-8")) == (1, message)


@pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="closes standard output through /bin/sh")
def test_a_closed_standard_output_exits_1_with_one_line():
    proc = subprocess.run(["/bin/sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "ruellebf.cli", "diagrams",
                           "--config", "catmap.json"], cwd=GOLDEN, env=ENV, stderr=subprocess.PIPE, timeout=60)
    assert (proc.returncode, proc.stderr) == (1, b"config error at --out: cannot write standard output: it is closed\n")
