"""ruelle-bf benchmark: runs the CLI on seeded workloads and checks every output row.

Usage, from the root of the repository:

    python3 bench/run.py --workload catmap-orbit --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload, end-to-end metrics

--trace 0 prints the end-to-end metrics; --trace 1 runs one traced in-process
pass and prints the per-layer metrics. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

A cold pass runs each invocation of the workload as a fresh
`python -m ruellebf.cli` subprocess from the working tree. A warm pass calls
`ruellebf.cli.main(argv)` in this process. An op is one grid point, or one
grid-less invocation; it fails on a non-zero exit, a traceback, a row outside
its oracle tolerance, or output bytes that differ between passes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PASSES = 3
IMPORT_SAMPLES = 3


@dataclass
class Pass:
    """Timings and outputs of one pass over a workload, keyed by invocation name.

    A pass cut short by the end of the measuring time lacks the invocations it
    did not reach.
    """

    kind: str
    walls: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    status: dict = field(default_factory=dict)
    rss_mb: float = 0.0

    @property
    def wall(self) -> float:
        return sum(self.walls.values())


class Workspace:
    """Input files, configs and per-pass outputs of one run, inside the checkout."""

    def __init__(self, workload_name: str, seed: int, root: Path = ROOT, **sizes):
        self.root = root
        self.dir = root / ".bench_work" / f"{workload_name}-{seed}-{os.getpid()}"
        self.workload = inputs.build(workload_name, seed, self.dir.relative_to(root), **sizes)

    def config(self, inv: inputs.Invocation, variant: str = "") -> str:
        path = self.dir / f"{inv.name}{variant}.json"
        if not path.exists():
            inputs.write_config(inv, path)
        return str(path.relative_to(self.root))

    def out(self, kind: str, inv: inputs.Invocation) -> Path:
        path = self.dir / kind / f"{inv.name}.csv"
        path.parent.mkdir(exist_ok=True)
        if path.exists():
            path.unlink()
        return path

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _argv(inv, cfg, out):
    return [inv.command, "--config", cfg, "--out", str(out), "--threads", str(inv.threads)]


def _read(path: Path):
    return path.read_bytes() if path.exists() else None


def _status(code, stderr: str) -> str:
    last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if "Traceback (most recent call last)" in stderr:
        return f"traceback, exit {code}: {last}"
    return f"exit {code}: {last}" if code else ""


def run_cold(ws: Workspace, inv: inputs.Invocation, into: Pass, cut: bool = False):
    """The invocation as a fresh `python -m ruellebf.cli` subprocess, with its max-RSS."""
    if cut:
        inv = inv.cut_to_first_point()
    cfg = ws.config(inv, "-setup" if cut else "")
    out = ws.out(into.kind, inv)
    err_path = out.with_suffix(".err")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "ruellebf.cli", *_argv(inv, cfg, out.relative_to(ws.root))],
                                cwd=ws.root, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, wait_status, usage = os.wait4(proc.pid, 0)
    into.walls[inv.name] = time.perf_counter() - start
    into.rss_mb = max(into.rss_mb, usage.ru_maxrss / 1024)
    into.outputs[inv.name] = _read(out)
    into.status[inv.name] = _status(os.waitstatus_to_exitcode(wait_status), err_path.read_text(errors="replace"))


def run_warm(ws: Workspace, inv: inputs.Invocation, into: Pass, cut: bool = False):
    """The invocation through ruellebf.cli.main(argv) in this process."""
    from ruellebf import cli

    if cut:
        inv = inv.cut_to_first_point()
    argv = _argv(inv, ws.config(inv, "-setup" if cut else ""), ws.out(into.kind, inv).relative_to(ws.root))
    stderr = io.StringIO()
    gc.collect()  # start each sample from the same heap, whatever earlier runs left
    start = time.perf_counter()
    with contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the CLI let an error escape: record it as a traceback, like a cold run
            traceback.print_exc()
            code = 1
    into.walls[inv.name] = time.perf_counter() - start
    into.outputs[inv.name] = _read(ws.root / argv[4])
    into.status[inv.name] = _status(code, stderr.getvalue())


def cold_pass(ws: Workspace, kind: str = "cold", cut: bool = False) -> Pass:
    result = Pass(kind)
    for inv in ws.workload.invocations:
        run_cold(ws, inv, result, cut)
    return result


def warm_pass(ws: Workspace, kind: str = "warm", cut: bool = False) -> Pass:
    result = Pass(kind)
    for inv in ws.workload.invocations:
        run_warm(ws, inv, result, cut)
    return result


def _op_chunks(data, inv: inputs.Invocation):
    """(frame, per-op byte chunks): frame is the header plus meta lines."""
    if data is None:
        return None, [None] * inv.n_ops
    if not inv.rows_per_op:
        return b"", [data]
    lines = data.split(b"\n")
    rows = [line for line in lines[1:] if line and not line.startswith(b"#")]
    frame = b"\n".join([lines[0]] + [line for line in lines[1:] if line.startswith(b"#")])
    r = inv.rows_per_op
    return frame, [b"\n".join(rows[i * r:(i + 1) * r]) for i in range(inv.n_ops)]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    known: int = 0
    unexpected: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.unexpected


def evaluate(workload: inputs.Workload, passes: list[Pass]) -> Tally:
    """Check every op of the first cold pass, and its bytes against every other pass."""
    first, others = passes[0], passes[1:]
    tally = Tally()
    for inv in workload.invocations:
        status = first.status[inv.name]
        if status or first.outputs[inv.name] is None:
            reasons = [status or "exit 0 without output"] * inv.n_ops
        else:
            reasons = inv.check(first.outputs[inv.name].decode("utf-8"))
        known_exit = bool(inv.known_exit) and status.startswith(inv.known_exit)
        frame, chunks = _op_chunks(first.outputs[inv.name], inv)
        for other in (p for p in others if inv.name in p.outputs):
            other_frame, other_chunks = _op_chunks(other.outputs[inv.name], inv)
            for i, chunk in enumerate(other_chunks):
                if not reasons[i] and (other_frame != frame or chunk != chunks[i]):
                    reasons[i] = f"output bytes differ between the {first.kind} and {other.kind} passes"
        for i, reason in enumerate(reasons):
            tally.attempted += 1
            if not reason:
                continue
            tally.failed += 1
            if inv.known_defect or i in inv.known_ops or known_exit:
                tally.known += 1
            else:
                tally.unexpected.append(f"{inv.name}[{i}]: {reason}")
    return tally


def high_percentile(n: int):
    """Highest of the usual percentiles with at least ten samples beyond it, or None."""
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            return p
    return None


def summed_median(workload: inputs.Workload, passes: list[Pass]) -> tuple[float, str]:
    """Sum over invocations of each one's median time over the passes, and a description."""
    medians, counts = {}, []
    for inv in workload.invocations:
        samples = [p.walls[inv.name] for p in passes if inv.name in p.walls]
        medians[inv.name] = statistics.median(samples)
        counts.append(len(samples))
    total = sum(medians.values())
    whole = [p.wall for p in passes if len(p.walls) == len(workload.invocations)]
    line = (f"{total:.6g} s, the sum of per-invocation medians ("
            + ", ".join(f"{name} {t:.4g}" for name, t in medians.items())
            + f") over {min(counts)}-{max(counts)} samples")
    p = high_percentile(len(whole))
    if p is None:
        line += f"; {len(whole)} whole passes, too few for a tail percentile"
    else:
        line += f"; p{p:g} of {len(whole)} whole passes {statistics.quantiles(whole, n=1000)[round(p * 10) - 1]:.6g} s"
    return total, line


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_end_to_end(ws: Workspace, seconds: float, log):
    """One untimed warm-up pass, then rounds of cold and warm runs for `seconds`,
    with the set-up passes between the first rounds.

    The warm-up runs every invocation in this process with its grid cut to the
    first point, which imports every module and runs every code path once.
    In a round each invocation runs cold, then warm. Once every invocation has
    a sample, measuring stops before the first invocation whose last cold and
    warm runs would not fit in the `seconds` left. Set-up passes do not count
    against `seconds`; placing them between rounds spreads every metric's
    samples over the whole run, so a slow spell of the host weighs on fewer.
    """
    invocations = ws.workload.invocations
    warm_pass(ws, "warm-up", cut=True)
    setup, colds, warms, last = [], [], [], {}
    measured = 0.0
    done = False
    while not done:
        if len(setup) < SETUP_PASSES:
            setup.append(cold_pass(ws, f"setup{len(setup)}", cut=True))
        cold, warm = Pass(f"cold{len(colds) + 1}"), Pass(f"warm{len(warms) + 1}")
        start = time.perf_counter()
        for inv in invocations:
            if inv.name in last and measured + time.perf_counter() - start + last[inv.name] > seconds:
                done = True
                break
            run_cold(ws, inv, cold)
            run_warm(ws, inv, warm)
            last[inv.name] = cold.walls[inv.name] + warm.walls[inv.name]
        measured += time.perf_counter() - start
        if cold.walls:
            colds.append(cold)
            warms.append(warm)
    setup += [cold_pass(ws, f"setup{i}", cut=True) for i in range(len(setup), SETUP_PASSES)]
    tally = evaluate(ws.workload, colds + warms)
    cold_s, cold_line = summed_median(ws.workload, colds)
    setup_s, setup_line = summed_median(ws.workload, setup)
    warm_s, warm_line = summed_median(ws.workload, warms)
    points = ws.workload.n_points
    log(f"cli_wall_s: {cold_line}")
    log(f"setup_s: {setup_line}")
    log(f"warm pass: {warm_line}, for {points} grid points")
    metrics = {
        "cli_wall_s": _metric(cold_s, "s"),
        "setup_s": _metric(setup_s, "s"),
        "points_per_s": _metric(points / warm_s, "points/s"),
        "peak_rss_mb": _metric(max(p.rss_mb for p in colds), "MB"),
        "failed_frac": _metric(tally.failed / tally.attempted, "ratio"),
    }
    return tally, metrics


def import_time() -> float:
    """Median wall time of `import ruellebf.cli` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import ruellebf.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = [float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout) for _ in range(IMPORT_SAMPLES)]
    return statistics.median(samples)


def run_traced(ws: Workspace, log):
    """Warm-up, one untraced and one traced warm pass, and a cold pass for the byte checks."""
    import layers

    warm_pass(ws, "warm-up", cut=True)
    warm = warm_pass(ws, "warm")
    probe = layers.LayerProbe()
    probe.tracer.install(layers.targets(probe))
    try:
        traced = warm_pass(ws, "traced")
    finally:
        probe.tracer.uninstall()
    cold = cold_pass(ws)
    tally = evaluate(ws.workload, [cold, warm, traced])
    metrics = probe.metrics(warm.wall, traced.wall, traced.outputs, ws.root)
    metrics["cli.import_s"] = import_time()
    self_sum = metrics["trace.self_sum_s"]
    log(f"self times add up to {self_sum:.4f} s; warm pass {warm.wall:.4f} s, traced pass {traced.wall:.4f} s "
        f"(overhead {metrics['trace.overhead_frac']:+.4f})")
    return tally, {name: _metric(value, layers.UNITS[name]) for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*inputs.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ruellebf" / "cli.py").is_file():
        sys.stderr.write(f"no ruellebf sources under {SRC}: run from a checkout of the repository\n")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    names = list(inputs.GENERATORS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        ws = Workspace(name, args.seed)
        prefix = f"{name}/" if args.workload == "all" else ""

        def log(line, prefix=prefix):
            print(prefix + line, flush=True)

        try:
            if args.trace:
                tally, metrics = run_traced(ws, log)
            else:
                tally, metrics = run_end_to_end(ws, args.seconds, log)
        finally:
            ws.close()
        log(f"ops: attempted {tally.attempted}, failed {tally.failed} "
            f"(known defects {tally.known}, unexpected {len(tally.unexpected)})")
        for reason in tally.unexpected[:20]:
            log(f"unexpected failure: {reason}")
        for metric, body in metrics.items():
            log(f"{metric} = {body['value']:.6g} {body['unit']}")
        result["correct"] = result["correct"] and tally.correct
        result["attempted"] += tally.attempted
        result["failed"] += len(tally.unexpected)
        result["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
