"""Per-layer metrics of one traced pass: which ruellebf functions are wrapped, and how
their spans and counters become the per_layer metrics of BENCHMARK.json.

Names ending in _s are inclusive span time, except <module>.self_s, which is
the module's self time (see spans.self_times). Names ending in _calls count
calls. A layer the workload never reaches reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

from spans import Tracer, self_times

MODULES = ("cli", "orbits", "flat_zeta", "bf_engine", "graded_core", "feynman")

# metric -> unit, in report order
UNITS = {
    "cli.import_s": "s", "cli.self_s": "s", "cli.out_bytes": "bytes",
    "orbits.self_s": "s", "orbits.enumerate_s": "s", "orbits.load_s": "s",
    "orbits.rows_read": "count", "orbits.classes": "count", "orbits.atoms": "count",
    "flat_zeta.self_s": "s", "flat_zeta.zeta_grid_rows_s": "s", "flat_zeta.log_zeta_k_calls": "count",
    "flat_zeta.alternating_assembly_calls": "count", "flat_zeta.flat_trace_evolution_calls": "count",
    "flat_zeta.exterior_trace_calls": "count", "flat_zeta.trace_reuse": "ratio",
    "bf_engine.self_s": "s", "bf_engine.bridge_orbit_s": "s", "bf_engine.gamma_tr_orbits_s": "s",
    "bf_engine.expectation_value_s": "s", "bf_engine.closed_form_s": "s", "bf_engine.propagator_s": "s",
    "bf_engine.radius_violations": "count",
    "graded_core.self_s": "s", "graded_core.partition_calls": "count", "graded_core.partition_s": "s",
    "graded_core.complex_build_s": "s",
    "feynman.self_s": "s", "feynman.enumerate_s": "s", "feynman.automorphism_calls": "count",
    "feynman.automorphism_s": "s",
    "trace.overhead_frac": "ratio", "trace.warm_s": "s", "trace.traced_s": "s", "trace.self_sum_s": "s",
    "trace.spans": "count",
}

# span name -> metric of its inclusive time
INCLUSIVE = {
    "orbits.enumerate": "orbits.enumerate_s", "orbits.load": "orbits.load_s",
    "flat_zeta.zeta_grid_rows": "flat_zeta.zeta_grid_rows_s",
    "bf_engine.bridge_orbit": "bf_engine.bridge_orbit_s", "bf_engine.gamma_tr_orbits": "bf_engine.gamma_tr_orbits_s",
    "bf_engine.expectation_value": "bf_engine.expectation_value_s", "bf_engine.closed_form": "bf_engine.closed_form_s",
    "bf_engine.propagator": "bf_engine.propagator_s",
    "graded_core.partition": "graded_core.partition_s", "graded_core.complex_build": "graded_core.complex_build_s",
    "feynman.enumerate": "feynman.enumerate_s", "feynman.automorphism": "feynman.automorphism_s",
}

# span name -> metric of its call count
CALLS = {
    "flat_zeta.log_zeta_k": "flat_zeta.log_zeta_k_calls",
    "flat_zeta.alternating_assembly": "flat_zeta.alternating_assembly_calls",
    "flat_zeta.flat_trace_evolution": "flat_zeta.flat_trace_evolution_calls",
    "graded_core.partition": "graded_core.partition_calls",
    "feynman.automorphism": "feynman.automorphism_calls",
}


class LayerProbe:
    """A tracer plus the work counts its notes collect while the pass runs."""

    def __init__(self):
        self.tracer = Tracer()
        self.loaded: list[str] = []  # spectrum files read, once per load
        self.classes = 0
        self.orbit_sets: dict = {}  # (id(orbits), L_max) -> (orbits, m, L_max)
        self.radius_violations: list[str] = []  # list.append is atomic across pool threads

    def note_load(self, arguments, result, exc):
        self.loaded.append(str(arguments["path"]))
        self.note_classes(arguments, result, exc)

    def note_classes(self, arguments, result, exc):
        if result is not None:
            self.classes += len(result)

    def note_orbit_set(self, arguments, result, exc):
        orbits, l_max = arguments["orbits"], arguments["L_max"]
        self.orbit_sets.setdefault((id(orbits), l_max), (orbits, arguments["m"], l_max))

    def note_bridge(self, arguments, result, exc):
        self.note_orbit_set(arguments, result, exc)
        if result is not None and result.series_diverges:
            self.radius_violations.append("bridge")

    def note_expectation(self, arguments, result, exc):
        from ruellebf import bf_engine

        if isinstance(exc, bf_engine.ConvergenceRadiusError):
            self.radius_violations.append("expectation")

    def atoms(self) -> tuple[int, int]:
        """(atoms, atoms * (2m + 1)) over the distinct (orbit set, L_max) pairs evaluated."""
        atoms = traces = 0
        for orbits, m, l_max in self.orbit_sets.values():
            n = sum(int(l_max * (1 + 1e-12) // o.length) for o in orbits)
            atoms += n
            traces += n * (2 * m + 1)
        return atoms, traces

    def metrics(self, warm_s: float, traced_s: float, outputs: dict, root: Path) -> dict:
        spans = self.tracer.spans
        own = self_times(spans)
        inclusive, calls = defaultdict(float), defaultdict(int)
        for span in spans:
            inclusive[span.name] += span.end - span.start
            calls[span.name] += 1
        out = {name: 0.0 if unit == "s" else 0 for name, unit in UNITS.items()}
        for module in MODULES:
            out[f"{module}.self_s"] = sum((t for name, t in own.items() if name.split(".")[0] == module), 0.0)
        for name, metric in INCLUSIVE.items():
            out[metric] = inclusive[name]
        for name, metric in CALLS.items():
            out[metric] = calls[name]
        out["cli.out_bytes"] = sum(len(data) for data in outputs.values() if data is not None)
        out["orbits.rows_read"] = sum(_data_rows(root / path) for path in self.loaded)
        out["orbits.classes"] = self.classes
        atoms, traces = self.atoms()
        out["orbits.atoms"] = atoms
        exterior = self.tracer.count("flat_zeta.exterior_trace_calls")
        out["flat_zeta.exterior_trace_calls"] = exterior
        out["flat_zeta.trace_reuse"] = traces / exterior if exterior else 0.0
        out["bf_engine.radius_violations"] = len(self.radius_violations)
        out["trace.warm_s"] = warm_s
        out["trace.traced_s"] = traced_s
        out["trace.overhead_frac"] = traced_s / warm_s - 1
        out["trace.self_sum_s"] = sum(own.values())
        out["trace.spans"] = len(spans)
        return out


def _data_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip() and not line.startswith("#")]
    return max(len(lines) - 1, 0)


def targets(probe: LayerProbe):
    """The wrapped functions: (module, attribute path, span name or None for a counter, note)."""
    from ruellebf import bf_engine, cli, feynman, flat_zeta, graded_core, orbits

    return [
        (cli, "main", "cli.main", None),
        (orbits, "enumerate_prime_orbits", "orbits.enumerate", probe.note_classes),
        (orbits, "load_length_spectrum", "orbits.load", probe.note_load),
        (flat_zeta, "zeta_grid_rows", "flat_zeta.zeta_grid_rows", probe.note_orbit_set),
        (flat_zeta, "log_zeta_k", "flat_zeta.log_zeta_k", None),
        (flat_zeta, "euler_product_log_zeta", "flat_zeta.euler_product_log_zeta", None),
        (flat_zeta, "alternating_assembly", "flat_zeta.alternating_assembly", None),
        (flat_zeta, "flat_trace_evolution", "flat_zeta.flat_trace_evolution", None),
        (flat_zeta, "exterior_power_trace", None, "flat_zeta.exterior_trace_calls"),
        (bf_engine, "zeta_expectation_bridge", "bf_engine.bridge_orbit", probe.note_bridge),
        (bf_engine, "gamma_tr_orbits", "bf_engine.gamma_tr_orbits", None),
        (bf_engine, "expectation_value", "bf_engine.expectation_value", probe.note_expectation),
        (bf_engine, "closed_form_expectation", "bf_engine.closed_form", None),
        (bf_engine, "regularized_propagator", "bf_engine.propagator", None),
        (bf_engine, "gamma_tr", "bf_engine.gamma_tr", None),
        (bf_engine, "gamma_int", "bf_engine.gamma_int", None),
        (bf_engine, "MatrixBFModel.__post_init__", "bf_engine.model_build", None),
        (graded_core, "toy_bf_partition", "graded_core.partition", None),
        (graded_core, "ToyBFComplex.__post_init__", "graded_core.complex_build", None),
        (feynman, "enumerate_connected_quadratic", "feynman.enumerate", None),
        (feynman, "automorphism_order", "feynman.automorphism", None),
    ]
