"""Twisted Ruelle zeta functions from periodic orbits and from the
perturbative quantisation of a finite-dimensional BF-type theory.

The public names load with their home module on first access (PEP 562), so
importing the package, or one CLI command, loads only the modules it uses.
"""

import importlib

_HOMES = {
    "bf_engine": ("BridgeGrid", "MatrixBFModel", "expectation_grid", "gamma_int", "gamma_tr", "partition_grid",
                  "regularized_propagator", "zeta_expectation_bridge_grid"),
    "graded_core": ("SingularBlockError", "ToyBFComplex"),
    "orbits": ("HyperbolicToralModel", "PrimeOrbit", "Representation", "anosov_check", "enumerate_prime_orbits",
               "load_length_spectrum"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
