"""The package namespace: each public name loads with its home module on first access."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import ruellebf

# the names `from ruellebf import X` has served since the package was first laid out
EXPORTED = ["BridgeGrid", "HyperbolicToralModel", "MatrixBFModel", "PrimeOrbit", "Representation",
            "SingularBlockError", "ToyBFComplex", "anosov_check", "enumerate_prime_orbits", "expectation_grid",
            "gamma_int", "gamma_tr", "load_length_spectrum", "partition_grid", "regularized_propagator",
            "zeta_expectation_bridge_grid"]


def test_all_lists_the_exported_names():
    assert sorted(ruellebf.__all__) == EXPORTED


@pytest.mark.parametrize("name", EXPORTED)
def test_each_name_is_the_object_of_its_home_module(name):
    value = getattr(ruellebf, name)
    assert value.__module__.startswith("ruellebf.")
    assert getattr(sys.modules[value.__module__], name) is value


def test_dir_and_star_import_give_every_name():
    assert set(EXPORTED) <= set(dir(ruellebf))
    namespace = {}
    exec("from ruellebf import *", namespace)
    assert set(EXPORTED) <= set(namespace)


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'ruellebf' has no attribute 'no_such_name'$"):
        ruellebf.no_such_name
    with pytest.raises(ImportError):
        exec("from ruellebf import no_such_name", {})


def test_a_name_loads_only_its_home_module():
    code = ("import json, sys, ruellebf; before = sorted(m for m in sys.modules if m.startswith(('ruellebf', 'numpy')));"
            " ruellebf.ToyBFComplex; print(json.dumps([before, sorted(m for m in sys.modules if m.startswith('ruellebf'))]))")
    env = {"PYTHONPATH": str(Path(ruellebf.__file__).resolve().parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert json.loads(out.stdout) == [["ruellebf"], ["ruellebf", "ruellebf.graded_core"]]
