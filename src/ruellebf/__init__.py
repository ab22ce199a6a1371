"""Twisted Ruelle zeta functions from periodic orbits and from the
perturbative quantisation of a finite-dimensional BF-type theory."""

from .bf_engine import (
    BridgeGrid,
    MatrixBFModel,
    expectation_grid,
    gamma_int,
    gamma_tr,
    partition_grid,
    regularized_propagator,
    zeta_expectation_bridge_grid,
)
from .graded_core import (
    SingularBlockError,
    ToyBFComplex,
)
from .orbits import (
    HyperbolicToralModel,
    PrimeOrbit,
    Representation,
    anosov_check,
    enumerate_prime_orbits,
    load_length_spectrum,
)
from .series import HbarSeries

__version__ = "0.1.0"
