"""Twisted Ruelle zeta functions from periodic orbits and from the
perturbative quantisation of a finite-dimensional BF-type theory."""

from .bf_engine import (
    BridgeResult,
    MatrixBFModel,
    expectation_grid,
    expectation_value,
    gamma_int,
    gamma_tr,
    partition_grid,
    perturbing_functional,
    projection_lemma_check,
    regularized_propagator,
    simplex_volume_check,
    zeta_expectation_bridge,
)
from .flat_zeta import (
    AtomicDistribution,
    ZetaSeries,
    alternating_assembly,
    euler_product_log_zeta,
    exterior_power_trace,
    flat_det_via_F,
    flat_determinant_orbit,
    flat_trace_cyclicity_check,
    flat_trace_evolution,
    log_zeta_k,
)
from .graded_core import (
    GradedOperator,
    GradedVectorSpace,
    SingularBlockError,
    ToyBFComplex,
    gaussian_partition,
    superdeterminant,
    supertrace,
)
from .orbits import (
    HyperbolicToralModel,
    PrimeOrbit,
    Representation,
    anosov_check,
    enumerate_prime_orbits,
    fixed_point_count,
    load_length_spectrum,
)
from .series import HbarSeries

__version__ = "0.1.0"
