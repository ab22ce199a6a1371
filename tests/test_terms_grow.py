"""The bridge's term-decay heuristic over a whole grid (bf_engine._terms_grow) against the per-point
reference (tests/math_reference.py): the same flag at every point, zero coefficients, near-ties
and terms past the float range included."""

import cmath
import math

import numpy as np
import pytest

from ruellebf.bf_engine import _terms_grow

from math_reference import terms_grow

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def flags(terms, hbars):
    got = _terms_grow(terms, hbars)
    assert got.dtype == bool and got.shape == (len(hbars),)
    return got.tolist()


reals = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 1e300, 1.5e154, math.inf, math.nan]),
                  st.floats(-1e3, 1e3), st.floats(allow_nan=True, allow_infinity=True))
coefficients = st.one_of(st.just(0j), st.builds(complex, reals, reals))
moduli = st.one_of(st.sampled_from([0.0, 1.0, 1e-200, 1e5, 1e40, 1e160, 1e300]), st.floats(0.0, 3.0),
                   st.floats(0.0, 1e308))
hbar_values = st.builds(lambda r, phi: complex(r * math.cos(phi), r * math.sin(phi)), moduli, st.floats(-4.0, 4.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(terms=st.lists(coefficients, max_size=9), hbars=st.lists(hbar_values, min_size=1, max_size=8))
def test_grid_flags_equal_the_per_point_reference(terms, hbars):
    assert flags(terms, hbars) == [terms_grow(terms, h) for h in hbars]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(q=st.floats(0.3, 3.0), order=st.integers(2, 12), nudge=st.integers(-3, 3), phases=st.lists(
    st.floats(-4.0, 4.0), min_size=1, max_size=6), zeros=st.sets(st.integers(1, 12), max_size=4))
def test_near_ties_flag_as_the_reference(q, order, nudge, phases, zeros):
    # |c_n hbar**n| = 1 up to rounding at |hbar| = q: the first and last terms tie within a few ulps
    terms = [0j if n in zeros else cmath.exp(1j * n) / q ** n for n in range(1, order + 1)]
    r = q
    for _ in range(abs(nudge)):
        r = math.nextafter(r, math.inf if nudge > 0 else 0.0)
    hbars = [cmath.rect(r, phi) for phi in phases]
    assert flags(terms, hbars) == [terms_grow(terms, h) for h in hbars]


def test_zero_coefficients_and_overflow():
    hbars = [0j, 0.5 + 0.5j, 2.0, 1e200j, complex(1e154, 1e154), -1e-300]
    cases = [
        (0j, 0j),  # no nonzero term: never grows
        (1.0, 0j, 0j, 1.0),  # two nonzero terms
        (1e300, 1e300),  # |c hbar**n| past the float range from finite parts
        (1.0, 0j, 1.0 + 1.0j),
        (complex(math.inf, 0.0), 1.0),  # an inf coefficient: an inf term, kept
        (complex(math.nan, 0.0), 2.0, 1.0),  # a nan term is dropped
    ]
    for terms in cases:
        assert flags(terms, hbars) == [terms_grow(terms, h) for h in hbars]
    assert flags((), hbars) == [False] * len(hbars)
    assert flags((1.0, 1.0), []) == []


@pytest.mark.parametrize("order", [100, 101, 104])
def test_orders_past_100_take_the_polar_power_of_python(order):
    # CPython forms hbar**n by binary powers up to n = 100 and in polar form past it; the two differ in
    # the last bits, which decide near-ties
    rng = np.random.default_rng(order)
    random_terms = [complex(x, y) for x, y in rng.normal(size=(order, 2))]
    random_hbars = [complex(x, y) for x, y in rng.normal(scale=1.2, size=(40, 2))] + [1e5 + 0j, 0.999 - 0.01j]
    cases = [(random_terms, random_hbars)]
    for q in np.linspace(0.5, 2.0, 7).tolist():
        tie = [cmath.exp(1j * n) / q ** n for n in range(1, order + 1)]
        radii = [q, math.nextafter(q, 0.0), math.nextafter(math.nextafter(q, 0.0), 0.0)]
        cases.append((tie, [cmath.rect(r, phi) for r in radii for phi in np.linspace(-3.0, 3.0, 9).tolist()]))
    for terms, hbars in cases:
        assert flags(terms, hbars) == [terms_grow(terms, h) for h in hbars]
