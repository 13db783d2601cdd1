"""The closed forms on arrays: one implementation serves a single point and a
whole column, so an array call equals its scalar calls element by element
(sign of zero included), and both stay within 1e-14 of the scalar `math`
formulas kept below as the reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdephase import measures, refsearch
from qdephase.channel import ChannelParams, decoherence_factor

EPS = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
ABS_A = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
CONCURRENCE = st.sampled_from([0.0, 1.0, 1.0 + 1e-13]) | st.floats(0.0, 1.0)
NTILDE = st.sampled_from([0.0]) | st.floats(0.0, 5.0)
PHASE = st.floats(-50.0, 50.0)


def ref_concurrence_family(epsilon, abs_a):
    n = epsilon**2 + (1.0 - epsilon) ** 2
    rad = 1.0 - 2.0 * epsilon**2 * (1.0 - epsilon) ** 2 * (1.0 - abs_a**2) / n**2
    return math.sqrt(max(0.0, rad))


def ref_eof(c):
    c = min(c, 1.0)
    x = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c)))
    total = 0.0
    for v in (x, 1.0 - x):
        if v > 0.0:
            total -= v * math.log2(v)
    return total


def ref_mixed_fidelity(epsilon, abs_a, ntilde, phase):
    n = epsilon**2 + (1.0 - epsilon) ** 2
    w = epsilon * (1.0 - epsilon) / n
    x = math.exp(-2.0 * ntilde)
    fid = (1.0 - 2.0 * w * w
           + 2.0 * w * w * abs_a * x * math.cos(phase)
           + 2.0 * w * w * math.sqrt(max(0.0, (1.0 - abs_a**2) * (1.0 - x * x))))
    return min(1.0, max(0.0, fid))


def ref_decoherence_factor(p, t):
    theta = (p.mu1 + p.mu2) * t
    mag = math.exp(p.ntilde * (math.cos(theta) - 1.0))
    phase = (p.omega1 + p.omega2) * t + p.ntilde * math.sin(theta)
    return mag * complex(math.cos(phase), -math.sin(phase)), 1.0 - mag * mag, phase


def assert_elementwise(got, scalars):
    """got equals the scalar results bit for bit, sign of zero included."""
    expect = np.array(scalars)
    assert got.shape == expect.shape
    pairs = ([(got, expect)] if got.dtype.kind == "f"
             else [(got.real, expect.real), (got.imag, expect.imag)])
    for g, e in pairs:
        assert np.array_equal(g, e)
        assert np.array_equal(np.signbit(g), np.signbit(e))


@settings(max_examples=80, deadline=None)
@given(eps=EPS, abs_a=st.lists(ABS_A, min_size=1, max_size=12))
def test_concurrence_family(eps, abs_a):
    got = measures.concurrence_family(eps, np.array(abs_a))
    scalars = [measures.concurrence_family(eps, a) for a in abs_a]
    assert all(isinstance(v, float) for v in scalars)
    assert_elementwise(got, scalars)
    for a, v in zip(abs_a, scalars):
        assert abs(v - ref_concurrence_family(eps, a)) <= 1e-14


@settings(max_examples=80, deadline=None)
@given(c=st.lists(CONCURRENCE, min_size=1, max_size=12))
def test_eof(c):
    got = measures.eof(np.array(c))
    scalars = [measures.eof(x) for x in c]
    assert all(isinstance(v, float) for v in scalars)
    assert_elementwise(got, scalars)
    for x, v in zip(c, scalars):
        assert abs(v - ref_eof(x)) <= 1e-14


@settings(max_examples=80, deadline=None)
@given(eps=EPS, ntilde=NTILDE,
       points=st.lists(st.tuples(ABS_A, PHASE), min_size=1, max_size=12))
def test_mixed_ref_measure_family(eps, ntilde, points):
    abs_a, phase = (np.array(v) for v in zip(*points))
    got = refsearch.mixed_ref_measure_family(eps, abs_a, ntilde, phase)
    scalars = [refsearch.mixed_ref_measure_family(eps, a, ntilde, p) for a, p in points]
    assert all(isinstance(v, float) for v in scalars)
    assert_elementwise(got, scalars)
    # compared as fidelities (1 - e)^2: near a vanishing fidelity the square
    # root turns a 1-ulp difference of cos into a large one in e
    for (a, p), v in zip(points, scalars):
        assert abs((1.0 - v) ** 2 - ref_mixed_fidelity(eps, a, ntilde, p)) <= 1e-14


@settings(max_examples=80, deadline=None)
@given(ntilde=NTILDE, mu=st.floats(0.0, 3.0), omega=st.floats(0.0, 3.0),
       t=st.lists(st.sampled_from([0.0]) | st.floats(0.0, 20.0), min_size=1,
                  max_size=12))
def test_decoherence_factor(ntilde, mu, omega, t):
    c = ChannelParams(omega1=omega, omega2=1.0, mu1=mu, mu2=0.5, ntilde=ntilde)
    got = decoherence_factor(c, np.array(t))
    single = [decoherence_factor(c, x) for x in t]
    for name in ("a", "gamma", "phase"):
        assert_elementwise(getattr(got, name), [getattr(d, name) for d in single])
    for x, d in zip(t, single):
        a, gamma, phase = ref_decoherence_factor(c, x)
        assert abs(d.a - a) <= 1e-14
        assert abs(d.gamma - gamma) <= 1e-14
        assert abs(d.phase - phase) <= 1e-14


@pytest.mark.parametrize("c, shown", [
    ([0.2, 0.5, 1.5, -0.1], "got 1.5"),
    ([0.2, math.nan, 1.5], "got nan"),
    ([1.0 + 1e-12, -1e-300], "got -1e-300"),
    (2.0, "got 2.0")])
def test_eof_names_the_first_bad_value(c, shown):
    with pytest.raises(ValueError, match=shown):
        measures.eof(np.array(c))
