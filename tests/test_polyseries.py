"""Algebraic properties of the dense polynomial and rational-series layer."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from successruns.polyseries import Moments, Poly, RationalGF, ladder_series

coeff = st.floats(
    min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False
)
poly = st.lists(coeff, min_size=1, max_size=6).map(Poly)
point = st.floats(min_value=-1.5, max_value=1.5)


def test_trim_and_degree():
    assert Poly((0.0, 1.0, 0.0, 0.0)).coeffs == (0.0, 1.0)
    assert Poly((0.0,)).degree == 0
    assert Poly((1.0, 0.0, 3.0)).degree == 2
    assert Poly().is_zero()
    assert not Poly((0.0, 2.0)).is_zero()


def test_term_and_getitem():
    t = Poly.term(2.5, 3)
    assert t.coeffs == (0.0, 0.0, 0.0, 2.5)
    assert t[3] == 2.5
    assert t[0] == 0.0
    assert t[99] == 0.0
    with pytest.raises(ValueError):
        Poly.term(1.0, -1)


@given(poly, poly, point)
def test_addition_evaluates_pointwise(a, b, x):
    assert math.isclose(
        (a + b)(x), a(x) + b(x), rel_tol=1e-12, abs_tol=1e-9
    )


@given(poly, poly, point)
@settings(max_examples=60)
def test_product_evaluates_pointwise(a, b, x):
    assert math.isclose(
        (a * b)(x), a(x) * b(x), rel_tol=1e-9, abs_tol=1e-7
    )


@given(poly, poly)
def test_ring_symmetry(a, b):
    assert (a + b).coeffs == (b + a).coeffs
    ab, ba = a * b, b * a
    assert ab.degree == ba.degree
    # products accumulate in different orders, so only ulp-level slack here
    assert np.allclose(ab.coeffs, ba.coeffs, rtol=1e-12, atol=1e-12)
    assert (a - a).is_zero()


@given(poly)
def test_scalar_multiple_matches_poly_product(a):
    assert (2.0 * a).coeffs == (a * Poly((2.0,))).coeffs


def test_derivative():
    p = Poly((5.0, 1.0, 3.0, 2.0))  # 5 + z + 3z^2 + 2z^3
    assert p.derivative().coeffs == (1.0, 6.0, 6.0)
    assert Poly((7.0,)).derivative().is_zero()


@given(poly, poly)
@settings(max_examples=60)
# a subnormal top coefficient rounds to 5e-324 on one side and to an exact,
# trimmed 0.0 on the other, so the two sides can differ in length
@example(Poly((0.0, 0.0, 0.0, 0.0, 1.0, 2.220446049250313e-16)), Poly((2.3e-309,)))
def test_derivative_product_rule(a, b):
    lhs = (a * b).derivative().coeffs
    rhs = (a.derivative() * b + a * b.derivative()).coeffs
    width = max(len(lhs), len(rhs))
    lhs, rhs = (np.pad(c, (0, width - len(c))) for c in (lhs, rhs))
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_rational_rejects_zero_constant_denominator():
    with pytest.raises(ValueError):
        RationalGF(Poly((1.0,)), Poly((0.0, 1.0)))


def test_rational_normalizes_denominator():
    f = RationalGF(Poly((2.0,)), Poly((2.0, -1.0)))
    assert f.den[0] == 1.0
    assert f.num[0] == 1.0


def test_series_of_geometric():
    # 1 / (1 - az) expands to a^n
    a = 0.6
    f = RationalGF(Poly((1.0,)), Poly((1.0, -a)))
    got = f.series(12)
    assert np.allclose(got, [a**n for n in range(13)], atol=1e-14)


def test_series_of_plain_polynomial():
    p = Poly((1.0, 0.0, 4.0))
    assert RationalGF(p).series(4) == [1.0, 0.0, 4.0, 0.0, 0.0]


@given(poly, poly)
@settings(max_examples=40)
def test_series_linear_in_numerator(a, b):
    den = Poly((1.0, -0.3, 0.1))
    f = RationalGF(a, den)
    g = RationalGF(b, den)
    s = RationalGF(a + b, den)
    assert np.allclose(
        np.array(f.series(10)) + np.array(g.series(10)), s.series(10),
        atol=1e-9,
    )


def test_arithmetic_consistent_with_series():
    f = RationalGF(Poly((1.0, 2.0)), Poly((1.0, -0.5)))
    g = RationalGF(Poly((0.0, 1.0)), Poly((1.0, 0.25, -0.125)))
    n = 14
    sf, sg = f.series(n), g.series(n)
    assert np.allclose(
        (f + g).series(n), np.array(sf) + np.array(sg), atol=1e-12
    )
    conv = [
        sum(sf[i] * sg[m - i] for i in range(m + 1)) for m in range(n + 1)
    ]
    assert np.allclose((f * g).series(n), conv, atol=1e-12)
    assert np.allclose((f - f).series(n), 0.0, atol=1e-15)


def test_power_matches_repeated_product():
    f = RationalGF(Poly((0.5, 0.5)), Poly((1.0, -0.25)))
    assert np.allclose((f**3).series(10), (f * f * f).series(10), atol=1e-12)
    assert (f**0).series(3) == [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        f**-1
    with pytest.raises(ValueError):
        f**0.5


#: Factor pairs (h, a) with interior zeros, negative coefficients and
#: signed zeros, a numerator with a constant term, and a denominator
#: normalized from a constant term of 2.
HAND_BUILT = [
    (
        RationalGF(Poly((0.0, 0.3, 0.0, -0.2, 0.5)), Poly((1.0, -0.4, 0.0, 0.25))),
        RationalGF(Poly((0.0, 0.0, 0.6, -0.0, -0.1, 0.5)), Poly((1.0, 0.0, -0.3, 0.1))),
    ),
    (
        RationalGF(Poly((-0.0, 0.7, 0.0, 0.0, -0.3))),
        RationalGF(Poly((0.25, -0.5, 0.0, 1.0)), Poly((2.0, 0.0, -1.0))),
    ),
]


def _series_of_powers(h, a, emax, nmax):
    return np.array([(h * a**e).series(nmax) for e in range(emax + 1)])


@pytest.mark.parametrize("h, a", HAND_BUILT)
def test_ladder_series_is_the_series_of_each_power_bit_for_bit(h, a):
    for nmax in (0, 1, 3, 9, 30):
        want = _series_of_powers(h, a, 20, nmax)
        for emax in range(21):
            got = ladder_series(h, a, emax, nmax)
            assert got.tobytes() == want[: emax + 1].tobytes(), (nmax, emax)


signed = st.one_of(st.sampled_from([0.0, -0.0]), coeff)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(signed, min_size=1, max_size=5),
    st.lists(signed, min_size=0, max_size=3),
    st.lists(signed, min_size=1, max_size=5),
    st.lists(signed, min_size=0, max_size=3),
    st.integers(0, 12),
    st.integers(0, 25),
)
def test_ladder_series_matches_the_plain_algebra(hn, hd, an, ad, emax, nmax):
    h = RationalGF(Poly(hn), Poly([1.0] + hd))
    a = RationalGF(Poly(an), Poly([1.0] + ad))
    got = ladder_series(h, a, emax, nmax)
    assert got.tobytes() == _series_of_powers(h, a, emax, nmax).tobytes()


@pytest.mark.parametrize(
    "f", [RationalGF(Poly((0.5, 0.5)), Poly((1.0, -0.25)))] + [a for _, a in HAND_BUILT]
)
def test_power_is_the_top_bit_product_bit_for_bit(f):
    # ladder_series pairs a**e as a**(e - 2**t) * a**(2**t), t the top bit
    # of e, and relies on __pow__ giving those same bits
    def bits(g):
        return repr(g.num.coeffs), repr(g.den.coeffs)

    for e in range(1, 38):
        top = 1 << (e.bit_length() - 1)
        assert bits(f**e) == bits(f ** (e - top) * f**top), e


def test_ladder_series_checks_its_integers():
    h, a = HAND_BUILT[0]
    with pytest.raises(ValueError, match="emax"):
        ladder_series(h, a, -1, 3)
    with pytest.raises(ValueError, match="nmax"):
        ladder_series(h, a, 2, 2.0)


def test_moments_at_one_geometric():
    # waiting time of a fair coin's first head: pgf pz / (1 - qz)
    p, q = 0.5, 0.5
    f = RationalGF(Poly((0.0, p)), Poly((1.0, -q)))
    m = f.moments_at_one()
    assert math.isclose(m.mass, 1.0, abs_tol=1e-12)
    assert math.isclose(m.mean, 1.0 / p, abs_tol=1e-12)
    # E[X(X-1)] = 2q/p^2
    assert math.isclose(m.second_factorial, 2 * q / p**2, abs_tol=1e-12)
    assert isinstance(m, Moments)


def test_moments_at_one_rejects_pole():
    f = RationalGF(Poly((1.0,)), Poly((1.0, -1.0)))
    with pytest.raises(ValueError):
        f.moments_at_one()


def test_series_rejects_negative_horizon():
    with pytest.raises(ValueError):
        RationalGF.one().series(-1)
