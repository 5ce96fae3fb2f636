"""Containment tests for the integer ball kernel of ``precision``.

A ball ``(re, im, rad)`` of ints stands for the closed disk of centre
``re + i im`` and radius ``rad`` in units of 2^-p.  Each test draws exact
complex rationals inside the input balls (on the boundary too), computes
the exact result in Fractions, and asserts that the output ball holds it.
Small ``p`` (0 to 8) makes every floor count, radius-0 inputs leave the
rounding charges alone to cover the floors, and large magnitudes reach the
shifted branches of ``_abs_hi`` and ``_abs_lo``."""

from fractions import Fraction as F
from math import isqrt

from hypothesis import assume, given, settings, strategies as st

from recurlab.precision import (_abs_hi, _abs_lo, ball_lower, ball_mul, ball_pow,
                                ball_recip, ball_scale, ball_shift, ball_sub,
                                ball_upper)

_D = 1 << 20        # the points of a ball are centre + rad (a + i b) / _D

_parts = st.one_of(st.integers(-2 ** 12, 2 ** 12), st.integers(-2 ** 200, 2 ** 200))
_rads = st.one_of(st.just(0), st.integers(0, 16), st.integers(0, 2 ** 200))
_units = st.integers(0, 8)


@st.composite
def _balls(draw, away_from_zero=False):
    """A ball, and a point of it as a pair of Fractions in its units."""
    re, im, rad = draw(_parts), draw(_parts), draw(_rads)
    if away_from_zero:
        m = isqrt(re * re + im * im)
        assume(m >= 2)
        rad %= m // 2
    a, b = draw(st.integers(-_D, _D)), draw(st.integers(-_D, _D))
    d = _D if a * a + b * b <= _D * _D else 2 * _D
    return (re, im, rad), (re + F(rad * a, d), im + F(rad * b, d))


def _holds(ball, z) -> bool:
    re, im, rad = ball
    x, y = z
    return rad >= 0 and (x - re) ** 2 + (y - im) ** 2 <= rad * rad


def _mul(z, w, p):
    """z w in units 2^-p, for z and w in those units."""
    (x, y), (u, v) = z, w
    return F(x * u - y * v, 2 ** p), F(x * v + y * u, 2 ** p)


@settings(max_examples=300)
@given(_balls(), _balls())
def test_ball_sub_holds_the_difference(a, b):
    (ba, za), (bb, zb) = a, b
    assert _holds(ball_sub(ba, bb), (za[0] - zb[0], za[1] - zb[1]))


@settings(max_examples=300)
@given(_balls(), _balls(), _units)
def test_ball_mul_holds_the_product(a, b, p):
    (ba, za), (bb, zb) = a, b
    assert _holds(ball_mul(ba, bb, p), _mul(za, zb, p))


@settings(max_examples=300)
@given(_balls(), _units)
def test_ball_mul_of_exact_centres_holds_the_product(a, p):
    # radius 0: only the floors' charge covers the low bits of the product
    (re, im, _), _ = a
    c = (re, im, 0)
    w = (re + 3, -im - 1, 0)
    assert _holds(ball_mul(c, w, p), _mul((re, im), (re + 3, -im - 1), p))
    assert _holds(ball_mul(c, c, p), _mul((re, im), (re, im), p))


@settings(max_examples=200)
@given(_balls(), st.integers(1, 6), _units, st.booleans())
def test_ball_pow_holds_the_power(a, e, p, exact):
    ball, z = a
    if exact:
        ball, z = (ball[0], ball[1], 0), tuple(map(F, ball[:2]))
    w = z
    for _ in range(e - 1):
        w = _mul(w, z, p)
    assert _holds(ball_pow(ball, e, p), w)


@settings(max_examples=300)
@given(_balls(away_from_zero=True), _units, st.booleans())
def test_ball_recip_holds_the_reciprocal(a, p, exact):
    ball, (x, y) = a
    if exact:
        ball, (x, y) = (ball[0], ball[1], 0), map(F, ball[:2])
    n = x * x + y * y           # 1/w in units 2^-p is 4^p conj(w) / |w|^2
    assert _holds(ball_recip(ball, p), (x * 4 ** p / n, -y * 4 ** p / n))


@settings(max_examples=300)
@given(_balls(), st.one_of(st.fractions(min_value=0, max_value=4, max_denominator=10 ** 6),
                           st.integers(0, 40).map(lambda s: F(1, 2 ** s))),
       st.booleans())
def test_ball_scale_holds_the_scaled_point(a, w, exact):
    ball, (x, y) = a
    if exact:
        ball, (x, y) = (ball[0], ball[1], 0), map(F, ball[:2])
    assert _holds(ball_scale(ball, w), (x * w, y * w))


@settings(max_examples=300)
@given(_balls(), st.integers(0, 40), st.booleans())
def test_ball_shift_holds_the_point_in_the_coarser_unit(a, s, exact):
    ball, (x, y) = a
    if exact:
        ball, (x, y) = (ball[0], ball[1], 0), map(F, ball[:2])
    assert _holds(ball_shift(ball, s), (x / 2 ** s, y / 2 ** s))


@settings(max_examples=500)
@given(_parts, _parts)
def test_abs_hi_and_abs_lo_bracket_the_modulus(x, y):
    n = x * x + y * y
    hi, lo = _abs_hi(x, y), _abs_lo(x, y)
    assert 0 <= lo and lo * lo <= n <= hi * hi


@settings(max_examples=300)
@given(_balls())
def test_ball_upper_and_lower_bracket_the_modulus_over_the_ball(a):
    ball, (x, y) = a
    n = x * x + y * y
    up, low = ball_upper(ball), ball_lower(ball)
    assert 0 <= low and low * low <= n <= up * up
