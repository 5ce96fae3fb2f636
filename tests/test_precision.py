"""The working-precision context, the exact residue helper, the integer
trigonometric, pi and square-root enclosures against mpmath's interval
context, and the integer-numerator kernels against the Fraction code they
replaced.

mpmath is a test dependency only: each enclosure must contain mpmath's
interval at four times the bits (a reference far narrower than the
enclosure), and be at most four times as wide as mpmath's at the same
bits, so the integer code gives up none of the precision it replaced."""

import math
import random
from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv
from mpmath.libmp import mpf_pi, round_ceiling, round_floor

from recurlab import precision
from recurlab.precision import (Bound, CBound, chord, cis_ends, cos_turns,
                                distance_numerators, get_bits, pi_bound,
                                residue, sin_turns, working_bits)

from pair_reference import ONE, abs2, cbound_of, dist_to_one, fold_prod

huge = st.integers(min_value=2 ** 200, max_value=2 ** 400)


@given(st.fractions(max_denominator=10 ** 6),
       st.one_of(st.integers(-10 ** 6, 10 ** 6), huge, huge.map(lambda n: -n)))
def test_residue_is_n_theta_mod_1(theta, n):
    r = residue(theta, n)
    assert r == (n * theta) % 1
    assert 0 <= r < 1


@given(st.one_of(st.fractions(max_denominator=10 ** 6),
                 st.builds(F, st.integers(-2 ** 400, 2 ** 400),
                           st.integers(1, 2 ** 400))),
       st.lists(st.one_of(st.integers(-10 ** 6, 10 ** 6), huge,
                          huge.map(lambda n: -n)), max_size=40))
def test_distance_numerators_match_the_generator(theta, terms):
    def reference():
        p, q = theta.numerator, theta.denominator
        for n in terms:
            r = n * p % q
            yield min(r, q - r)
    assert distance_numerators(theta, terms) == list(reference())


def test_working_bits_sets_and_restores():
    before = get_bits()
    with working_bits(300):
        assert get_bits() == 300
        fine = chord(F(1, 7))
    assert get_bits() == before
    assert fine.width < chord(F(1, 7)).width
    with pytest.raises(ZeroDivisionError), working_bits(64):
        1 / 0
    assert get_bits() == before
    with pytest.raises(ValueError, match="meaningless"), working_bits(4):
        pass
    assert get_bits() == before


def test_trig_memo_follows_working_precision():
    t = F(2, 7)
    trig = (cos_turns, sin_turns, chord)
    with working_bits(53):
        coarse = [f(t) for f in trig]
    with working_bits(256):
        fine = [f(t) for f in trig]
        precision._cis_ends.cache_clear()
        assert fine == [f(t) for f in trig]
    assert all(a.width < b.width for a, b in zip(fine, coarse))


# ---------------------------------------------------------------------------
# the integer enclosures against mpmath's interval context
# ---------------------------------------------------------------------------

@contextmanager
def _iv_at(bits):
    """Reference: run the block with mpmath's interval context at ``bits``."""
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


def _fr(x) -> F:
    """The exact value of a raw mpf tuple."""
    sign, man, exp, _ = x
    return (-1) ** sign * F(man) * F(2) ** exp


def _bound(x) -> Bound:
    """The exact ends of an interval of mpmath's interval context."""
    return Bound(*map(_fr, x._mpi_))


def _iv(kind, x, bits) -> Bound:
    """Reference: mpmath's interval enclosure at ``bits`` of cos(2 pi x),
    sin(2 pi x), the chord 2 sin(pi x) or sqrt(x), for an exact x."""
    with _iv_at(bits):
        v = iv.mpf(x.numerator) / iv.mpf(x.denominator)
        if kind == "sqrt":
            return _bound(iv.sqrt(v))
        if kind == "chord":
            return _bound(2 * iv.sin(iv.pi * v))
        return _bound((iv.cos if kind == "cos" else iv.sin)(2 * iv.pi * v))


def _check(mine: Bound, kind, x, bits):
    """``mine`` at ``bits`` holds mpmath's enclosure at 4 bits (plus the
    bits of x's denominator, which a turn near a multiple of 1/4 needs
    for the reference to stay narrower than a relative enclosure), or lies
    in it when exact, and is at most 4 times as wide as mpmath's at
    ``bits``."""
    ref = _iv(kind, x, 4 * bits + x.denominator.bit_length())
    if mine.is_exact:
        assert ref.lo <= mine.lo <= ref.hi, (kind, x, bits)
    else:
        assert mine.lo <= ref.lo and ref.hi <= mine.hi, (kind, x, bits)
    assert mine.width <= 4 * _iv(kind, x, bits).width, (kind, x, bits)


KERNEL_BITS = (8, 53, 85, 96, 128, 256, 432)


def _kernel_turns(rng):
    """Turns in [0, 1): every turn of denominator 1, 2, 3, 4, 6, 8 and 12,
    turns within 2^-40 .. 2^-300 of each multiple of 1/4 on both sides,
    and random ones."""
    turns = {F(p, q) for q in (1, 2, 3, 4, 6, 8, 12) for p in range(q)}
    for e in (40, 100, 300):
        for near in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
            for sign in (-1, 1):
                t = near + sign * F(rng.randrange(1, 2 ** 20), 2 ** (e + 20) + 1)
                if 0 <= t < 1:
                    turns.add(t)
    while len(turns) < 90:
        q = rng.randrange(2, 2 ** rng.randrange(2, 120))
        turns.add(F(rng.randrange(q), q))
    return sorted(turns)


def test_cos_sin_and_chord_contain_the_interval_reference():
    turns = _kernel_turns(random.Random(20261019))
    for bits in KERNEL_BITS:
        with working_bits(bits):
            for t in turns:
                _check(cos_turns(t), "cos", t, bits)
                _check(sin_turns(t), "sin", t, bits)
                _check(chord(t), "chord", min(t, 1 - t), bits)


@settings(max_examples=60)
@given(st.fractions(min_value=0, max_value=1, max_denominator=10 ** 9)
       .filter(lambda t: t < 1), st.sampled_from([53, 128, 300, 2000]))
def test_cos_sin_contain_the_interval_reference_at_random_turns(t, bits):
    with working_bits(bits):
        _check(cos_turns(t), "cos", t, bits)
        _check(sin_turns(t), "sin", t, bits)


def test_cis_ends_are_the_ends_of_cos_and_sin_turns():
    for bits in KERNEL_BITS:
        with working_bits(bits):
            for t in _kernel_turns(random.Random(bits)):
                c_lo, c_hi, s_lo, s_hi, e = cis_ends(t)
                assert -2 ** e <= c_lo <= c_hi <= 2 ** e and -2 ** e <= s_lo <= s_hi <= 2 ** e
                assert Bound(F(c_lo, 2 ** e), F(c_hi, 2 ** e)) == cos_turns(t), (t, bits)
                assert Bound(F(s_lo, 2 ** e), F(s_hi, 2 ** e)) == sin_turns(t), (t, bits)


def test_pi_bound_is_mpf_pi_at_every_precision():
    for bits in range(8, 2049):
        with working_bits(bits):
            assert pi_bound() == Bound(_fr(mpf_pi(bits, round_floor)),
                                       _fr(mpf_pi(bits, round_ceiling))), bits


def test_sqrt_and_pi_contain_the_interval_reference():
    rng = random.Random(20261020)
    for bits in KERNEL_BITS:
        with working_bits(bits):
            pi = pi_bound()
            with _iv_at(4 * bits):
                ref = _bound(+iv.pi)
            assert pi.lo <= ref.lo and ref.hi <= pi.hi
            for _ in range(40):
                lo = F(rng.randrange(0, 2 ** 80), rng.randrange(1, 2 ** 60))
                for x in (lo, lo + F(rng.randrange(0, 9), rng.randrange(1, 2 ** 30))):
                    _check(Bound.exact(x).sqrt(), "sqrt", x, bits)
            assert Bound.exact(0).sqrt() == Bound.exact(0)
            assert Bound.exact(4).sqrt() == Bound.exact(2)
            assert Bound.exact(F(9, 4)).sqrt() == Bound.exact(F(3, 2))


_ends = st.one_of(st.fractions(min_value=-2, max_value=2, max_denominator=10 ** 6),
                  st.integers(-2 ** 70, 2 ** 70).map(lambda m: F(m, 2 ** 68)))
_bounds = st.lists(_ends, min_size=2, max_size=2).map(lambda p: Bound(min(p), max(p)))
# complex enclosures as pairs (re, im) of Bounds
_pairs = st.one_of(st.just(ONE), st.tuples(_bounds, _bounds),
                   st.tuples(_ends.map(Bound.exact), _ends.map(Bound.exact)))


@settings(max_examples=100)
@given(st.lists(_pairs, max_size=6))
def test_cbound_prod_matches_the_fraction_fold(factors):
    z = CBound.prod(cbound_of(*f) for f in factors)
    assert (z.re, z.im) == fold_prod(factors)


def test_cbound_prod_single_and_exact_one_factors():
    pair = (Bound(F(-1, 3), F(1, 7)), Bound(F(2, 5), F(1, 2)))
    z, one, one7 = cbound_of(*pair), CBound.exact(1), CBound(7, 7, 0, 0, 7)
    # equality compares values, over any denominators
    assert one7 == one and z != one
    assert CBound(4, 6, -9, -9, 12) == CBound(8, 12, -18, -18, 24)
    assert CBound(1, 2, 0, 0, 2) != CBound(1, 2, 0, 1, 2)
    assert CBound.prod([z]) == z
    assert CBound.prod([one, z, one]) == z
    # a factor equal to the exact 1, over any denominator, is skipped
    assert CBound.prod([one7, z, one7]).den == z.den
    assert CBound.prod([]) == one
    w = (cos_turns(F(1, 7)), sin_turns(F(1, 7)))
    prod = CBound.prod([z, one, cbound_of(*w)])
    assert (prod.re, prod.im) == fold_prod([pair, w])


# rectangles around 1 + 0i, so re - 1 and im each straddle 0, sit on one
# side of it, or touch it
_near_one = st.tuples(_bounds.map(lambda b: b + Bound.exact(1)), _bounds)


@settings(max_examples=200)
@given(st.one_of(_near_one, _pairs))
def test_dist_to_one_matches_the_fraction_route(z):
    new, old = cbound_of(*z).dist_to_one(), dist_to_one(z)
    assert (new.lo, new.hi) == (old.lo, old.hi)


def test_dist_to_one_sign_cases_and_exact_one():
    assert CBound.exact(1).dist_to_one() == Bound.exact(0)
    for re in (Bound(F(1, 2), F(3, 2)), Bound(F(1, 3), F(1)), Bound(F(1), F(9, 7)),
               Bound(F(5, 4), F(7, 4)), Bound(F(-2, 5), F(1, 9))):
        for im in (Bound(F(-1, 3), F(1, 5)), Bound.exact(0), Bound(F(-3, 8), F(-1, 8)),
                   Bound(F(2, 11), F(6, 7))):
            assert cbound_of(re, im).dist_to_one() == dist_to_one((re, im))
    w = CBound.prod([cbound_of(cos_turns(F(1, 7)), sin_turns(F(1, 7)))] * 5)
    assert w.dist_to_one() == dist_to_one((w.re, w.im))


@settings(max_examples=200)
@given(st.one_of(_near_one, _pairs))
def test_rect_dist_to_one_is_the_root_of_the_unreduced_square(z):
    # the root ends depend on the value alone, so rooting lo2 / den^2 and
    # hi2 / den^2 unreduced gives the Bound of the reduced square's root
    c = cbound_of(*z)
    for scale in (1, 3, 2 ** 40 + 1):
        big = CBound(c.re_lo * scale, c.re_hi * scale, c.im_lo * scale,
                     c.im_hi * scale, c.den * scale)
        d2 = big.den ** 2
        lo2, hi2 = big.abs2_ends()
        assert Bound(F(lo2, d2), F(hi2, d2)) == abs2(z)
        lo2, hi2 = CBound(big.re_lo - big.den, big.re_hi - big.den, big.im_lo,
                          big.im_hi, big.den).abs2_ends()
        assert big.dist_to_one() == Bound(F(lo2, d2), F(hi2, d2)).sqrt()
        assert big.dist_to_one() == c.dist_to_one()


def test_sin_and_cos_are_exact_where_rational():
    # sin and cos of a turn p/q, q | 12, are rational exactly where twice
    # the value is an integer (0, +-1/2 or +-1; the rest are +-sqrt(3)/2),
    # and an exact enclosure is that value
    for q in (1, 2, 3, 4, 6, 12):
        for p in range(q):
            t = F(p, q)
            for enclose, fn in ((cos_turns, math.cos), (sin_turns, math.sin)):
                x = 2 * fn(2 * math.pi * p / q)
                rational = abs(x - round(x)) < 1e-9
                got = enclose(t)
                assert got.is_exact == rational, (t, enclose.__name__)
                if rational:
                    assert got.lo == F(round(x), 2), (t, enclose.__name__)
    for d, value in ((F(0), 0), (F(1, 6), 1), (F(1, 2), 2)):
        assert chord(d) == chord(1 - d) == Bound.exact(value)
