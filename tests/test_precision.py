"""The working-precision context, the exact residue helper, the libmp
enclosure kernel against mpmath's interval context, and the
integer-numerator kernels against the Fraction code they replaced.

``precision`` loads mpmath's libmp package by itself, under a private
name; the references here import mpmath whole, so each comparison
cross-checks the private libmp against mpmath's own."""

import random
import sys
from contextlib import contextmanager
from fractions import Fraction as F

import mpmath.libmp
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv, mpf
from mpmath.libmp.libmpi import mpi_cos_sin

from recurlab import precision
from recurlab.precision import (Bound, CBound, _enclose, _mpf_tuple_to_fraction,
                                chord, cis_ends, cos_turns,
                                distance_numerators, get_bits, pi_bound,
                                rect_cbound, rect_of, rect_prod, residue,
                                sin_turns, working_bits)

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
        precision._enclose.cache_clear()
        assert fine == [f(t) for f in trig]
    assert all(a.width < b.width for a, b in zip(fine, coarse))


# ---------------------------------------------------------------------------
# integer-numerator kernels against their Fraction references
# ---------------------------------------------------------------------------

def _fraction_mpf(t) -> F:
    """Reference: the Fraction power of two the dyadic conversion replaced."""
    sign, man, exp, _ = t
    if man == 0 and exp == 0:
        return F(0)
    v = F(int(man)) * F(2) ** int(exp)
    return -v if sign else v


@given(st.integers(0, 1), st.integers(0, 2 ** 200), st.integers(-400, 400))
def test_dyadic_conversion_matches_fraction_powers(sign, man, exp):
    t = (sign, man, exp, man.bit_length())
    assert _mpf_tuple_to_fraction(t) == _fraction_mpf(t)


def test_dyadic_conversion_cases():
    assert _mpf_tuple_to_fraction(mpf(0)._mpf_) == 0
    assert _mpf_tuple_to_fraction(mpf(-0.375)._mpf_) == F(-3, 8)
    assert _mpf_tuple_to_fraction(mpf(-12)._mpf_) == -12        # exp > 0
    assert _mpf_tuple_to_fraction((mpf(2) ** 300 * 5)._mpf_) == 5 * 2 ** 300
    assert _mpf_tuple_to_fraction((1, 5, -3, 3)) == F(-5, 8)
    assert _mpf_tuple_to_fraction((0, 5, 3, 3)) == 40


# ---------------------------------------------------------------------------
# the libmp kernel against mpmath's interval context
# ---------------------------------------------------------------------------

def test_private_libmp_is_a_separate_load_of_mpmaths_own():
    private = sys.modules["_recurlab_libmp"]
    assert private is not mpmath.libmp
    assert private.__file__ == mpmath.libmp.__file__
    assert precision.mpi_cos_sin.__module__ == "_recurlab_libmp.libmpi"


@contextmanager
def _iv_at(bits):
    """Reference: run the block with mpmath's interval context at ``bits``."""
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


def _to_iv(x):
    """Reference: exact rational -> interval scalar (endpoints correctly rounded)."""
    fr = F(x)
    return iv.mpf(fr.numerator) / iv.mpf(fr.denominator)


def _from_iv(x) -> Bound:
    a, b = x._mpi_
    return Bound(_mpf_tuple_to_fraction(a), _mpf_tuple_to_fraction(b))


def _iv_enclose(kind, t, bits):
    """Reference: the enclosure through iv-context objects that the libmp
    kernel replaced."""
    with _iv_at(bits):
        if kind == "chord":
            b = _from_iv(2 * iv.sin(iv.pi * _to_iv(t)))
            return Bound(max(F(0), b.lo), min(F(2), b.hi))
        x = 2 * iv.pi * _to_iv(t)
        cos, sin = (Bound(max(F(-1), _mpf_tuple_to_fraction(lo)),
                          min(F(1), _mpf_tuple_to_fraction(hi)))
                    for lo, hi in mpi_cos_sin(x._mpi_, bits))
        return CBound(cos, sin)


KERNEL_BITS = (53, 85, 96, 128, 256, 400)


def _kernel_turns(rng):
    """Turns in [0, 1): every turn of denominator 1, 2, 3, 4 and 6, turns
    within 2^-40 .. 2^-300 of 0 and of 1/2 on both sides, and random ones."""
    turns = {F(p, q) for q in (1, 2, 3, 4, 6) for p in range(q)}
    for e in (40, 100, 300):
        for near in (F(0), F(1, 2), F(1)):
            for sign in (-1, 1):
                t = near + sign * F(rng.randrange(1, 2 ** 20), 2 ** (e + 20) + 1)
                if 0 <= t < 1:
                    turns.add(t)
    while len(turns) < 80:
        q = rng.randrange(2, 2 ** rng.randrange(2, 120))
        turns.add(F(rng.randrange(q), q))
    return sorted(turns)


def _cis_kernel(t, bits) -> CBound:
    """The libmp cos-sin enclosure behind ``cis_ends``, without the table
    of rational values, as the Bounds ``cos_turns`` and ``sin_turns`` make."""
    return CBound(*map(precision._unit_bound, precision._cos_sin(t, bits)))


def test_enclose_matches_the_interval_context():
    turns = _kernel_turns(random.Random(20261019))
    for bits in KERNEL_BITS:
        for t in turns:
            assert _cis_kernel(t, bits) == _iv_enclose("cis", t, bits), (t, bits)
            d = min(t, 1 - t)
            assert _enclose(d, bits) == _iv_enclose("chord", d, bits), (d, bits)


def test_sqrt_and_pi_match_the_interval_context():
    rng = random.Random(20261020)
    for bits in KERNEL_BITS:
        with working_bits(bits), _iv_at(bits):
            assert pi_bound() == _from_iv(iv.pi)
            for _ in range(40):
                lo = F(rng.randrange(0, 2 ** 80), rng.randrange(1, 2 ** 60))
                b = Bound(lo, lo + F(rng.randrange(0, 9), rng.randrange(1, 2 ** 30)))
                ref = Bound(max(F(0), _mpf_tuple_to_fraction(iv.sqrt(_to_iv(b.lo))._mpi_[0])),
                            _mpf_tuple_to_fraction(iv.sqrt(_to_iv(b.hi))._mpi_[1]))
                assert b.sqrt() == ref, (b, bits)
            assert Bound.exact(0).sqrt() == Bound.exact(0)
            assert Bound.exact(4).sqrt() == Bound.exact(2)


def test_cis_ends_are_the_ends_of_cos_and_sin_turns():
    for bits in KERNEL_BITS:
        with working_bits(bits):
            for t in _kernel_turns(random.Random(bits)):
                c, s = cis_ends(t)
                assert Bound(*map(_mpf_tuple_to_fraction, c)) == cos_turns(t), (t, bits)
                assert Bound(*map(_mpf_tuple_to_fraction, s)) == sin_turns(t), (t, bits)


def _fraction_trig(kind, t) -> Bound:
    """Reference: the separate iv.cos / iv.sin enclosure the fused call replaced."""
    trig = iv.cos if kind == "cos" else iv.sin
    b = _from_iv(trig(2 * iv.pi * _to_iv(t)))
    return Bound(max(F(-1), b.lo), min(F(1), b.hi))


@settings(max_examples=60)
@given(st.fractions(min_value=0, max_value=1, max_denominator=10 ** 9)
       .filter(lambda t: t < 1), st.sampled_from([53, 128, 300]))
def test_fused_cos_sin_matches_separate_calls(t, bits):
    with _iv_at(bits):
        z = _cis_kernel(t, bits)
        assert z.re == _fraction_trig("cos", t)
        assert z.im == _fraction_trig("sin", t)


def _fold_prod(factors) -> CBound:
    """Reference: the left fold of CBound.__mul__ from the exact 1."""
    acc = CBound.exact(1)
    for f in factors:
        acc = acc * f
    return acc


_ends = st.one_of(st.fractions(min_value=-2, max_value=2, max_denominator=10 ** 6),
                  st.integers(-2 ** 70, 2 ** 70).map(lambda m: F(m, 2 ** 68)))
_bounds = st.lists(_ends, min_size=2, max_size=2).map(lambda p: Bound(min(p), max(p)))
_cbounds = st.one_of(st.just(CBound.exact(1)), st.builds(CBound, _bounds, _bounds),
                     st.builds(CBound.exact, _ends, _ends))


@settings(max_examples=100)
@given(st.lists(_cbounds, max_size=6))
def test_cbound_prod_matches_the_fraction_fold(factors):
    assert rect_cbound(rect_prod(map(rect_of, factors))) == _fold_prod(factors)


def test_cbound_prod_single_and_exact_one_factors():
    z = CBound(Bound(F(-1, 3), F(1, 7)), Bound(F(2, 5), F(1, 2)))
    one = rect_of(CBound.exact(1))
    assert rect_cbound(rect_prod([rect_of(z)])) == z
    assert rect_cbound(rect_prod([one, rect_of(z), one])) == z
    assert rect_cbound(rect_prod([])) == CBound.exact(1)
    w = CBound(cos_turns(F(1, 7)), sin_turns(F(1, 7)))
    assert rect_cbound(rect_prod([rect_of(z), one, rect_of(w)])) == _fold_prod([z, w])


def _old_dist_to_one(z: CBound) -> Bound:
    """Reference: |z - 1| through CBound subtraction and Bound products."""
    return (z - CBound.exact(1)).abs()


# rectangles around 1 + 0i, so re - 1 and im each straddle 0, sit on one
# side of it, or touch it
_near_one = st.builds(CBound, _bounds.map(lambda b: b + Bound.exact(1)), _bounds)


@settings(max_examples=200)
@given(st.one_of(_near_one, _cbounds))
def test_dist_to_one_matches_the_fraction_route(z):
    new, old = z.dist_to_one(), _old_dist_to_one(z)
    assert (new.lo, new.hi) == (old.lo, old.hi)


def test_dist_to_one_sign_cases_and_exact_one():
    assert CBound.exact(1).dist_to_one() == Bound.exact(0)
    for re in (Bound(F(1, 2), F(3, 2)), Bound(F(1, 3), F(1)), Bound(F(1), F(9, 7)),
               Bound(F(5, 4), F(7, 4)), Bound(F(-2, 5), F(1, 9))):
        for im in (Bound(F(-1, 3), F(1, 5)), Bound.exact(0), Bound(F(-3, 8), F(-1, 8)),
                   Bound(F(2, 11), F(6, 7))):
            z = CBound(re, im)
            assert z.dist_to_one() == _old_dist_to_one(z)
    w = rect_cbound(rect_prod([rect_of(CBound(cos_turns(F(1, 7)),
                                              sin_turns(F(1, 7))))] * 5))
    assert w.dist_to_one() == _old_dist_to_one(w)
