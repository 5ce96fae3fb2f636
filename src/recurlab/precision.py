"""Certified real and complex arithmetic over exact rational enclosures.

Conventions used throughout the package:

* Angles are measured in *turns*: the point of the unit circle at angle
  ``theta`` turns is ``e^{2 pi i theta}``.  A turn value is an exact
  ``fractions.Fraction`` whenever possible.
* A certified real is a :class:`Bound`: a closed interval with exact
  rational endpoints guaranteed to contain the true value.  Interval
  arithmetic over Fractions is exact, so rigor is never lost to rounding;
  transcendental entry points (sin, cos, sqrt, pi) call mpmath's libmp
  interval functions on raw mpf tuples at a configurable working
  precision, and their dyadic endpoints are pulled back into Fractions
  exactly.  :func:`cis_ends` hands the raw ends of cos and sin to callers
  that work in integer units of 2^-bits (``linsys``), which take them by a
  shift and build no Fraction.
* The *chord* of a turn ``t`` is ``|e^{2 pi i t} - 1| = 2 |sin(pi t)|``.
  It depends only on the distance from ``t`` to the nearest integer and is
  monotone in that distance, which lets callers take sups and infs over
  finite residue sets on the integer numerators of
  :func:`distance_numerators`, evaluating only the extremal residue.

The working precision defaults to 128 bits and is held by mpmath's
interval context (``iv.prec``) alone; :func:`working_bits` sets it for a
block and restores it on exit.  The transcendental enclosures of
:func:`chord`, :func:`sin_turns` and :func:`cos_turns` are memoised in a
bounded cache keyed by the reduced turn value and the working bits, so a
repeated argument costs one lookup and a coarse enclosure is never served
to a finer precision; the raw ends of :func:`cis_ends` have a cache of
their own.  Cosine and sine of a turn come from one libmp evaluation and
share one cache entry.

Exact arithmetic stays exact without a gcd at every step: dyadic
endpoints become Fractions by a shift, and the products and sums that
certify a Fourier coefficient (:func:`cbound_prod` here, the atom sum of
``specmeasure.fourier_direct``) run on integer numerators over one common
denominator and are reduced to Fractions once, at the end.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from decimal import Decimal, localcontext
from math import lcm
from typing import Iterable, Iterator, Union

from mpmath import iv
from mpmath.libmp import (fhalf, fnone, fone, fzero, from_int, mpf_neg, mpf_pi,
                          mpf_sqrt, round_ceiling, round_floor)
from mpmath.libmp.libmpi import mpi_cos_sin, mpi_div, mpi_mul, mpi_sin

from .certificates import frac_str

iv.prec = 128

RationalLike = Union[int, Fraction]

# Exact chord values: residue distance -> chord.  2 sin(pi/6) = 1 is the
# only nontrivial rational chord besides the endpoints.
_EXACT_CHORDS = {
    Fraction(0): Fraction(0),
    Fraction(1, 6): Fraction(1),
    Fraction(1, 2): Fraction(2),
}

# cos(2 pi t) and sin(2 pi t) at the turns t = p/q in [0, 1) where they are
# rational, keyed by (p, q); every such value is dyadic, so it is an mpf tuple
_EXACT_COS = {(0, 1): fone, (1, 2): fnone, (1, 3): mpf_neg(fhalf),
              (2, 3): mpf_neg(fhalf), (1, 4): fzero, (3, 4): fzero,
              (1, 6): fhalf, (5, 6): fhalf}
_EXACT_SIN = {(0, 1): fzero, (1, 2): fzero, (1, 4): fone, (3, 4): fnone}
_TWO = (from_int(2), from_int(2))


def set_bits(bits: int) -> None:
    """Set the working precision for transcendental enclosures."""
    if bits < 8:
        raise ValueError("working precision below 8 bits is meaningless")
    iv.prec = int(bits)


def get_bits() -> int:
    return iv.prec


@contextmanager
def working_bits(bits: int):
    """Run the block at ``bits`` of working precision, then restore the old one."""
    old = get_bits()
    set_bits(bits)
    try:
        yield
    finally:
        iv.prec = old


def bits_for_power(n: int) -> int:
    """Working precision for enclosures at the power ``n``."""
    return 2 * n.bit_length() + 96


def residue(theta: Fraction, n: int) -> Fraction:
    """Exact ``n * theta mod 1`` in [0, 1)."""
    return Fraction((n * theta.numerator) % theta.denominator, theta.denominator)


def distance_numerators(theta: Fraction, terms: Iterable[int]) -> Iterator[int]:
    """Integer numerators ``min(r, q - r)``, ``r = n * p mod q``, of
    ``dist(n * theta, Z)`` over ``q = theta.denominator`` for each n in
    terms.  The chord is monotone in that distance, so a sup or inf over
    terms is selected on these ints and only the extreme is a Fraction."""
    p, q = theta.numerator, theta.denominator
    for n in terms:
        r = n * p % q
        yield min(r, q - r)


def _mpf_tuple_to_fraction(t) -> Fraction:
    """The exact value ``(-1)^sign man 2^exp`` of an mpmath mpf tuple."""
    sign, man, exp, _ = t
    man, exp = (-int(man) if sign else int(man)), int(exp)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _bound(ends) -> "Bound":
    """The Bound of a pair of mpf tuples."""
    return Bound(_mpf_tuple_to_fraction(ends[0]), _mpf_tuple_to_fraction(ends[1]))


def _mpi_of(x: Fraction, bits: int):
    """The libmp interval of an exact rational at ``bits``: the quotient of
    its numerator and denominator, each rounded outward."""
    p, q = x.numerator, x.denominator
    return mpi_div((from_int(p, bits, round_floor), from_int(p, bits, round_ceiling)),
                   (from_int(q, bits, round_floor), from_int(q, bits, round_ceiling)),
                   bits)


def _mpi_pi(bits: int):
    return mpf_pi(bits, round_floor), mpf_pi(bits, round_ceiling)


@dataclass(frozen=True)
class Bound:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"inverted bound [{self.lo}, {self.hi}]")

    # -- constructors -------------------------------------------------

    @staticmethod
    def exact(x: RationalLike) -> "Bound":
        fr = Fraction(x)
        return Bound(fr, fr)

    # -- queries ------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def certainly_le(self, x: RationalLike) -> bool:
        return self.hi <= Fraction(x)

    def certainly_lt(self, x: RationalLike) -> bool:
        return self.hi < Fraction(x)

    def certainly_ge(self, x: RationalLike) -> bool:
        return self.lo >= Fraction(x)

    def certainly_gt(self, x: RationalLike) -> bool:
        return self.lo > Fraction(x)

    def contains(self, x: RationalLike) -> bool:
        return self.lo <= Fraction(x) <= self.hi

    def intersects(self, other: "Bound") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    # -- exact interval arithmetic -------------------------------------

    def __add__(self, other: "Bound") -> "Bound":
        other = _as_bound(other)
        return Bound(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Bound") -> "Bound":
        other = _as_bound(other)
        return Bound(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Bound":
        return Bound(-self.hi, -self.lo)

    def __mul__(self, other: "Bound") -> "Bound":
        other = _as_bound(other)
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return Bound(min(products), max(products))

    __radd__ = __add__
    __rmul__ = __mul__

    def scale(self, c: RationalLike) -> "Bound":
        c = Fraction(c)
        if c >= 0:
            return Bound(self.lo * c, self.hi * c)
        return Bound(self.hi * c, self.lo * c)

    def abs(self) -> "Bound":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Bound(Fraction(0), max(-self.lo, self.hi))

    def max_with(self, other: "Bound") -> "Bound":
        other = _as_bound(other)
        return Bound(max(self.lo, other.lo), max(self.hi, other.hi))

    def sqrt(self) -> "Bound":
        if self.lo < 0:
            raise ValueError("sqrt of an interval reaching below 0")
        bits = get_bits()
        lo = mpf_sqrt(_mpi_of(self.lo, bits)[0], bits, round_floor)
        hi = mpf_sqrt(_mpi_of(self.hi, bits)[1], bits, round_ceiling)
        return Bound(max(Fraction(0), _mpf_tuple_to_fraction(lo)),
                     _mpf_tuple_to_fraction(hi))

    def dec(self, digits: int = 40) -> str:
        return dec_str(self.mid, digits)

    def json_value(self) -> dict:
        """The bound as ``certificates.encode_value`` writes it."""
        return {"lo": frac_str(self.lo), "hi": frac_str(self.hi),
                "dec": self.dec(40), "exact": self.is_exact}

    def __repr__(self) -> str:
        if self.is_exact:
            return f"Bound({self.lo})"
        return f"Bound[{dec_str(self.lo, 24)}, {dec_str(self.hi, 24)}]"


def _as_bound(x) -> Bound:
    if isinstance(x, Bound):
        return x
    return Bound.exact(x)


def bound_max(bounds: Iterable[Bound]) -> Bound:
    """Enclosure of max over a nonempty finite family."""
    it = iter(bounds)
    acc = next(it)
    for b in it:
        acc = acc.max_with(b)
    return acc


def bound_sum(bounds: Iterable[Bound]) -> Bound:
    acc = Bound.exact(0)
    for b in bounds:
        acc = acc + b
    return acc


def pi_bound() -> Bound:
    return _bound(_mpi_pi(get_bits()))


def two_pi_upper() -> Fraction:
    """Exact rational upper bound of 2 pi at the working precision."""
    return pi_bound().hi * 2


def residue_distance(t: RationalLike) -> Fraction:
    """Distance from a turn value to the nearest integer, in [0, 1/2]."""
    r = Fraction(t) % 1
    return min(r, 1 - r)


def chord(t: RationalLike) -> Bound:
    """Certified |e^{2 pi i t} - 1| for an exact turn value t."""
    d = residue_distance(Fraction(t))
    exact = _EXACT_CHORDS.get(d)
    if exact is not None:
        return Bound.exact(exact)
    return _enclose("chord", d, get_bits())


def sin_turns(t: RationalLike) -> Bound:
    """Certified sin(2 pi t)."""
    fr = Fraction(t) % 1
    exact = _EXACT_SIN.get((fr.numerator, fr.denominator))
    if exact is not None:
        return Bound.exact(_mpf_tuple_to_fraction(exact))
    return _enclose("cis", fr, get_bits()).im


def cos_turns(t: RationalLike) -> Bound:
    """Certified cos(2 pi t)."""
    fr = Fraction(t) % 1
    exact = _EXACT_COS.get((fr.numerator, fr.denominator))
    if exact is not None:
        return Bound.exact(_mpf_tuple_to_fraction(exact))
    return _enclose("cis", fr, get_bits()).re


def _cos_sin(t: Fraction, bits: int):
    """The libmp enclosures ((cos_lo, cos_hi), (sin_lo, sin_hi)) of
    cos(2 pi t) and sin(2 pi t) at ``bits``, as mpf tuples: 2 pi t is the
    product of the exact 2, pi and t in that order, each product rounded
    outward, and both come from one ``mpi_cos_sin``, whose ends never
    leave [-1, 1]."""
    x = mpi_mul(mpi_mul(_TWO, _mpi_pi(bits), bits), _mpi_of(t, bits), bits)
    return mpi_cos_sin(x, bits)


# A linsys diagonal chain asks for the chord keys of at most 4N + 48
# candidate moves; the cos-sin keys of its powers go to _cis_ends.
@lru_cache(maxsize=4096)
def _enclose(kind: str, t: Fraction, bits: int) -> Bound | CBound:
    """The enclosure of the reduced turn value t at ``bits`` of working
    precision: for kind "chord" the Bound of the chord 2 sin(pi t), for
    kind "cis" the CBound of ``e^{2 pi i t}`` from ``_cos_sin``.  Memoised
    on all three arguments, so an enclosure made at one precision is never
    served at another; Bounds and CBounds are frozen, so callers may share
    them."""
    if kind == "chord":
        # sin is evaluated on [0, 1/2] turns where the chord lies in [0, 2]
        pi_t = mpi_mul(_mpi_pi(bits), _mpi_of(t, bits), bits)
        b = _bound(mpi_mul(_TWO, mpi_sin(pi_t, bits), bits))
        return Bound(max(Fraction(0), b.lo), min(Fraction(2), b.hi))
    cos, sin = (Bound(max(Fraction(-1), _mpf_tuple_to_fraction(lo)),
                      min(Fraction(1), _mpf_tuple_to_fraction(hi)))
                for lo, hi in _cos_sin(t, bits))
    return CBound(cos, sin)


# One linsys.build_operator at dimension N and horizon K computes each
# power once and asks for at most N(K + 2) cos-sin keys, all at one working
# precision: the N diagonal angles, and the N residues at each k (the
# residues at k = 0 are the angles when n_0 = 1), each residue serving its
# diagonal entry and its chord.  A repeated build asks again in the same
# order, and an LRU cache smaller than such a cycle never hits, so the
# bound holds the 1,408 keys of dimension 64, horizon 20.
@lru_cache(maxsize=4096)
def _cis_ends(t: Fraction, bits: int):
    key = t.numerator, t.denominator
    cos, sin = _EXACT_COS.get(key), _EXACT_SIN.get(key)
    if sin is not None:
        return (cos, cos), (sin, sin)
    ends = _cos_sin(t, bits)
    return ends if cos is None else ((cos, cos), ends[1])


def cis_ends(t: Fraction):
    """The ends of ``cos_turns(t)`` and ``sin_turns(t)`` for a turn t in
    [0, 1) at the working precision, as mpf tuples ((cos_lo, cos_hi),
    (sin_lo, sin_hi)), for callers that compute on the dyadic ends
    themselves; a rational cosine or sine has equal ends.  Memoised on t
    and the working bits."""
    return _cis_ends(t, get_bits())


@dataclass(frozen=True)
class CBound:
    """Certified complex number: a rectangle re x im of exact rationals."""

    re: Bound
    im: Bound

    @staticmethod
    def exact(re: RationalLike, im: RationalLike = 0) -> "CBound":
        return CBound(Bound.exact(re), Bound.exact(im))

    @staticmethod
    def from_turns(t: RationalLike) -> "CBound":
        """Enclosure of e^{2 pi i t}."""
        return CBound(cos_turns(t), sin_turns(t))

    @property
    def is_exact(self) -> bool:
        return self.re.is_exact and self.im.is_exact

    def json_value(self) -> dict:
        return {"re": self.re.json_value(), "im": self.im.json_value()}

    def __add__(self, other: "CBound") -> "CBound":
        return CBound(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "CBound") -> "CBound":
        return CBound(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "CBound") -> "CBound":
        return CBound(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    def scale(self, c: RationalLike) -> "CBound":
        return CBound(self.re.scale(c), self.im.scale(c))

    def abs2(self) -> Bound:
        a = self.re.abs()
        b = self.im.abs()
        return a * a + b * b

    def abs(self) -> Bound:
        return self.abs2().sqrt()

    def dist_to_one(self) -> Bound:
        """``(self - 1).abs()``, squared on integer numerators over the common
        denominator d (``Bound.abs``'s sign cases) and reduced once, over d²."""
        ends = (self.re.lo - 1, self.re.hi - 1, self.im.lo, self.im.hi)
        d = lcm(*(e.denominator for e in ends))
        n = [e.numerator * (d // e.denominator) for e in ends]
        lo2 = hi2 = 0
        for lo, hi in (n[:2], n[2:]):
            lo, hi = (lo, hi) if lo >= 0 else (-hi, -lo) if hi <= 0 else (0, max(-lo, hi))
            lo2, hi2 = lo2 + lo * lo, hi2 + hi * hi
        return Bound(Fraction(lo2, d * d), Fraction(hi2, d * d)).sqrt()


_ONE = CBound.exact(1)


def cbound_prod(factors: Iterable[CBound]) -> CBound:
    """The product of the factors, equal to the left fold of ``CBound.__mul__``
    from the exact 1.

    The rectangle is carried as four integer numerators over one running
    denominator: each factor is brought to the lcm of its endpoint
    denominators, the interval products take the min and max of the same
    four products as ``Bound.__mul__`` scaled by a positive integer, and
    only the result is reduced to Fractions.  Factors equal to the exact 1
    leave the rectangle as it is and are skipped.
    """
    re_lo, re_hi, im_lo, im_hi, den = 1, 1, 0, 0, 1
    for f in factors:
        if f == _ONE:
            continue
        ends = (f.re.lo, f.re.hi, f.im.lo, f.im.hi)
        d = lcm(*(e.denominator for e in ends))
        x_lo, x_hi, y_lo, y_hi = (e.numerator * (d // e.denominator) for e in ends)
        rr = (re_lo * x_lo, re_lo * x_hi, re_hi * x_lo, re_hi * x_hi)
        ii = (im_lo * y_lo, im_lo * y_hi, im_hi * y_lo, im_hi * y_hi)
        ri = (re_lo * y_lo, re_lo * y_hi, re_hi * y_lo, re_hi * y_hi)
        ir = (im_lo * x_lo, im_lo * x_hi, im_hi * x_lo, im_hi * x_hi)
        re_lo, re_hi, im_lo, im_hi = (min(rr) - max(ii), max(rr) - min(ii),
                                      min(ri) + min(ir), max(ri) + max(ir))
        den *= d
    return CBound(Bound(Fraction(re_lo, den), Fraction(re_hi, den)),
                  Bound(Fraction(im_lo, den), Fraction(im_hi, den)))


def dec_str(fr: Fraction, digits: int = 40) -> str:
    """Decimal rendering of an exact rational (display only, not a bound)."""
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(fr.numerator) / Decimal(fr.denominator)
    return format(d, "g")
