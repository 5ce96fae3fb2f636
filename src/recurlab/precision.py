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
  exactly.  The installed ``mpmath/libmp`` package is loaded by itself,
  under the private name ``_recurlab_libmp``, so the rest of mpmath (its
  contexts, function library, calculus, matrices and plotting) is never
  imported.  :func:`cis_ends` hands the raw ends of cos and sin to callers
  that work on integers (the 2^-bits units of ``linsys``, the Fourier
  rectangles of ``specmeasure``), which take them by a shift and build no
  Fraction.
* The *chord* of a turn ``t`` is ``|e^{2 pi i t} - 1| = 2 |sin(pi t)|``.
  It depends only on the distance from ``t`` to the nearest integer and is
  monotone in that distance, which lets callers take sups and infs over
  finite residue sets on the integer numerators of
  :func:`distance_numerators`, evaluating only the extremal residue.

The working precision defaults to 128 bits and is one value held by this
module alone: :func:`set_bits` sets it, :func:`get_bits` reads it, and
:func:`working_bits` sets it for a block and restores it on exit.  The
transcendental enclosures are memoised in two bounded caches keyed by the
reduced turn value and the working bits, so a repeated argument costs one
lookup and a coarse enclosure is never served to a finer precision: the
chord Bounds of :func:`chord`, and the raw mpf ends of :func:`cis_ends`,
of which :func:`cos_turns` and :func:`sin_turns` are the Bounds.  Cosine
and sine of a turn come from one libmp evaluation and share one cache
entry.

Exact arithmetic stays exact without a gcd at every step: dyadic
endpoints become integers or Fractions by a shift, and a certified
Fourier coefficient is an integer rectangle ``(re_lo, re_hi, im_lo,
im_hi, den)`` from the atom sum of ``specmeasure`` (the ``cis_ends``
weighted over one common denominator) through the products of
:func:`rect_prod` to :func:`rect_dist_to_one`.  Fractions are reduced
once, where a caller reads them; ``CBound.dist_to_one`` is the same
kernel on a CBound.  A complex ball ``(re, im, rad)`` of integers in units
of ``2^-p`` is the midpoint-radius kernel (``ball_sub``, ``ball_mul``,
``ball_recip``, ``ball_pow``, ``ball_scale`` and ``ball_shift`` to a coarser
unit), on which ``linsys`` runs its powers of T.  :func:`dyadic` is the one
reader of the mpf tuple layout.

One helper certifies nothing: :func:`seeded_uniforms` gives both
Monte-Carlo routes (``linsys``'s ball spot check and ``specmeasure``'s
``gauss`` sampler) their seeded uniforms.
"""

from __future__ import annotations

import importlib.util
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from decimal import Decimal, localcontext
from math import isqrt, lcm
from pathlib import Path
from typing import Iterable, Union

from .certificates import frac_str


def _load_libmp() -> None:
    """Register the installed ``mpmath/libmp`` package as the top-level
    ``_recurlab_libmp`` without running ``mpmath/__init__.py``: libmp
    imports only its own modules, relatively, so they load under that name.
    ``find_spec`` of a top-level name locates mpmath without importing it."""
    libmp = Path(importlib.util.find_spec("mpmath").origin).parent / "libmp"
    spec = importlib.util.spec_from_file_location(
        "_recurlab_libmp", libmp / "__init__.py",
        submodule_search_locations=[str(libmp)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)


_load_libmp()

from _recurlab_libmp import (fhalf, fnone, fone, fzero, from_int,  # noqa: E402
                             mpf_neg, mpf_pi, mpf_sqrt, round_ceiling,
                             round_floor)
from _recurlab_libmp.libmpi import mpi_cos_sin, mpi_div, mpi_mul, mpi_sin  # noqa: E402

_bits = 128     # the working precision of the transcendental enclosures

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
    global _bits
    _bits = int(bits)


def get_bits() -> int:
    return _bits


@contextmanager
def working_bits(bits: int):
    """Run the block at ``bits`` of working precision, then restore the old one."""
    old = get_bits()
    set_bits(bits)
    try:
        yield
    finally:
        set_bits(old)


def bits_for_power(n: int) -> int:
    """Working precision for enclosures at the power ``n``."""
    return 2 * n.bit_length() + 96


def residue(theta: Fraction, n: int) -> Fraction:
    """Exact ``n * theta mod 1`` in [0, 1)."""
    return Fraction((n * theta.numerator) % theta.denominator, theta.denominator)


def distance_numerators(theta: Fraction, terms: Iterable[int]) -> list[int]:
    """The list of integer numerators ``min(r, q - r)``, ``r = n * p mod
    q``, of ``dist(n * theta, Z)`` over ``q = theta.denominator``, one per
    n in terms, in order.  The chord is monotone in that distance, so a sup
    or inf over terms is selected on these ints and only the extreme is a
    Fraction.  One list comprehension, with no call per term."""
    p, q = theta.numerator, theta.denominator
    return [r if (r := n * p % q) + r <= q else q - r for n in terms]


def dyadic(x) -> tuple[int, int]:
    """(v, e) with v 2^e the value of an mpf tuple: this module alone reads
    the mpf layout ``(sign, man, exp, bc)``."""
    sign, man, exp, _ = x
    return (-int(man) if sign else int(man)), int(exp)


def _mpf_tuple_to_fraction(t) -> Fraction:
    """The exact value ``(-1)^sign man 2^exp`` of an mpmath mpf tuple."""
    v, e = dyadic(t)
    return Fraction(v << e) if e >= 0 else Fraction(v, 1 << -e)


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
    return _enclose(d, get_bits())


def _unit_bound(ends) -> Bound:
    """The Bound of a pair of ``cis_ends`` mpf tuples, clamped to [-1, 1]."""
    return Bound(max(Fraction(-1), _mpf_tuple_to_fraction(ends[0])),
                 min(Fraction(1), _mpf_tuple_to_fraction(ends[1])))


def sin_turns(t: RationalLike) -> Bound:
    """Certified sin(2 pi t)."""
    return _unit_bound(cis_ends(Fraction(t) % 1)[1])


def cos_turns(t: RationalLike) -> Bound:
    """Certified cos(2 pi t)."""
    return _unit_bound(cis_ends(Fraction(t) % 1)[0])


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
def _enclose(t: Fraction, bits: int) -> Bound:
    """The Bound of the chord 2 sin(pi t) of the residue distance t at
    ``bits`` of working precision.  Memoised on both arguments, so an
    enclosure made at one precision is never served at another; Bounds
    are frozen, so callers may share them."""
    # sin is evaluated on [0, 1/2] turns where the chord lies in [0, 2]
    pi_t = mpi_mul(_mpi_pi(bits), _mpi_of(t, bits), bits)
    b = _bound(mpi_mul(_TWO, mpi_sin(pi_t, bits), bits))
    return Bound(max(Fraction(0), b.lo), min(Fraction(2), b.hi))


# One linsys.build_operator or power_norm asks for the N cos-sin keys of
# its diagonal angles, at one working precision.  The atom residues of the product-formula factors (one
# key per Kahane factor and frequency residue, and the exact 0) and
# cos_turns and sin_turns share the cache.
@lru_cache(maxsize=4096)
def _cis_ends(t: Fraction, bits: int):
    key = t.numerator, t.denominator
    cos, sin = _EXACT_COS.get(key), _EXACT_SIN.get(key)
    if sin is not None:
        return (cos, cos), (sin, sin)
    ends = _cos_sin(t, bits)
    return ends if cos is None else ((cos, cos), ends[1])


def cis_ends(t: Fraction):
    """The ends of cos(2 pi t) and sin(2 pi t) for a turn t in [0, 1) at
    the working precision, as mpf tuples ((cos_lo, cos_hi), (sin_lo,
    sin_hi)), for callers that compute on the dyadic ends themselves;
    ``cos_turns`` and ``sin_turns`` are their Bounds, and a rational cosine
    or sine has equal ends.  Memoised on t and the working bits."""
    return _cis_ends(t, get_bits())


@dataclass(frozen=True)
class CBound:
    """Certified complex number: a rectangle re x im of exact rationals."""

    re: Bound
    im: Bound

    @staticmethod
    def exact(re: RationalLike, im: RationalLike = 0) -> "CBound":
        return CBound(Bound.exact(re), Bound.exact(im))

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
        """``(self - 1).abs()``; see :func:`rect_dist_to_one`."""
        return rect_dist_to_one(rect_of(self))


# ---------------------------------------------------------------------------
# complex balls in integer units
# ---------------------------------------------------------------------------
# A ball (re, im, rad) of ints, rad >= 0, is the closed disk with centre
# (re + i im) 2^-p and radius rad 2^-p, for a unit 2^-p that its caller
# holds (midpoint-radius arithmetic, Rump, BIT 1999).  A difference is
# exact; a product, a reciprocal, a rational scale or a shift to a coarser
# unit is exact on integers until its one floor back to the unit, and the
# radius absorbs that loss, so no rounding model is involved.  The powers
# of ``linsys`` run on them.

def ceil_sqrt(x: int) -> int:
    r = isqrt(x)
    return r if r * r == x else r + 1


def _abs_hi(x: int, y: int) -> int:
    """An upper bound of |x + i y|: exact below 2^30, and within a factor
    1 + 2^-28 above, from the top 30 bits of the larger part."""
    x, y = abs(x), abs(y)
    s = (x if x > y else y).bit_length() - 30
    if s <= 0:
        return ceil_sqrt(x * x + y * y)
    x, y = (x >> s) + 1, (y >> s) + 1
    return (isqrt(x * x + y * y) + 1) << s


def _abs_lo(x: int, y: int) -> int:
    """A lower bound of |x + i y|, the counterpart of ``_abs_hi``."""
    x, y = abs(x), abs(y)
    s = max(0, (x if x > y else y).bit_length() - 30)
    x, y = x >> s, y >> s
    return isqrt(x * x + y * y) << s


def ball_of_cis(cis, p: int) -> tuple[int, int, int]:
    """The unit-circle point with the ``cis_ends`` enclosures cis as a ball
    in 2^-p units: each end is one shift of its mantissa, floored or ceiled
    outward, clamped to [-1, 1]."""
    one = 1 << p
    parts = []
    for lo, hi in cis:
        (a, ea), (b, eb) = dyadic(lo), dyadic(hi)
        lo, hi = max(_shift(a, ea + p), -one), min(-_shift(-b, eb + p), one)
        mid = (lo + hi) >> 1
        parts.append((mid, hi - mid))
    (re, re_rad), (im, im_rad) = parts
    return re, im, re_rad + im_rad


def _shift(v: int, s: int) -> int:
    """floor(v 2^s)."""
    return v << s if s >= 0 else v >> -s


def ball_sub(a, b) -> tuple[int, int, int]:
    return a[0] - b[0], a[1] - b[1], a[2] + b[2]


def ball_shift(a, s: int) -> tuple[int, int, int]:
    """The ball a in units 2^s times coarser, s >= 0: floored centre, ceiled
    radius, and one more unit for each part that lost nonzero bits."""
    re, im, rad = a
    low = (1 << s) - 1
    return (re >> s, im >> s,
            -(-rad >> s) + (re & low != 0) + (im & low != 0))


def ball_mul(a, b, p: int) -> tuple[int, int, int]:
    """The product of two balls in 2^-p units: the centre product is exact
    in 4^-p units, from three real products (the imaginary part is (ar +
    ai)(br + bi) - ar br - ai bi), and |ca| rb + ra (|cb| + rb) bounds the
    rest."""
    ar, ai, arad = a
    br, bi, brad = b
    rr, ii = ar * br, ai * bi
    re, im = rr - ii, (ar + ai) * (br + bi) - rr - ii
    rad = _abs_hi(ar, ai) * brad + arad * (_abs_hi(br, bi) + brad)
    low = (1 << p) - 1
    return re >> p, im >> p, -(-rad >> p) + (re & low != 0) + (im & low != 0)


def ball_pow(a, e: int, p: int) -> tuple[int, int, int]:
    """a^e for e >= 1 by binary powering."""
    out = None
    while True:
        if e & 1:
            out = a if out is None else ball_mul(out, a, p)
        e >>= 1
        if not e:
            return out
        a = ball_mul(a, a, p)


def ball_recip(a, p: int) -> tuple[int, int, int]:
    """1/w for every w of the ball a in 2^-p units, which must not hold 0.
    The centre 4^p conj(c) / |c|^2 takes one long division, t =
    floor(2^(2p + g) / |c|^2) with 2^g > 2 max(|re|, |im|), so each part of
    (re, -im) t 2^-g is within 1/2 of it and within 3/2 once floored; the
    radius adds |1/w - 1/c| <= r / (|c| (|c| - r)), in units 4^p r / (lo
    (lo - r)) for a lower bound lo of |c|."""
    re, im, rad = a
    lo = _abs_lo(re, im)
    if lo <= rad:
        raise ZeroDivisionError("the ball holds 0")
    g = max(abs(re), abs(im)).bit_length() + 1
    t = (1 << (2 * p + g)) // (re * re + im * im)
    return ((re * t) >> g, (-im * t) >> g,
            -(-(rad << 2 * p) // (lo * (lo - rad))) + 3)


def ball_scale(a, w: Fraction) -> tuple[int, int, int]:
    """The ball a times the exact rational w >= 0, in the same units: a
    shift when w is 1 / 2^s."""
    p, q = w.numerator, w.denominator
    if p == 1 and not q & (q - 1):
        return ball_shift(a, q.bit_length() - 1)
    re, rx = divmod(a[0] * p, q)
    im, ry = divmod(a[1] * p, q)
    return re, im, -(-a[2] * p // q) + (rx != 0) + (ry != 0)


def ball_upper(a) -> int:
    """An upper bound of |w| over the ball, in its units."""
    return ceil_sqrt(a[0] * a[0] + a[1] * a[1]) + a[2]


def ball_lower(a) -> int:
    """A lower bound of |w| over the ball, in its units."""
    return max(isqrt(a[0] * a[0] + a[1] * a[1]) - a[2], 0)


# ---------------------------------------------------------------------------
# integer rectangles
# ---------------------------------------------------------------------------
# A rectangle (re_lo, re_hi, im_lo, im_hi, den) with den > 0 is the certified
# complex number [re_lo, re_hi] / den + i [im_lo, im_hi] / den.  Products
# and distances run on the five integers; the Fractions of a CBound or a
# Bound are reduced once, where a caller reads them.

def rect_of(z: CBound) -> tuple[int, int, int, int, int]:
    """The rectangle of z over the lcm of its endpoint denominators."""
    ends = (z.re.lo, z.re.hi, z.im.lo, z.im.hi)
    d = lcm(*(e.denominator for e in ends))
    return (*(e.numerator * (d // e.denominator) for e in ends), d)


def rect_cbound(rect) -> CBound:
    re_lo, re_hi, im_lo, im_hi, den = rect
    return CBound(Bound(Fraction(re_lo, den), Fraction(re_hi, den)),
                  Bound(Fraction(im_lo, den), Fraction(im_hi, den)))


def rect_prod(rects) -> tuple[int, int, int, int, int]:
    """The product of the rectangles, equal to the left fold of
    ``CBound.__mul__`` from the exact 1: the interval products take the
    min and max of the same four products as ``Bound.__mul__``, all over
    the product of the denominators, so only their common positive scale
    differs.  Factors equal to the exact 1 leave the product as it is and
    are skipped."""
    re_lo, re_hi, im_lo, im_hi, den = 1, 1, 0, 0, 1
    for x_lo, x_hi, y_lo, y_hi, d in rects:
        if x_lo == x_hi == d and y_lo == y_hi == 0:
            continue
        rr = (re_lo * x_lo, re_lo * x_hi, re_hi * x_lo, re_hi * x_hi)
        ii = (im_lo * y_lo, im_lo * y_hi, im_hi * y_lo, im_hi * y_hi)
        ri = (re_lo * y_lo, re_lo * y_hi, re_hi * y_lo, re_hi * y_hi)
        ir = (im_lo * x_lo, im_lo * x_hi, im_hi * x_lo, im_hi * x_hi)
        re_lo, re_hi, im_lo, im_hi = (min(rr) - max(ii), max(rr) - min(ii),
                                      min(ri) + min(ir), max(ri) + max(ir))
        den *= d
    return re_lo, re_hi, im_lo, im_hi, den


def rect_abs2(rect) -> tuple[int, int]:
    """The ends of ``CBound.abs2`` of the rectangle as numerators over
    den^2: ``Bound.abs``'s sign cases, then the squares, on integers."""
    re_lo, re_hi, im_lo, im_hi, _ = rect
    lo2 = hi2 = 0
    for lo, hi in ((re_lo, re_hi), (im_lo, im_hi)):
        lo, hi = (lo, hi) if lo >= 0 else (-hi, -lo) if hi <= 0 else (0, max(-lo, hi))
        lo2, hi2 = lo2 + lo * lo, hi2 + hi * hi
    return lo2, hi2


def rect_dist_to_one(rect) -> Bound:
    """``|z - 1|`` of the rectangle z, equal to ``(z - 1).abs()`` on its
    CBound: the square comes from :func:`rect_abs2` and is reduced once,
    over den^2, before the square root."""
    re_lo, re_hi, im_lo, im_hi, den = rect
    lo2, hi2 = rect_abs2((re_lo - den, re_hi - den, im_lo, im_hi, den))
    d2 = den * den
    return Bound(Fraction(lo2, d2), Fraction(hi2, d2)).sqrt()


# ---------------------------------------------------------------------------
# seeded uniforms
# ---------------------------------------------------------------------------

def seeded_uniforms(seed: int, count: int) -> np.ndarray:
    """``count`` floats in (0, 1] from one ``random.Random(seed).randbytes``
    call: the top 53 bits of each little-endian 64-bit word, plus one, in
    units of 2^-53.  The Monte-Carlo routes of ``linsys`` and
    ``specmeasure`` draw from here, so no run loads ``numpy.random`` or,
    through its ``secrets -> hashlib`` chain, the OpenSSL bindings.  random
    and numpy load here alone: the certified routes need neither."""
    import random

    import numpy as np
    raw = random.Random(seed).randbytes(8 * count)
    return ((np.frombuffer(raw, dtype="<u8") >> 11) + 1) * 2.0 ** -53


def dec_str(fr: Fraction, digits: int = 40) -> str:
    """Decimal rendering of an exact rational (display only, not a bound)."""
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(fr.numerator) / Decimal(fr.denominator)
    return format(d, "g")
