"""Certified real and complex arithmetic over exact rational enclosures.

Conventions used throughout the package:

* Angles are measured in *turns*: the point of the unit circle at angle
  ``theta`` turns is ``e^{2 pi i theta}``.  A turn value is an exact
  ``fractions.Fraction`` whenever possible.
* A certified real is a :class:`Bound`: a closed interval with exact
  rational endpoints guaranteed to contain the true value.  Interval
  arithmetic over Fractions is exact, so rigor is never lost to rounding;
  the transcendental entry points (sin, cos, sqrt, pi) are integer code in
  units of 2^-P at a configurable working precision, each floor charged
  outward: pi from Machin's formula, correctly rounded; cos and sin of a
  turn from an exact octant reduction and a Taylor sum, on the ball kernel
  below; square roots from ``isqrt``.  :func:`cis_ends` hands the integer
  ends of cos and sin to callers that work on integers (the 2^-bits units
  of ``linsys``, the Fourier rectangles of ``specmeasure``), which take
  them by a shift and build no Fraction.
* The *chord* of a turn ``t`` is ``|e^{2 pi i t} - 1| = 2 |sin(pi t)|``.
  It depends only on the distance from ``t`` to the nearest integer and is
  monotone in that distance, which lets callers take sups and infs over
  finite residue sets on the integer numerators of
  :func:`distance_numerators`, evaluating only the extremal residue.

The working precision defaults to 128 bits and is one value held by this
module alone: :func:`set_bits` sets it, :func:`get_bits` reads it, and
:func:`working_bits` sets it for a block and restores it on exit.  The
cos-sin enclosures are memoised in one bounded cache keyed by the reduced
turn value and the working bits, so a repeated argument costs one lookup
and a coarse enclosure is never served to a finer precision: the integer
ends of :func:`cis_ends`, of which :func:`cos_turns` and :func:`sin_turns`
are the Bounds, and :func:`chord` reads the sine of half its distance.
Cosine and sine of a turn come from one evaluation.

A certified complex number is a :class:`CBound`: the integer rectangle
``(re_lo, re_hi, im_lo, im_hi, den)``.  Exact arithmetic stays exact
without a gcd at every step: a Fourier coefficient of ``specmeasure`` is
its atoms' ``cis_ends`` weighted over one common denominator, and
:meth:`CBound.prod` and :meth:`CBound.dist_to_one` take it through the
product formula to ``|z - 1|`` on the five integers.  Fractions are
reduced once, where a caller reads them.  A complex ball ``(re, im, rad)``
of integers in units of ``2^-p`` is the midpoint-radius kernel
(``ball_sub``, ``ball_mul``, ``ball_recip``, ``ball_pow``, ``ball_scale``
and ``ball_shift`` to a coarser unit), on which ``linsys`` runs its powers
of T and this module its cos and sin.

One helper certifies nothing: :func:`seeded_uniforms` gives both
Monte-Carlo routes (``linsys``'s ball spot check and ``specmeasure``'s
``gauss`` sampler) their seeded uniforms.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from decimal import Decimal, localcontext
from math import isqrt, lcm
from typing import Iterable, Union

from .certificates import frac_str

_bits = 128     # the working precision of the transcendental enclosures

RationalLike = Union[int, Fraction]

# cos(2 pi t) and sin(2 pi t) at the turns t = p/q in [0, 1) where they are
# rational, keyed by (p, q), in units of 1/2 (every such value is a multiple)
_EXACT_COS = {(0, 1): 2, (1, 2): -2, (1, 3): -1, (2, 3): -1, (1, 4): 0,
              (3, 4): 0, (1, 6): 1, (5, 6): 1}
_EXACT_SIN = {(0, 1): 0, (1, 2): 0, (1, 4): 2, (3, 4): -2, (1, 12): 1,
              (5, 12): 1, (7, 12): -1, (11, 12): -1}


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

    def max_with(self, other: "Bound") -> "Bound":
        other = _as_bound(other)
        return Bound(max(self.lo, other.lo), max(self.hi, other.hi))

    def sqrt(self) -> "Bound":
        if self.lo < 0:
            raise ValueError("sqrt of an interval reaching below 0")
        return Bound(_root(self.lo.numerator, self.lo.denominator, False),
                     _root(self.hi.numerator, self.hi.denominator, True))

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


def _root(p: int, q: int, up: bool) -> Fraction:
    """sqrt(p / q), p >= 0 and q > 0, floored (ceiled when up) to the unit
    2^-u that leaves it ``bits`` + 1 significant bits: ``isqrt`` of the
    floored (``ceil_sqrt`` of the ceiled) p 4^u / q, a function of p / q."""
    if not p:
        return Fraction(0)
    l = p.bit_length() - q.bit_length()
    l -= (p << -l if l < 0 else p) < (q << l if l > 0 else q)   # floor(log2(p / q))
    u = get_bits() - (l >> 1)
    p, q = (p << 2 * u, q) if u >= 0 else (p, q << -2 * u)
    r = ceil_sqrt(-(-p // q)) if up else isqrt(p // q)
    return Fraction(r, 1 << u) if u >= 0 else Fraction(r << -u)


# [prec, floor(pi 2^prec)] for the finest prec computed yet; a coarser
# floor is a shift of it
_PI = [0, 3]


def _atan_inv(x: int, prec: int) -> tuple[int, int]:
    """(s, k): s is within 3k + 2 of atan(1/x) 2^prec, x >= 2, from k Taylor
    terms, each power 2^prec / x^(2i + 1) floored from the last (under 2
    too small, so each term under 3); the tail is under the power that
    floors to 0, so under 2."""
    power, x2, s, k = (1 << prec) // x, x * x, 0, 0
    while power:
        term = power // (2 * k + 1)
        s, power, k = s - term if k & 1 else s + term, power // x2, k + 1
    return s, k


def _pi_floor(prec: int) -> int:
    """floor(pi 2^prec), exact: Machin's pi = 16 atan(1/5) - 4 atan(1/239)
    with g guard bits, and g doubles until both ends of its error fall on
    one floor (pi is irrational, so they do)."""
    if prec > _PI[0]:
        top, g = max(prec, 2 * _PI[0]), 32
        while True:
            (a, i), (b, j) = _atan_inv(5, top + g), _atan_inv(239, top + g)
            v, err = 16 * a - 4 * b, 16 * (3 * i + 2) + 4 * (3 * j + 2)
            if (v - err) >> g == (v + err) >> g:
                break
            g *= 2
        _PI[:] = top, (v - err) >> g
    return _PI[1] >> (_PI[0] - prec)


@lru_cache(maxsize=None)
def _pi_bound(bits: int) -> Bound:
    m, unit = _pi_floor(bits - 2), 1 << (bits - 2)
    return Bound(Fraction(m, unit), Fraction(m + 1, unit))


def pi_bound() -> Bound:
    """pi floored and ceiled to the working bits, as mpmath's ``mpf_pi``."""
    return _pi_bound(get_bits())


def two_pi_upper() -> Fraction:
    """Exact rational upper bound of 2 pi at the working precision."""
    return pi_bound().hi * 2


def residue_distance(t: RationalLike) -> Fraction:
    """Distance from a turn value to the nearest integer, in [0, 1/2]."""
    r = Fraction(t) % 1
    return min(r, 1 - r)


def chord(t: RationalLike) -> Bound:
    """Certified |e^{2 pi i t} - 1| = 2 sin(pi d) for an exact turn value t
    at residue distance d: twice the sine of the turn d / 2, so a tiny
    distance keeps the sine's relative precision."""
    _, _, lo, hi, e = cis_ends(residue_distance(Fraction(t)) / 2)
    return Bound(Fraction(max(lo, 0), 1 << (e - 1)), Fraction(hi, 1 << (e - 1)))


def sin_turns(t: RationalLike) -> Bound:
    """Certified sin(2 pi t)."""
    _, _, lo, hi, e = cis_ends(Fraction(t) % 1)
    return Bound(Fraction(lo, 1 << e), Fraction(hi, 1 << e))


def cos_turns(t: RationalLike) -> Bound:
    """Certified cos(2 pi t)."""
    lo, hi, _, _, e = cis_ends(Fraction(t) % 1)
    return Bound(Fraction(lo, 1 << e), Fraction(hi, 1 << e))


def _cos_sin(t: Fraction, bits: int) -> tuple[int, int, int, int, int]:
    """The ends of cos(2 pi t) and sin(2 pi t) in units 2^-e, in [-1, 1],
    e = bits + 2 + z for a turn z bits nearer a multiple of 1/4 than 1/8
    is, so a small cosine or sine keeps ``bits`` bits.  Exactly, t = (j +
    v) / 4 with v in [0, 1) and cis(2 pi t) = i^j cis(2 pi a), a = v / 4,
    or i^j times cis(2 pi a) with its parts swapped, a = (1 - v) / 4, when
    v > 1/2.  In 2^-W units, y = 2 pi a / 2^h is enclosed from floor(pi
    2^W), and the series of e^(i y) is summed in u sums (Smith), sum k mod
    u taking y^(k - k mod u) / k!, each floored from the last (times the
    floored y^u every u terms), and sum i times the floored y^i at the end.
    With y < 1 and 4 | u, each term is under u + 3 too small, the first to
    floor to 0 (the K-th) bounds the tail by 2 (u + 3), and each y^i is
    under i too small: the ball of radius (K + 2) (u + 3) + 2 u^2 plus the
    half-width of y holds e^(i y), and ``ball_pow`` squares it h times."""
    j, v = divmod(4 * t, 1)
    a = (1 - v) / 4 if v > Fraction(1, 2) else v / 4
    m, n = a.numerator, a.denominator
    e = bits + 2 + (z := max(0, n.bit_length() - m.bit_length() - 3))
    h, u = max(0, 2 * e.bit_length() - 18 - z), 4 * max(1, (e.bit_length() - 8) // 2)
    W = e + h + 2 * (e + h).bit_length() + 4
    pf = _pi_floor(W)
    lo, hi = 2 * m * pf // (n << h), -(-2 * m * (pf + 1) // (n << h))
    y = (lo + hi) >> 1
    powers = [1 << W, y]
    for _ in range(u - 1):
        powers.append(powers[-1] * y >> W)
    sums, term, k = [0] * u, 1 << W, 0
    while term:
        sums[k % u] += term
        k += 1
        term = (term * powers[u] >> W if k % u == 0 else term) // k
    parts = [0, 0, 0, 0]    # parts[r] sums the terms y^k / k!, k = r mod 4
    for i in range(u):
        parts[i & 3] += sums[i] * powers[i] >> W
    c, s, r = ball_pow((parts[0] - parts[2], parts[1] - parts[3],
                        (k + 2) * (u + 3) + 2 * u * u + hi - y), 1 << h, W)
    c, s = (s, c) if v > Fraction(1, 2) else (c, s)
    for _ in range(j):
        c, s = -s, c
    g, one = W - e, 1 << e
    return (max((c - r) >> g, -one), min(-((-c - r) >> g), one),
            max((s - r) >> g, -one), min(-((-s - r) >> g), one), e)


# One linsys build asks for the N keys of its diagonal angles and a diagonal
# chain for the chord keys of at most 4N + 48 candidate moves; the atom
# residues of the Kahane factors, cos_turns, sin_turns and chord share it.
@lru_cache(maxsize=8192)
def _cis_ends(t: Fraction, bits: int) -> tuple[int, int, int, int, int]:
    key = t.numerator, t.denominator
    cos, sin = _EXACT_COS.get(key), _EXACT_SIN.get(key)
    if cos is not None and sin is not None:
        return cos, cos, sin, sin, 1
    c_lo, c_hi, s_lo, s_hi, e = _cos_sin(t, bits)
    if cos is not None:
        c_lo = c_hi = cos << e - 1
    if sin is not None:
        s_lo = s_hi = sin << e - 1
    return c_lo, c_hi, s_lo, s_hi, e


def cis_ends(t: Fraction) -> tuple[int, int, int, int, int]:
    """The ends (cos_lo, cos_hi, sin_lo, sin_hi, e) of cos(2 pi t) and
    sin(2 pi t) for a turn t in [0, 1) at the working precision, as ints in
    units of 2^-e, each in [-2^e, 2^e]; ``cos_turns`` and ``sin_turns`` are
    their Bounds, and a rational cosine or sine has equal ends."""
    return _cis_ends(t, get_bits())


@dataclass(frozen=True, eq=False)
class CBound:
    """Certified complex number: the rectangle [re_lo, re_hi] / den + i
    [im_lo, im_hi] / den of ints, den > 0.  Products and distances run on
    the five integers, and the Fractions of ``re`` and ``im`` are reduced
    once, where a caller reads them.  Equality compares the values, not
    the integers."""

    re_lo: int
    re_hi: int
    im_lo: int
    im_hi: int
    den: int

    @staticmethod
    def exact(re: RationalLike, im: RationalLike = 0) -> "CBound":
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        x, y = re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)
        return CBound(x, x, y, y, d)

    @property
    def re(self) -> Bound:
        return Bound(Fraction(self.re_lo, self.den), Fraction(self.re_hi, self.den))

    @property
    def im(self) -> Bound:
        return Bound(Fraction(self.im_lo, self.den), Fraction(self.im_hi, self.den))

    @property
    def is_exact(self) -> bool:
        return self.re_lo == self.re_hi and self.im_lo == self.im_hi

    def __eq__(self, other) -> bool:
        if not isinstance(other, CBound):
            return NotImplemented
        a, b = self.den, other.den
        return (self.re_lo * b == other.re_lo * a and self.re_hi * b == other.re_hi * a
                and self.im_lo * b == other.im_lo * a and self.im_hi * b == other.im_hi * a)

    def json_value(self) -> dict:
        return {"re": self.re.json_value(), "im": self.im.json_value()}

    @staticmethod
    def prod(factors: Iterable["CBound"]) -> "CBound":
        """The product of the factors, equal to the left fold from the
        exact 1 of the interval product (re re' - im im', re im' + im re')
        of exact Bounds: the interval products take the min and max of the
        same four products as a Bound product, all over the product of the
        denominators, so only their common positive scale differs.  Factors
        equal to the exact 1 leave the product as it is and are skipped."""
        re_lo, re_hi, im_lo, im_hi, den = 1, 1, 0, 0, 1
        for f in factors:
            x_lo, x_hi, y_lo, y_hi, d = f.re_lo, f.re_hi, f.im_lo, f.im_hi, f.den
            if x_lo == x_hi == d and y_lo == y_hi == 0:
                continue
            rr = (re_lo * x_lo, re_lo * x_hi, re_hi * x_lo, re_hi * x_hi)
            ii = (im_lo * y_lo, im_lo * y_hi, im_hi * y_lo, im_hi * y_hi)
            ri = (re_lo * y_lo, re_lo * y_hi, re_hi * y_lo, re_hi * y_hi)
            ir = (im_lo * x_lo, im_lo * x_hi, im_hi * x_lo, im_hi * x_hi)
            re_lo, re_hi, im_lo, im_hi = (min(rr) - max(ii), max(rr) - min(ii),
                                          min(ri) + min(ir), max(ri) + max(ir))
            den *= d
        return CBound(re_lo, re_hi, im_lo, im_hi, den)

    def abs2_ends(self) -> tuple[int, int]:
        """The ends of |z|^2 as numerators over den^2: each part's interval
        of absolute values (its ends negated when it lies at or below 0,
        [0, max] when it straddles 0), then the squares, on integers."""
        lo2 = hi2 = 0
        for lo, hi in ((self.re_lo, self.re_hi), (self.im_lo, self.im_hi)):
            lo, hi = (lo, hi) if lo >= 0 else (-hi, -lo) if hi <= 0 else (0, max(-lo, hi))
            lo2, hi2 = lo2 + lo * lo, hi2 + hi * hi
        return lo2, hi2

    def dist_to_one(self) -> Bound:
        """|z - 1|: the ends of its square from :meth:`abs2_ends` over
        den^2, and their roots from :func:`_root` on those integers,
        unreduced."""
        d = self.den
        lo2, hi2 = CBound(self.re_lo - d, self.re_hi - d, self.im_lo, self.im_hi,
                          d).abs2_ends()
        return Bound(_root(lo2, d * d, False), _root(hi2, d * d, True))


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
    in 2^-p units: each end is one shift, floored or ceiled outward."""
    s = p - cis[4]
    (c_lo, s_lo), (c_hi, s_hi) = ([_shift(x, s) for x in cis[0:4:2]],
                                  [-_shift(-x, s) for x in cis[1:4:2]])
    re, im = (c_lo + c_hi) >> 1, (s_lo + s_hi) >> 1
    return re, im, c_hi - re + s_hi - im


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
