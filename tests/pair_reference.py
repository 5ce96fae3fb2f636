"""The Fraction reference of ``precision.CBound``: a certified complex
number as a pair ``(re, im)`` of exact-rational Bounds, with the interval
arithmetic that CBound's integer rectangle must equal.  Nothing here calls
CBound's integer code: a test reads a CBound's pair from its ``re`` and
``im``, and ``cbound_of`` builds the rectangle of a pair."""

from fractions import Fraction
from math import lcm

from recurlab.precision import Bound, CBound, cos_turns, residue, sin_turns

ONE = (Bound.exact(1), Bound.exact(0))


def cbound_of(re: Bound, im: Bound) -> CBound:
    """The rectangle of the pair over the lcm of its endpoint denominators."""
    ends = (re.lo, re.hi, im.lo, im.hi)
    d = lcm(*(e.denominator for e in ends))
    return CBound(*(e.numerator * (d // e.denominator) for e in ends), d)


def bound_abs(b: Bound) -> Bound:
    """The interval of |x| over x in b."""
    if b.lo >= 0:
        return b
    if b.hi <= 0:
        return -b
    return Bound(Fraction(0), max(-b.lo, b.hi))


def mul(z, w):
    (a, b), (c, d) = z, w
    return a * c - b * d, a * d + b * c


def fold_prod(factors):
    """The left fold of ``mul`` from the exact 1."""
    acc = ONE
    for f in factors:
        acc = mul(acc, f)
    return acc


def abs2(z) -> Bound:
    a, b = bound_abs(z[0]), bound_abs(z[1])
    return a * a + b * b


def dist_to_one(z) -> Bound:
    """|z - 1| through Bound subtraction, products and ``Bound.sqrt``."""
    return abs2((z[0] - Bound.exact(1), z[1])).sqrt()


def atom_sum(measure, n):
    """sigma_hat(n): the weighted sum of each atom's cos and sin Bounds."""
    re = im = Bound.exact(0)
    for angle, weight in measure.atoms:
        r = residue(angle, n)
        re, im = re + cos_turns(r).scale(weight), im + sin_turns(r).scale(weight)
    return re, im


def product_formula(fact, n):
    """sigma_hat(n) of a factorization: the fold of its factors' atom sums."""
    return fold_prod(atom_sum(f, n) for f in fact.factors)
