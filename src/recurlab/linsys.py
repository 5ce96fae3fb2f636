"""Diagonal-plus-backward-shift operators with certified power norms.

The operator acts on C^N as T e_n = lambda_n e_n + alpha_{n-1} e_{n-1}
(upper bidiagonal).  The diagonal angles are grown along a chain
j(n) -> n of certified perturbations so that every lambda_n stays close
to 1 in the orbit metric sup_k |lambda^{n_k} - mu^{n_k}|; the shift
weights are a fast-decaying rational schedule tuned until the matrix
powers T^{n_k} provably hug D^{n_k}.

What is certified and what is sampled:

* ``power_norm`` encloses the largest singular value of T^n - I and of
  T^n - D^n.  Matrix powers run by binary exponentiation in
  midpoint-radius arithmetic on exact integers in units of 2^-bits:
  products are exact, and the floor shift back to 2^-bits units is
  charged to the radius, so no rounding model is involved.  Every power
  of T is upper triangular, so products run on the upper triangle alone.
  The diagonal of T^n is replaced by its enclosure of the exact
  unit-circle value, read in those units from the dyadic ends of
  ``precision.cis_ends`` by a shift, and the ``.hi`` ends are assembled
  in integers from an elementwise upper matrix, so they are true upper
  bounds.  The ``.lo`` ends are the largest column 2-norm of the lower
  moduli max(|centre| - radius, 0) of the same disks, in integers.  The
  rows of ``build_operator`` carry the upper ends alone, as [0, hi]: its
  certificates read nothing else, and ``power_norm`` gives a row's lower
  ends when they are wanted.
* ``ball_certificate`` turns a rotation-witness delta and a norm table
  into the exact largest radius gamma with
  delta*(1-gamma) - c*(1+gamma) > 2*gamma.
* ``ball_mc_check`` and ``kalish_eigencheck`` are floating-point
  spot checks, not certificates, and say so in their reports.

``power_norm`` raises the precision in a ``working_bits`` block, which
restores it on exit.  The one state matrix powers share is kept on the
operator: its integer disks and the top square of the ladder T, T^2, T^4,
..., per bits and working precision, so the powers n_k = 2^(k(k+1)/2) of
one operator square once between them.

Halving the weight scale rho is an exact diagonal similarity,
T(rho / 2^h) = S T(rho) S^-1 with S = diag(2^(h i)), so ``build_operator``
computes each power T^{n_k} once, at the first halving that reaches row k,
and rescales its disks only for a later halving that reads them: for its
radius check, until that first passes, and for its norm_TD, which a
halving reads from the deepest row up to the first failing one.  A
halving where the largest centre on some superdiagonal of some row,
shifted by the rescale, already reaches delta/2 certainly fails, and it
assembles no norm; a halving that computes no row builds no operator.  The
rounding made at the larger scale shrinks with the entries, so in
practice no bound is looser than powering afresh; at 53 bits dimension 16
certifies through horizon 9 (n = 2^45).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import numpy as np

from .certificates import Certificate, frac_str
from .circle import AngleTurns, PerturbResult, chord_extreme, perturb_divisibility
from .precision import (Bound, bound_max, chord, cis_ends, dyadic, get_bits,
                        residue, working_bits)
from .seqcore import IntegerSequence


class PrecisionError(RuntimeError):
    """Raised when the tracked radii swamp the requested certification."""


# ---------------------------------------------------------------------------
# the j-chain and the diagonal
# ---------------------------------------------------------------------------

def build_j_function(N: int) -> dict[int, int]:
    """Triangular enumeration 1; 1,2; 1,2,3; ... read off at 2..N.

    Every value r >= 1 appears infinitely often as N grows, and the
    value at position n is always < n.
    """
    if N < 2:
        raise ValueError("need dimension N >= 2")
    out: dict[int, int] = {}
    pos, block = 2, 1
    while pos <= N:
        for v in range(1, block + 1):
            if pos > N:
                break
            out[pos] = v
            pos += 1
        block += 1
    return out


@dataclass
class DiagChain:
    """Diagonal angles chained to 1 by certified perturbations.

    angles[0] = 0 is the seed; angles[n-1] for n >= 2 equals the parent
    angle plus 1/n_{m_n}, where m_n is the least unused index whose
    certified move stays under the edge budget eps_n.  Freshness of the
    m_n is what keeps the angles pairwise distinct.
    """

    seq_label: str
    angles: list[Fraction]
    m_indices: list[int | None]
    edges: list[PerturbResult | None]
    tele_bounds: list[Bound]
    eps: list[Fraction]
    horizon: int                     # max m used; orbits are exact beyond it

    @property
    def dimension(self) -> int:
        return len(self.angles)

    def diag_power_norm(self, power: int) -> Bound:
        """Exact ||D^power - I|| = max_n |lambda_n^power - 1|."""
        return bound_max([chord(residue(t, power)) for t in self.angles])

    def to_operator(self, weights: list[Fraction]) -> "DiagShiftOperator":
        return DiagShiftOperator(
            dimension=self.dimension,
            diag=[AngleTurns.of(t) for t in self.angles],
            weights=list(weights),
            j_map=build_j_function(self.dimension))


def build_diag_chain(seq: IntegerSequence, N: int,
                     eps: Iterable[Fraction]) -> DiagChain:
    """Grow N diagonal angles along the j-chain within per-edge budgets.

    Needs a chained-divisibility sequence: the perturbation by 1/n_m
    then moves nothing beyond index m-1 and every edge certificate has
    an exact zero tail.  That move does not depend on the angle, so each
    m's bound is selected once.  Raises when some budget is infeasible
    for every m <= 4 N + 48, which happens for slow (constant-ratio) growth.
    """
    budgets = [Fraction(e) for e in eps]
    if len(budgets) != N - 1:
        raise ValueError(f"need {N - 1} edge budgets for dimension {N}")
    if any(b <= 0 for b in budgets):
        raise ValueError("edge budgets must be positive")
    cap = 4 * N + 48
    jm = build_j_function(N)
    if not seq.divisibility:
        raise ValueError("perturbation tail is exact only for divisibility sequences")
    moves: dict[int, Bound] = {}       # m -> sup_k of the move by 1/n_m
    angles = [Fraction(0)]
    ms: list[int | None] = [None]
    edges: list[PerturbResult | None] = [None]
    tele = [Bound.exact(0)]
    for n in range(2, N + 1):
        budget = budgets[n - 2]
        pick = None
        for m in range(1, cap + 1):
            if m in ms:
                continue
            if m not in moves:
                try:
                    n_m = seq.term(m)
                except IndexError:
                    break                  # finite ratio list exhausted
                moves[m], _ = chord_extreme(Fraction(1, n_m), seq.prefix(m))
            if moves[m].certainly_lt(budget):
                pick = m
                break
        if pick is None:
            raise ValueError(f"edge budget {budget} infeasible at level {n} "
                             f"(searched m <= {cap}); the sequence grows too slowly")
        parent = jm[n]
        step = perturb_divisibility(angles[parent - 1], seq, pick)
        angles.append(step.theta.exact)
        ms.append(pick)
        edges.append(step)
        tele.append(tele[parent - 1] + step.certificate.bound)
    return DiagChain(seq_label=seq.label, angles=angles, m_indices=ms,
                     edges=edges, tele_bounds=tele, eps=budgets,
                     horizon=max(ms[1:]))


# ---------------------------------------------------------------------------
# the operator
# ---------------------------------------------------------------------------

@dataclass
class DiagShiftOperator:
    """T e_n = lambda_n e_n + alpha_{n-1} e_{n-1} on C^N."""

    dimension: int
    diag: list[AngleTurns]
    weights: list[Fraction]
    j_map: dict[int, int] | None = None
    # (bits, working precision) -> (disks of T, top of its squaring ladder),
    # filled by _operator_disks; an operator is not changed once built
    _disks: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        N = self.dimension
        if N < 1 or len(self.diag) != N:
            raise ValueError("diag length must equal the dimension")
        if len({a.exact for a in self.diag}) != N:
            raise ValueError("diagonal values must be pairwise distinct")
        self.weights = [Fraction(w) for w in self.weights]
        if len(self.weights) != N - 1:
            raise ValueError("need N - 1 shift weights")
        # zero weights are allowed: that degenerate case is the exact
        # diagonal route the norm checks are validated against
        if any(w < 0 for w in self.weights):
            raise ValueError("shift weights must be >= 0")
        if self.j_map is None and N >= 2:
            self.j_map = build_j_function(N)
        if N >= 2:
            if self.j_map.get(2) != 1:
                raise ValueError("j(2) must be 1")
            if any(self.j_map.get(n, n) >= n for n in range(2, N + 1)):
                raise ValueError("j(n) < n is required")

    @property
    def is_diagonal(self) -> bool:
        return all(w == 0 for w in self.weights)

    def dense_float(self) -> np.ndarray:
        M = np.zeros((self.dimension, self.dimension), dtype=np.complex128)
        for j, a in enumerate(self.diag):
            t = float(a.exact)
            M[j, j] = complex(math.cos(2 * math.pi * t), math.sin(2 * math.pi * t))
        for i, w in enumerate(self.weights):
            M[i, i + 1] = float(w)
        return M

    def to_json_dict(self) -> dict:
        return {"dimension": self.dimension,
                "diag": [frac_str(a.exact) for a in self.diag],
                "weights": [frac_str(w) for w in self.weights],
                "j_map": {str(n): j for n, j in sorted((self.j_map or {}).items())}}


def build_shift_weights(N: int, rho: Fraction) -> list[Fraction]:
    """alpha_n = rho * 4^{-n} for n = 1..N-1."""
    rho = Fraction(rho)
    return [rho * Fraction(1, 4 ** n) for n in range(1, N)]


def telescope_gap(weight_sup, n: int) -> Fraction | None:
    """Exact upper bound for ||T^n - D^n|| with ||T - D|| <= weight_sup.

    Expanding (D + B)^n and bounding every word with at least one B
    factor gives (1 + b)^n - 1, which is <= n*b / (1 - n*b) whenever
    n*b < 1 (the diagonal is unimodular, so ||D|| = 1).  Rational in,
    rational out; None when n*b >= 1 and the bound is vacuous.  This is
    the route that stays exact at powers far beyond what the matrix
    enclosure can reach.
    """
    b = Fraction(weight_sup)
    if b < 0:
        raise ValueError("the weight bound must be >= 0")
    if n < 0:
        raise ValueError("powers are nonnegative")
    nb = n * b
    if nb >= 1:
        return None
    return nb / (1 - nb)


# ---------------------------------------------------------------------------
# midpoint-radius matrix powers in exact integers
# ---------------------------------------------------------------------------
#
# A matrix is a triple (re, im, rad) of numpy object arrays of Python ints
# in units of 2^-bits: entry (i, j) is the disk with centre
# (re + i im) 2^-bits and radius rad 2^-bits (midpoint-radius arithmetic,
# Rump, BIT 1999).  Products of centres are exact; the one rounding is the
# floor shift back to 2^-bits units, and the radius absorbs it, so the
# enclosure needs no rounding model.

def _ceil_sqrt(x: int) -> int:
    r = math.isqrt(x)
    return r if r * r == x else r + 1


_isqrt = np.frompyfunc(math.isqrt, 1, 1)


def _abs_upper(re, im):
    """Elementwise upper bound of |re + i im| for object arrays of ints."""
    sq = re * re + im * im
    r = _isqrt(sq)
    return r + (r * r != sq).astype(object)


def _floor_shift(v: int, s: int) -> int:
    """floor(v 2^s)."""
    return v << s if s >= 0 else v >> -s


def _disk(lo: int, hi: int) -> tuple[int, int]:
    """Midpoint and radius of a disk around [lo, hi]."""
    mid = (lo + hi) >> 1
    return mid, hi - mid


def _fixed(w: Fraction, bits: int) -> tuple[int, int]:
    """Midpoint and radius in 2^-bits units of a disk around ``w``."""
    p, q = w.numerator << bits, w.denominator
    return _disk(p // q, -(-p // q))


def _unit_entry(cis, bits: int) -> tuple[int, int, int]:
    """The unit-circle point with the ``precision.cis_ends`` enclosures cis
    as (re, im, rad) in 2^-bits units: each end is one shift of its
    mantissa, floored or ceiled outward, clamped to [-1, 1]."""
    one = 1 << bits
    disks = []
    for lo, hi in cis:
        (a, ea), (b, eb) = dyadic(lo), dyadic(hi)
        disks.append(_disk(max(_floor_shift(a, ea + bits), -one),
                           min(-_floor_shift(-b, eb + bits), one)))
    (re, re_rad), (im, im_rad) = disks
    return re, im, re_rad + im_rad


def _chord_upper(cis, bits: int) -> int:
    """Upper end in 2^-bits units of the chord |lambda - 1| of the
    unit-circle point lambda with the enclosures cis:
    |lambda - 1|^2 = (1 - cos)^2 + sin^2, and 1 - cos >= 0 is largest at
    the low end of cos.  The ends are integers over one power of two 2^-e,
    so the square is exact until the one ceiling to 4^-bits units."""
    (c, _), (s_lo, s_hi) = cis
    ends = [dyadic(x) for x in (c, s_lo, s_hi)]
    e = min(0, *(x for _, x in ends))
    one = 1 << -e
    c, s_lo, s_hi = (v << (x - e) for v, x in ends)
    sq = (one - max(c, -one)) ** 2 + max(max(s_lo, -one) ** 2, min(s_hi, one) ** 2)
    return _ceil_sqrt(-_floor_shift(-sq, 2 * (bits + e)))


def _operator_disks(op: DiagShiftOperator, bits: int):
    """The disks of T in 2^-bits units and the top [i, T^(2^i)] of its
    squaring ladder, as far as ``_mat_power`` has climbed.  Both are made
    once per operator, bits and working precision, on which the diagonal's
    enclosures depend, so the powers of one operator share them."""
    key = bits, get_bits()
    if key not in op._disks:
        N = op.dimension
        re, im, rad = (np.zeros((N, N), dtype=object) for _ in range(3))
        for j, a in enumerate(op.diag):
            re[j, j], im[j, j], rad[j, j] = _unit_entry(cis_ends(a.exact), bits)
        for i, w in enumerate(op.weights):
            re[i, i + 1], rad[i, i + 1] = _fixed(w, bits)
        op._disks[key] = (re, im, rad), []
    return op._disks[key]


@lru_cache(maxsize=None)
def _triangle(N: int):
    """Index arrays for products of upper-triangular N x N matrices.  The
    upper triangle's positions (i, j), i <= j, in row order, are ``flat``
    (as indices into the flattened matrix); ``a`` and ``b`` list, for each
    position in turn, the positions (i, k) and (k, j), i <= k <= j, of the
    terms of C[i, j] = sum_k A[i, k] B[k, j], as indices into the
    triangle; ``starts`` is the first term of each position."""
    at = {}
    for i in range(N):
        for j in range(i, N):
            at[i, j] = len(at)
    a, b, starts = [], [], []
    for i, j in at:
        starts.append(len(a))
        a += [at[i, k] for k in range(i, j + 1)]
        b += [at[k, j] for k in range(i, j + 1)]
    flat = [i * N + j for i, j in at]
    return tuple(np.array(x, dtype=np.intp) for x in (flat, a, b, starts))


def _mm(A, B, bits: int):
    """The disks of A B for disks A and B of upper-triangular matrices, on
    the upper triangle alone (the lower one is exactly zero).  The complex
    centre takes three real products, im = (ar + ai)(br + bi) - ar br -
    ai bi, exact on integers, and |A| is taken once when squaring."""
    N = len(A[0])
    flat, ka, kb, starts = _triangle(N)
    ar, ai, arad = (M.take(flat) for M in A)
    abs_a = _abs_upper(ar, ai)
    if B is A:
        br, bi, brad, abs_b = ar, ai, arad, abs_a
    else:
        br, bi, brad = (M.take(flat) for M in B)
        abs_b = _abs_upper(br, bi)

    def dot(x, y):
        return np.add.reduceat(x[ka] * y[kb], starts)

    rr, ii = dot(ar, br), dot(ai, bi)
    re, im = rr - ii, dot(ar + ai, br + bi) - rr - ii
    rad = dot(abs_a, brad) + dot(arad, abs_b + brad)
    low = (1 << bits) - 1
    lost = ((re & low) != 0).astype(object) + ((im & low) != 0).astype(object)
    out = []
    for v in (re >> bits, im >> bits, -(-rad >> bits) + lost):
        M = np.zeros((N, N), dtype=object)
        M.flat[flat] = v
        out.append(M)
    return tuple(out)


def _mat_power(T, n: int, bits: int, top: list):
    """T^n by binary powering.  The powers of one T share its squaring
    ladder, of which only the top square ``top`` = [i, T^(2^i)] is kept
    (empty before the first square): a power with no set bit below the top
    starts there, any other starts from T, so increasing powers of two
    square once between them in the memory of plain binary powering.  The
    result never aliases T or a square, because power_norm writes into it."""
    i = top[0] if top and n >> top[0] << top[0] == n else 0
    if i:
        T = top[1]
    n >>= i
    P = None
    while n:
        if n & 1:
            P = tuple(M.copy() for M in T) if P is None else _mm(P, T, bits)
        n >>= 1
        if n:
            T = _mm(T, T, bits)
            i += 1
    if not top or i > top[0]:
        top[:] = i, T
    return P


def _tri_norm_upper(U, bits: int) -> Fraction:
    """min(sqrt(norm1 * norminf), Frobenius) from an elementwise upper
    matrix in 2^-bits units."""
    norm1 = max(U.sum(axis=0))
    norminf = max(U.sum(axis=1))
    frob2 = (U * U).sum()
    return Fraction(min(_ceil_sqrt(norm1 * norminf), _ceil_sqrt(frob2)), 1 << bits)


def _column_lower(L, bits: int) -> Fraction:
    """Lower end of ||M|| >= ||M e_j|| from an elementwise lower matrix L of
    |M| in 2^-bits units: its largest column 2-norm."""
    return Fraction(math.isqrt(max((L * L).sum(axis=0))), 1 << bits)


@dataclass
class PowerNormResult:
    power: int
    norm_ti: Bound       # ||T^n - I||, certified enclosure
    norm_td: Bound       # ||T^n - D^n||
    bits: int
    method: str


def power_norm(op: DiagShiftOperator, n: int, bits: int = 53,
               method: str = "auto") -> PowerNormResult:
    """Certified enclosures for ||T^n - I|| and ||T^n - D^n||.

    Diagonal operators take the exact chord formula; otherwise binary
    exponentiation in midpoint-radius arithmetic, with the diagonal of
    T^n overridden by its exact value lambda_j^n (the matrix is upper
    triangular, so that diagonal is analytic).  Raises PrecisionError
    when the accumulated radii pass 2^-8: retry with more bits.
    """
    if n < 0:
        raise ValueError("powers are nonnegative")
    if n == 0:
        z = Bound.exact(0)
        return PowerNormResult(0, z, z, bits, "identity")
    if method not in ("auto", "matrix"):
        raise ValueError("method is 'auto' or 'matrix'")
    if op.is_diagonal and method == "auto":
        ti = bound_max([chord(residue(a.exact, n)) for a in op.diag])
        return PowerNormResult(n, ti, Bound.exact(0), bits, "diagonal-exact")
    P, chords = _power_disks(op, n, bits)
    return _power_bounds(_radius_checked(P, n, bits), chords, n, bits)


def _power_disks(op: DiagShiftOperator, n: int, bits: int):
    """The disks (re, im, rad) of T^n in 2^-bits units with the diagonal
    overridden by its exact value lambda_j^n, and the upper ends of the
    chords |lambda_j^n - 1| in the same units.  Every trig enclosure,
    those of T and those of the residues n theta_j, is made at one
    precision 32 bits above ``bits``, because the powers run on integers
    in 2^-bits units and read nothing finer; each residue is enclosed
    once, for its diagonal entry and its chord."""
    with working_bits(max(get_bits(), bits + 32)):
        T, top = _operator_disks(op, bits)
        re, im, rad = _mat_power(T, n, bits, top)
        # exact diagonal of the triangular power
        chords = []
        for j, a in enumerate(op.diag):
            cis = cis_ends(residue(a.exact, n))
            re[j, j], im[j, j], rad[j, j] = _unit_entry(cis, bits)
            chords.append(_chord_upper(cis, bits))
    return (re, im, rad), chords


def _rescale(P, h: int):
    """The disks of T^n at weight scale rho / 2^h from those at rho.

    With S = diag(2^(h i)), T(rho / 2^h) = S T(rho) S^-1, so entry (i, j)
    of every power gains the exact factor 2^(-h (j - i)) and the diagonal
    stays.  The centres are floored and the radius ceiled, with one unit
    for each component whose shifted-out bits are nonzero, as in ``_mm``.
    """
    re, im, rad = P
    i, j = np.indices(re.shape)
    shift = (h * np.maximum(j - i, 0)).astype(object)
    low = (1 << shift) - 1
    lost = ((re & low) != 0).astype(object) + ((im & low) != 0).astype(object)
    return re >> shift, im >> shift, -(-rad >> shift) + lost


def _radius_checked(P, n: int, bits: int):
    """The disks P of T^n; raises PrecisionError when a radius passes 2^-8."""
    worst = max(P[2].flat)
    if worst > 1 << (bits - 8):
        raise PrecisionError(
            f"radius above 2^{worst.bit_length() - 1 - bits} after power {n} with "
            f"{bits} bits; retry with more bits")
    return P


def _td_upper(P, bits: int) -> tuple[Fraction, np.ndarray]:
    """Upper end of ||T^n - D^n|| from the disks of T^n, whose diagonal
    cancels exactly, and the elementwise upper matrix U it is assembled
    from, with its diagonal zero for ``_ti_upper`` to fill."""
    re, im, rad = P
    U = _abs_upper(re, im) + rad
    np.fill_diagonal(U, 0)
    return _tri_norm_upper(U, bits), U


def _ti_upper(U, chords: list[int], bits: int) -> Fraction:
    """Upper end of ||T^n - I|| from the matrix U of ``_td_upper``, which
    it changes: off the diagonal T^n - I is T^n, on it the chords."""
    for j, c in enumerate(chords):
        U[j, j] = c
    return _tri_norm_upper(U, bits)


def _power_bounds(P, chords: list[int], n: int, bits: int) -> PowerNormResult:
    """Both ends of both norm enclosures from ``_power_disks``, whose
    diagonal it shifts by -1 to the disks of T^n - I."""
    upper_td, U = _td_upper(P, bits)
    upper_ti = _ti_upper(U, chords, bits)
    re, im, rad = P
    re.flat[::len(re) + 1] -= 1 << bits
    L = np.maximum(_isqrt(re * re + im * im) - rad, 0)    # lower moduli
    lower_ti = _column_lower(L, bits)
    np.fill_diagonal(L, 0)
    lower_td = _column_lower(L, bits)
    assert lower_ti <= upper_ti and lower_td <= upper_td
    return PowerNormResult(n, Bound(lower_ti, upper_ti),
                           Bound(lower_td, upper_td), bits, "midpoint-radius")


def _superdiagonal_peaks(P) -> list[int]:
    """M_d, the largest |re| or |im| centre on superdiagonal d = 1, 2, ...
    of the disks P."""
    re, im, _ = P
    A = np.maximum(np.abs(re), np.abs(im))
    return [np.diagonal(A, d).max() for d in range(1, len(A))]


def _td_floor(peaks: list[int], s: int) -> int:
    """A lower bound in 2^-bits units for ``_td_upper`` of the disks with
    the superdiagonal peaks ``peaks`` after ``_rescale`` by s.  A rescaled
    centre keeps |c| >> (s d) or more in each component (the floor rounds
    away from zero below 0), so every entry of the upper matrix U is at
    least that, and both terms of min(sqrt(||U||_1 ||U||_inf), ||U||_F)
    are at least the largest entry of U."""
    return max((m >> s * d for d, m in enumerate(peaks, 1)), default=0)


# ---------------------------------------------------------------------------
# norm tables and ball certificates
# ---------------------------------------------------------------------------

@dataclass
class NormRow:
    k: int
    power: int
    norm_ti: Bound
    norm_td: Bound
    bits: int


@dataclass
class NormCertificate:
    seq_label: str
    delta: Fraction
    rows: list[NormRow]
    dimension: int

    @property
    def k_range(self) -> tuple[int, int]:
        return self.rows[0].k, self.rows[-1].k

    def sup_ti(self) -> Fraction:
        return max(r.norm_ti.hi for r in self.rows)

    def sup_td(self) -> Fraction:
        return max(r.norm_td.hi for r in self.rows)

    @property
    def passed(self) -> bool:
        return self.sup_ti() < 2 * self.delta

    def to_certificate(self) -> Certificate:
        lo, hi = self.k_range
        return Certificate(
            kind="power-norms",
            claim=f"sup of ||T^(n_k) - I|| over {self.seq_label}, "
                  f"k in [{lo}, {hi}], dimension {self.dimension}",
            passed=self.passed,
            exact=False,
            method="midpoint-radius powers, rational norm assembly",
            horizon=hi,
            params={"delta": frac_str(self.delta), "dimension": self.dimension},
            bounds={"sup_TI": Bound(Fraction(0), self.sup_ti()),
                    "sup_TD": Bound(Fraction(0), self.sup_td())},
            values={"rows": len(self.rows)})


def norm_table_csv(cert: NormCertificate) -> str:
    lines = ["k,n_k,norm_TI,norm_TD,bits_used"]
    for r in cert.rows:
        lines.append(f"{r.k},{r.power},{float(r.norm_ti.hi):.12g},"
                     f"{float(r.norm_td.hi):.12g},{r.bits}")
    return "\n".join(lines) + "\n"


@dataclass
class OperatorBuild:
    operator: DiagShiftOperator
    norms: NormCertificate
    rho: Fraction
    halvings: int
    delta: Fraction


MAX_HALVINGS = 60     # weight-scale halvings before build_operator gives up


def build_operator(seq: IntegerSequence, N: int, K: int, delta,
                   bits: int = 53) -> OperatorBuild:
    """Assemble D + B: chain the diagonal within sum(eps) <= delta/4,
    then halve the weight scale rho, starting at rho = 1/4, until
    sup_k ||T^{n_k} - D^{n_k}|| is certified below delta/2 for k <= K.  A
    weight scale whose powers raise PrecisionError is halved too; the error
    escapes only at the last allowed halving.  Each power is computed at
    the first halving that reaches its row, not all at rho = 1/4, where the
    integers grow without bound at deep horizons, and rescaled
    (``_rescale``) from there only for a halving that reads it.  The rows
    are reached in ascending k, so each is computed at the same halving
    whichever rows are read, and a halving's operator is built only if it
    computes a row or passes.  A halving where some row's norm_TD certainly
    reaches delta/2 (``_td_floor``) fails without assembling any norm.  The
    rows of the passing halving carry [0, upper end] enclosures: the
    certificates read upper ends alone, and ``power_norm`` gives both ends
    of one row.  Deterministic; the final rho and the number of halvings
    land in the build record.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    eps = [delta * Fraction(1, 2 ** (n + 1)) for n in range(2, N + 1)]
    chain = build_diag_chain(seq, N, eps)
    powers = [seq.term(k) for k in range(K + 1)]
    rho = Fraction(1, 4)
    computed: dict[int, tuple] = {}     # k -> (halving, disks, chords, peaks)
    # rows whose radii passed at some halving: a later rescale maps a
    # radius <= 2^(bits-8) to at most 2^(bits-9) + 2 off the diagonal and
    # keeps the diagonal, so for bits >= 10 such a row never fails again
    radius_ok: set[int] = set()
    for halvings in range(MAX_HALVINGS + 1):
        op = None
        scaled = {}     # k -> disks at this halving, rescaled when read

        def at_scale(k):
            if k not in scaled:
                h, P = computed[k][:2]
                scaled[k] = _rescale(P, halvings - h) if h < halvings else P
            return scaled[k]

        try:
            # the radii are checked in ascending rows before any norm is
            # assembled, so a weight scale that runs out of precision costs
            # only the rescales of rows not yet checked
            for k, p in enumerate(powers):
                if k not in computed:
                    if op is None:
                        op = chain.to_operator(build_shift_weights(N, rho))
                    P, chords = _power_disks(op, p, bits)
                    computed[k] = (halvings, P, chords, _superdiagonal_peaks(P))
                if k not in radius_ok:
                    _radius_checked(at_scale(k), p, bits)
                    radius_ok.add(k)
        except PrecisionError:
            # the weights feed the radii, so a smaller rho may certify
            if halvings == MAX_HALVINGS:
                raise
        else:
            uppers = _passing_td_uppers(computed, at_scale, halvings, delta / 2, bits)
            if uppers is not None:
                if op is None:
                    op = chain.to_operator(build_shift_weights(N, rho))
                rows = []
                for k, p in enumerate(powers):
                    td, U = uppers[k]
                    ti = _ti_upper(U, computed[k][2], bits)
                    rows.append(NormRow(k, p, Bound(Fraction(0), ti),
                                        Bound(Fraction(0), td), bits))
                norms = NormCertificate(seq.label, delta, rows, N)
                return OperatorBuild(op, norms, rho, halvings, delta)
        rho /= 2
    raise ValueError(f"weight tuning failed after {MAX_HALVINGS} halvings")


def _passing_td_uppers(computed: dict, at_scale, halvings: int,
                       limit: Fraction, bits: int) -> dict | None:
    """k -> ``_td_upper`` of each row at weight scale rho = 1/4 / 2^halvings
    (the search starts at rho = 1/4) when every norm_TD upper end is below
    ``limit``, else None.  A row whose ``_td_floor`` reaches the limit
    fails the halving before any assembly; otherwise the ends are assembled
    from the deepest row, which fails first, up to the first failing one."""
    units = limit * (1 << bits)
    if any(_td_floor(peaks, halvings - h) >= units
           for h, _, _, peaks in computed.values()):
        return None
    uppers = {}
    for k in sorted(computed, reverse=True):
        uppers[k] = _td_upper(at_scale(k), bits)
        if uppers[k][0] >= limit:
            return None
    return uppers


@dataclass
class BallCertificate:
    """delta*(1-g) - c*(1+g) > 2g for every g < gamma_max."""

    delta: Bound
    c: Fraction
    gamma_max: Fraction
    seq_label: str
    k_range: tuple[int, int]

    def to_certificate(self) -> Certificate:
        return Certificate(
            kind="ball-disjoint",
            claim=f"S^(n_k) U_gamma and U_gamma disjoint over {self.seq_label}, "
                  f"k in [{self.k_range[0]}, {self.k_range[1]}], "
                  f"gamma < {float(self.gamma_max):.6g}",
            passed=True,
            exact=True,
            method="linear margin from certified delta and norm sup",
            horizon=self.k_range[1],
            params={"c": frac_str(self.c)},
            bounds={"delta": self.delta},
            values={"gamma_max": frac_str(self.gamma_max)})


def ball_certificate(delta, norms: NormCertificate) -> BallCertificate | None:
    """Largest certified radius, or None when c >= delta."""
    d = delta if isinstance(delta, Bound) else Bound.exact(Fraction(delta))
    c = norms.sup_ti()
    if d.lo <= c:
        return None
    gamma_max = (d.lo - c) / (2 + d.lo + c)
    return BallCertificate(delta=d, c=c, gamma_max=gamma_max,
                           seq_label=norms.seq_label, k_range=norms.k_range)


@dataclass
class BallSampleReport:
    gamma: float
    threshold: float
    min_margin: float
    samples: int
    k_range: tuple[int, int]
    passed: bool


def _ball_points(seed: int, samples: int, N: int, g: float) -> np.ndarray:
    """``samples`` points uniform in the g-ball of C^N, drawn from
    ``random.Random(seed)``: one ``randbytes`` call gives 2N + 1 uniforms
    in (0, 1] per point, Box-Muller turns 2N of them into a standard
    complex normal direction, and the last sets the radius g * u^(1/(2N)).
    The points depend on (seed, samples, N, g) alone."""
    raw = random.Random(seed).randbytes(8 * samples * (2 * N + 1))
    # the top 53 bits of each word, plus one, in units of 2^-53
    uni = ((np.frombuffer(raw, dtype="<u8") >> 11) + 1) * 2.0 ** -53
    uni = uni.reshape(samples, 2 * N + 1)
    z = np.sqrt(-2 * np.log(uni[:, :N])) * np.exp(2j * np.pi * uni[:, N:2 * N])
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z * (g * uni[:, 2 * N] ** (1.0 / (2 * N)))[:, None]


def ball_mc_check(op: DiagShiftOperator, theta0, seq: IntegerSequence,
                  K: int, gamma, samples: int = 1000,
                  seed: int = 0) -> BallSampleReport:
    """Floating spot check: ||S^{n_k} u - u|| > 2*gamma for random u in
    the gamma-ball around e_1, S = lambda_0 T.  The phase of lambda_0^n
    uses exact residue reduction, but T^n is a plain float64
    ``matrix_power``, whose error grows with n: on a dimension-6 operator
    its diagonal is off from the exact lambda^n by about 3e-6 at n = 2^36
    and by more than 1 at n = 2^55.  Large n_k make the check meaningless.

    The points are drawn by ``_ball_points`` from ``random.Random(seed)``.
    """
    t0 = AngleTurns.of(theta0)
    g = float(gamma)
    if not 0 < g < 1:
        raise ValueError("gamma must be in (0, 1)")
    N = op.dimension
    T = op.dense_float()
    u = _ball_points(seed, samples, N, g)
    u[:, 0] += 1.0
    min_margin = math.inf
    for k in range(K + 1):
        n = seq.term(k)
        r = residue(t0.exact, n)
        phase = complex(math.cos(2 * math.pi * float(r)),
                        math.sin(2 * math.pi * float(r)))
        Sn = phase * np.linalg.matrix_power(T, n)
        move = np.linalg.norm(u @ Sn.T - u, axis=1)
        min_margin = min(min_margin, float(np.min(move)) - 2 * g)
    return BallSampleReport(gamma=g, threshold=2 * g, min_margin=min_margin,
                            samples=samples, k_range=(0, K),
                            passed=min_margin > 0)


# ---------------------------------------------------------------------------
# the multiplication-minus-integration eigencheck
# ---------------------------------------------------------------------------

@dataclass
class KalishResult:
    theta: Fraction
    grid: int
    max_residual: float
    passed: bool
    method: str


def kalish_eigencheck(lam, grid: int) -> KalishResult:
    """Residual of (M - J) chi = lambda chi on a uniform circle grid.

    M multiplies by the coordinate; J is the complex line integral along
    the arc from 1 to the coordinate (left-endpoint quadrature).  The
    eigenfunction for lambda = e^{2 pi i theta} is the indicator of the
    arc from lambda back to 1, so the residual must vanish up to the
    O(1/grid) quadrature error.  lambda = 1 integrates in closed form:
    zeta - (zeta - 1) = 1, residual exactly zero.
    """
    if grid < 256:
        raise ValueError("grid must be at least 2^8")
    theta = AngleTurns.of(lam).exact
    tol = 10.0 * 2.0 * math.pi / grid
    if theta == 0:
        return KalishResult(theta, grid, 0.0, True, "closed-form")
    s = np.arange(grid)
    zeta = np.exp(2j * np.pi * s / grid)
    jump = math.ceil(theta * grid)
    chi = np.zeros(grid)
    chi[jump:] = 1.0
    lamc = complex(math.cos(2 * math.pi * float(theta)),
                   math.sin(2 * math.pi * float(theta)))
    steps = 1j * zeta * chi * (2 * np.pi / grid)
    if 0 < jump <= grid and theta * grid != jump:
        # the arc starts mid-cell; integrate that sliver exactly so the
        # residual stays first order in 1/grid for every theta
        steps = steps.astype(np.complex128)
        steps[jump - 1] += 1j * lamc * 2 * math.pi * float(Fraction(jump, grid) - theta)
    J = np.concatenate([[0.0], np.cumsum(steps)[:-1]])
    residual = np.abs(zeta * chi - J - lamc * chi)
    worst = float(np.max(residual))
    return KalishResult(theta, grid, worst, worst <= tol, "quadrature")
