"""Diagonal-plus-backward-shift operators with certified power norms.

The operator acts on C^N as T e_n = lambda_n e_n + alpha_{n-1} e_{n-1}
(upper bidiagonal).  The diagonal angles are grown along a chain
j(n) -> n of certified perturbations so that every lambda_n stays close
to 1 in the orbit metric sup_k |lambda^{n_k} - mu^{n_k}|; the shift
weights are a fast-decaying rational schedule tuned until the matrix
powers T^{n_k} provably hug D^{n_k}.

What is certified and what is sampled:

* ``power_norm`` encloses the largest singular value of T^n - I and of
  T^n - D^n.  The lambda_m are pairwise distinct, so the entries of T^n
  are divided differences of z^n at the lambda_m, times products of the
  weights (Opitz's formula), and a table of them runs in midpoint-radius
  arithmetic on exact integers in units of 2^-P (``precision.ball_*``):
  products are exact, and each floor back to 2^-P units is charged to the
  radius, so no rounding model is involved.  Entry (i, i + d) of T^n is
  at most its Hermite-Genocchi cap binomial(n, d) s_d[i] in modulus, for
  the product s_d[i] of the weights it spans, and the table computes only
  the prefix of each superdiagonal that holds the entries whose cap
  reaches 2^-(bits + 8) and the entries they are made from; every other
  entry is the ball of its cap about 0.  The working precision P is
  derived before the run, over the computed entries alone, from exact
  lower bounds of the gaps |lambda_j - lambda_i| and the largest power,
  and raised again should a radius still reach 2^-8 of a 2^-bits unit,
  so a power never runs out of precision.
  Each lambda_m is enclosed once, by ``precision.cis_ends`` at P bits, and
  its powers are ball powers, exact 1 where the residue n theta_m is 0: a
  row whose residues all vanish is exactly I, with norms exactly 0.  A row
  keeps its entries in units of 2^-(bits + 32), each reaches 2^-bits units
  by one more shift, and the ``.hi`` ends are assembled in integers from
  an elementwise upper matrix, so they are true upper bounds.  The ``.lo``
  ends are the largest column 2-norm of the lower moduli max(|centre| -
  radius, 0) of the same balls.  The rows of
  ``build_operator`` carry the upper ends alone, as [0, hi]: its
  certificates read nothing else, and ``power_norm`` gives a row's lower
  ends when they are wanted.
* ``ball_certificate`` turns a rotation-witness delta and a norm table
  into the exact largest radius gamma with
  delta*(1-gamma) - c*(1+gamma) > 2*gamma.
* ``ball_mc_check`` and ``kalish_eigencheck`` are floating-point
  spot checks, not certificates, and say so in their reports.  numpy
  loads inside them, so a run without them loads none.

Halving the weight scale rho is an exact diagonal similarity,
T(rho / 2^h) = S T(rho) S^-1 with S = diag(2^(h i)), which scales entry
(i, j) by 2^(-h (j - i)).  So ``build_operator`` computes the table of each
power T^{n_k} once, at rho = 1/4, and a halving only shifts it.  A halving
where the largest centre on some superdiagonal of some row, so shifted,
already reaches delta/2 certainly fails, and it assembles no norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .certificates import Certificate, frac_str
from .circle import AngleTurns, DistanceCertificate, PerturbResult
from .precision import (Bound, ball_lower, ball_mul, ball_of_cis, ball_pow,
                        ball_recip, ball_scale, ball_shift, ball_sub,
                        ball_upper, bound_max, ceil_sqrt, chord, cis_ends,
                        distance_numerators, get_bits, residue,
                        seeded_uniforms, two_pi_upper, working_bits)
from .seqcore import IntegerSequence


class WeightTuningError(ValueError):
    """No weight scale that ``build_operator`` may reach certifies the
    power norms: a failed check, which the runner reports as such."""


class PrecisionError(RuntimeError):
    """Radii that swamp a certification.  ``power_norm`` and
    ``build_operator`` raise their working precision until the radii fit,
    so neither raises it; the benchmark's reach probe still catches it."""


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
    m_n is what keeps the angles pairwise distinct.  The move of edge n is
    the chord of distances[n-1], the exact largest distance of n_k / n_m
    to Z over k < m; its enclosure, and the telescoped bounds, are made
    when first read, at the working precision ``bits`` of the build.
    """

    seq_label: str
    angles: list[Fraction]
    m_indices: list[int | None]
    distances: list[Fraction | None]
    eps: list[Fraction]
    horizon: int                     # max m used; orbits are exact beyond it
    bits: int

    @property
    def dimension(self) -> int:
        return len(self.angles)

    @cached_property
    def edges(self) -> list[PerturbResult | None]:
        """Each edge's move certificate: sup_k of the move by 1/n_m, exact
        beyond k = m - 1."""
        with working_bits(self.bits):
            return [None] + [
                PerturbResult(AngleTurns(t), DistanceCertificate(
                    self.seq_label, m - 1, chord(d)))
                for t, m, d in zip(self.angles[1:], self.m_indices[1:],
                                   self.distances[1:])]

    @cached_property
    def tele_bounds(self) -> list[Bound]:
        """The moves summed along the j-chain from the seed to each angle."""
        jm = build_j_function(self.dimension)
        tele = [Bound.exact(0)]
        for n, edge in enumerate(self.edges[1:], 2):
            tele.append(tele[jm[n] - 1] + edge.certificate.bound)
        return tele

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
    an exact zero tail.  That move does not depend on the angle: it is the
    chord 2 sin(pi d_m) of the exact largest distance d_m of n_k / n_m to
    Z over k < m, selected once per m on integer numerators.  A candidate
    is rejected when 4 d_m reaches the budget (2 sin(pi x) >= 4 x on [0,
    1/2]) and accepted when 2 pi d_m, with pi rounded up, stays below it
    (sin x <= x); only between the two is the chord enclosed.  Raises
    when some budget is infeasible for every m <= 4 N + 48, which happens
    for slow (constant-ratio) growth.
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
    tp, tq = two_pi_upper().as_integer_ratio()
    dists: dict[int, tuple[int, int]] = {}     # m -> d_m as (a, n_m)
    angles = [Fraction(0)]
    ms: list[int | None] = [None]
    for n in range(2, N + 1):
        budget = budgets[n - 2]
        p, q = budget.as_integer_ratio()
        pick = None
        for m in range(1, cap + 1):
            if m in ms:
                continue
            if m not in dists:
                try:
                    n_m = seq.term(m)
                except IndexError:
                    break                  # finite ratio list exhausted
                dists[m] = max(distance_numerators(
                    Fraction(1, n_m), seq.prefix(m))), n_m
            a, n_m = dists[m]
            # 4 d_m < p/q and (2 pi d_m < p/q or the chord's enclosure is)
            if 4 * a * q < p * n_m and (
                    tp * a * q < p * tq * n_m
                    or chord(Fraction(a, n_m)).certainly_lt(budget)):
                pick = m
                break
        if pick is None:
            raise ValueError(f"edge budget {budget} infeasible at level {n} "
                             f"(searched m <= {cap}); the sequence grows too slowly")
        angles.append((angles[jm[n] - 1] + Fraction(1, seq.term(pick))) % 1)
        ms.append(pick)
    return DiagChain(seq_label=seq.label, angles=angles, m_indices=ms,
                     distances=[None] + [Fraction(*dists[m]) for m in ms[1:]],
                     eps=budgets, horizon=max(ms[1:]), bits=get_bits())


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
        import numpy as np
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
# powers of T from divided differences
# ---------------------------------------------------------------------------
#
# T is upper bidiagonal with pairwise distinct lambda_m on its diagonal, so
# (T^n)_ij = alpha_i ... alpha_{j-1} d_ij, where d_ij is the divided
# difference of z^n at lambda_i, ..., lambda_j (Opitz's formula):
# d_ii = lambda_i^n and d_ij = (d_{i+1,j} - d_{i,j-1}) / (lambda_j - lambda_i).
# The table runs on complex balls in units of 2^-P (``precision.ball_*``),
# and a row keeps the superdiagonals row[d][i], the entry (i, i + d) of T^n,
# in units of 2^-(bits + _GUARD); the norms read them in 2^-bits units,
# each entry by one more shift.

_GUARD = 32     # bits the working precision and the table rows keep below 2^-bits


def _scales(weights: list[Fraction]) -> list[list[Fraction]]:
    """s[d][i] = alpha_i ... alpha_{i+d-1}, the scale of entry (i, i + d)."""
    out = [[Fraction(1)] * (len(weights) + 1)]
    for d in range(1, len(weights) + 1):
        out.append([a * w for a, w in zip(out[-1], weights[d - 1:])])
    return out


def _log2_gaps(angles: list[Fraction]) -> list[list[float]]:
    """g[d][i], below log2 |lambda_{i+d} - lambda_i| (d >= 1): over the
    common denominator Q of the angles, dist(theta_j - theta_i, Z) is an
    integer over Q, and |lambda_j - lambda_i| = 2 sin(pi dist) >= 4 dist."""
    Q = math.lcm(*(t.denominator for t in angles))
    a = [t.numerator * (Q // t.denominator) for t in angles]
    base = math.log2(Q) - 2
    return [[]] + [[math.log2(min(r, Q - r)) - base
                    for r in ((a[i + d] - a[i]) % Q for i in range(len(a) - d))]
                   for d in range(1, len(a))]


def _lse(a: float, b: float) -> float:
    """log2(2^a + 2^b)."""
    return max(a, b) + math.log2(1 + 2.0 ** -abs(a - b))


def _spans(scales, n: int, bits: int) -> list[int]:
    """L_d, the length of the prefix of superdiagonal d of T^n that the
    table computes, d = 0, ..., N - 1.  Entry (i, i + d) is at most its
    cap binomial(n, d) s_d[i] in modulus (see ``_power_tables``), and the
    prefix reaches past the last entry whose cap reaches 2^-(bits + 8),
    found by integer comparisons from the end of the superdiagonal.
    Entry (i, i + d + 1) is made from entries i and i + 1 of superdiagonal
    d, so L_d is raised to L_{d+1} + 1 where that is larger; L_0 = N."""
    N = len(scales)
    spans = [N]
    for d in range(1, N):
        c, i = math.comb(n, d) << (bits + 8), N - d
        while i and c * scales[d][i - 1].numerator < scales[d][i - 1].denominator:
            i -= 1
        spans.append(i)
    for d in reversed(range(1, N - 1)):
        if spans[d + 1]:
            spans[d] = max(spans[d], spans[d + 1] + 1)
    return spans


def _working_bits(gaps, scales, n: int, bits: int) -> int:
    """The working precision P of the table of T^n: _GUARD bits above bits
    plus the largest log2 of a radius, in 2^-P units, times its scale,
    over the entries that ``_spans`` computes.  A float recursion bounds
    them.  log2 |d_ij| is at most m_ij, the smaller of lse(m_{i+1,j},
    m_{i,j-1}) - g_ij (from m_ii = 0) and log2 binomial(n, j - i) (see
    ``_power_tables``).  The radius, r_ii = bit_length(n) + 2 at the
    diagonal (a power of a ball of radius 3 units grows its radius about n
    times), gains lse(r_{i+1,j}, r_{i,j-1}) - g_ij from the two it
    subtracts and m_ij + 2 - g_ij from the reciprocal of the gap, a ball of
    radius 4 units.  The soundness of no bound depends on P."""
    mag = [0.0] * len(gaps)
    rad = [float(n.bit_length() + 2)] * len(gaps)
    worst = rad[0]
    for d, span in enumerate(_spans(scales, n, bits)[1:], 1):
        if not span:
            break
        binom = math.log2(math.comb(n, d))
        for i, (g, s) in enumerate(zip(gaps[d][:span], scales[d])):
            mag[i] = min(_lse(mag[i], mag[i + 1]) - g, binom)
            rad[i] = _lse(_lse(rad[i], rad[i + 1]), mag[i] + 2) - g
            if s:
                worst = max(worst, rad[i] + math.log2(s.numerator)
                            - math.log2(s.denominator))
        del mag[span:], rad[span:]
    return bits + math.ceil(worst) + _GUARD


def _power_tables(angles: list[Fraction], scales, powers: list[int], P: int,
                  bits: int):
    """The rows of T^n, in 2^-(bits + _GUARD) units, for each n of
    ``powers``, from its table in 2^-P units.  Each lambda_i is enclosed
    once, by ``cis_ends`` at P bits, and so is each reciprocal gap that a
    computed entry divides by; a row raises the previous row's diagonal to
    the power n / n_prev when n_prev divides n, and a zero residue n
    theta_i gives the exact 1, so a row whose residues are all zero is
    exactly I.  On the unit disk, which holds the convex hull of the
    lambda_i, the (j - i)-th derivative of z^n is at most (j - i)!
    binomial(n, j - i) in modulus, so |d_ij| <= binomial(n, j - i)
    (Hermite-Genocchi), and entry (i, i + d) is at most its cap
    binomial(n, d) s_d[i].  Superdiagonal d computes its prefix of
    ``_spans`` alone, and each entry past it takes the ball of its cap
    about 0, below 2^-(bits + 8): the exact 0 past the n superdiagonals of
    T^n."""
    g = P - bits - _GUARD       # from 2^-P units to the rows' units
    N = len(angles)
    spans = [_spans(scales, n, bits) for n in powers]
    with working_bits(P):
        lam = [ball_of_cis(cis_ends(t), P) for t in angles]
    inv = [None] + [[ball_recip(ball_sub(lam[i + d], lam[i]), P)
                     for i in range(max(L[d] for L in spans))] for d in range(1, N)]
    one = 1 << P, 0, 0
    rows, diag, prev = [], lam, 1
    for n, L in zip(powers, spans):
        e, base = (n // prev, diag) if n % prev == 0 else (n, lam)
        diag = [one if n * t.numerator % t.denominator == 0 else ball_pow(b, e, P)
                for t, b in zip(angles, base)]
        prev, t, row = n, diag, [[ball_shift(b, g) for b in diag]]
        for d in range(1, N):
            t = [_divided(x, y, r, P) for x, y, r in zip(t[1:L[d] + 1], t, inv[d])]
            c = math.comb(n, d) << (bits + _GUARD)
            row.append([ball_shift(ball_scale(b, s), g) for b, s in zip(t, scales[d])]
                       + [(0, 0, -(-c * s.numerator // s.denominator))
                          for s in scales[d][L[d]:]])
        rows.append(row)
    return rows


def _divided(x, y, r, P: int):
    """(x - y) r, the exact 0 when x and y are the same exact value."""
    diff = ball_sub(x, y)
    return diff if diff == (0, 0, 0) else ball_mul(diff, r, P)


def _tables(angles: list[Fraction], weights: list[Fraction],
            powers: list[int], bits: int):
    """(P, the ``_power_tables`` of T with these weights) at the working
    precision of ``_working_bits`` for the largest power, or higher: a
    radius above 2^-8 of a 2^-bits unit retries at a precision that covers
    it with _GUARD bits to spare."""
    scales = _scales(weights)
    P = _working_bits(_log2_gaps(angles), scales, max(powers), bits)
    while True:
        rows = _power_tables(angles, scales, powers, P, bits)
        worst = max(b[2] for row in rows for sd in row for b in sd)
        if worst <= 1 << (_GUARD - 8):
            return P, rows
        P += worst.bit_length() - (_GUARD - 8) + _GUARD


def _uppers(row, h: int) -> list[list[int]]:
    """Upper ends of the moduli of the entries of T^n - D^n in 2^-bits
    units, at weight scale rho / 2^h of the row's: halving rho is the exact
    diagonal similarity S T S^-1 with S = diag(2^i), which scales entry
    (i, i + d) by 2^-d.  The diagonal is 0."""
    return [[0] * len(row)] + [[ball_upper(ball_shift(b, _GUARD + h * d)) for b in sd]
                               for d, sd in enumerate(row[1:], 1)]


def _minus_one(row, bits: int):
    """The diagonal of T^n - I, the balls lambda_i^n - 1, in 2^-bits units."""
    one = 1 << (bits + _GUARD), 0, 0
    return [ball_shift(ball_sub(b, one), _GUARD) for b in row[0]]


def _peaks(row) -> list[int]:
    """M_d, the largest |re| or |im| of a centre on superdiagonal d = 1, 2,
    ... of a row, in 2^-bits units."""
    return [max(max(abs(b[0]), abs(b[1])) for b in sd) >> _GUARD for sd in row[1:]]


def _td_floor(peaks: list[int], h: int) -> int:
    """A lower bound for the norm_TD upper end of ``_uppers`` at halving h
    of the row with the superdiagonal peaks ``peaks``: a shifted centre
    keeps |c| >> (h d) or more in each part (the floor rounds away from
    zero below 0), so every entry of the upper matrix U is at least that,
    and both terms of min(sqrt(||U||_1 ||U||_inf), ||U||_F) are at least
    the largest entry of U."""
    return max((m >> h * d for d, m in enumerate(peaks, 1)), default=0)


def _norm_upper(U: list[list[int]]) -> int:
    """min(sqrt(||U||_1 ||U||_inf), ||U||_F), rounded up, of the
    nonnegative upper-triangular matrix with superdiagonals U."""
    N = len(U)
    rows = [sum(U[d][i] for d in range(N - i)) for i in range(N)]
    cols = [sum(U[d][j - d] for d in range(j + 1)) for j in range(N)]
    frob2 = sum(x * x for sd in U for x in sd)
    return min(ceil_sqrt(max(rows) * max(cols)), ceil_sqrt(frob2))


def _column_lower(L: list[list[int]]) -> int:
    """Lower end of ||M|| >= ||M e_j|| from the lower moduli of the entries
    of M, as superdiagonals: its largest column 2-norm, rounded down."""
    N = len(L)
    return math.isqrt(max(sum(L[d][j - d] ** 2 for d in range(j + 1))
                          for j in range(N)))


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

    Diagonal operators take the exact chord formula; otherwise the table of
    divided differences in midpoint-radius arithmetic, whose entries reach
    2^-bits units by one shift each.  The upper ends are assembled from
    elementwise upper moduli, the lower ends are the largest column 2-norm
    of the lower moduli.
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
    _, [row] = _tables([a.exact for a in op.diag], op.weights, [n], bits)
    unit = Fraction(1, 1 << bits)
    off = [[ball_shift(b, _GUARD) for b in sd] for sd in row[1:]]
    ends = []
    for diag in ([(0, 0, 0)] * len(row), _minus_one(row, bits)):
        # T^n - D^n, whose diagonal cancels exactly, then T^n - I
        balls = [diag] + off
        hi = _norm_upper([[ball_upper(b) for b in sd] for sd in balls])
        lo = _column_lower([[ball_lower(b) for b in sd] for sd in balls])
        ends.append(Bound(lo * unit, hi * unit))
    td, ti = ends
    return PowerNormResult(n, ti, td, bits, "midpoint-radius")


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
    working_bits: int | None = None     # the precision P of the table

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
            method="midpoint-radius divided differences, integer norm assembly",
            horizon=hi,
            params={"delta": frac_str(self.delta), "dimension": self.dimension,
                    "working_bits": self.working_bits},
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
    sup_k ||T^{n_k} - D^{n_k}|| is certified below delta/2 for k <= K.
    The table of each power is computed once, at rho = 1/4: a halving
    shifts it (``_uppers``).  The search starts at the first halving where
    no row certainly fails: a shifted centre keeps |c| >> (h d) or more of
    each part on superdiagonal d, and the upper end of the norm is at least
    its largest entry.  A halving assembles the ends from the deepest row,
    which fails first, up to the first failing one.  The rows of the
    passing halving carry [0, upper end] enclosures: the certificates read
    upper ends alone, and ``power_norm`` gives both ends of one row.
    Deterministic; the final rho and the number of halvings land in the
    build record.  Raises ``WeightTuningError`` when no halving up to
    ``MAX_HALVINGS`` certifies.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    eps = [delta * Fraction(1, 2 ** (n + 1)) for n in range(2, N + 1)]
    chain = build_diag_chain(seq, N, eps)
    powers = [seq.term(k) for k in range(K + 1)]
    rho = Fraction(1, 4)
    P, tables = _tables(chain.angles, build_shift_weights(N, rho), powers, bits)
    # an integer end in 2^-bits units is below delta/2 when below this one
    units = -(-(delta.numerator << bits) // (2 * delta.denominator))
    peaks = [_peaks(row) for row in tables]
    for halvings in range(MAX_HALVINGS + 1):
        if any(_td_floor(m, halvings) >= units for m in peaks):
            continue
        uppers = {}
        for k in reversed(range(K + 1)):
            U = _uppers(tables[k], halvings)
            uppers[k] = _norm_upper(U), U
            if uppers[k][0] >= units:
                break
        else:
            unit = Fraction(1, 1 << bits)
            rows = []
            for k, p in enumerate(powers):
                td, U = uppers[k]
                U[0] = [ball_upper(b) for b in _minus_one(tables[k], bits)]
                rows.append(NormRow(k, p, Bound(Fraction(0), _norm_upper(U) * unit),
                                    Bound(Fraction(0), td * unit), bits))
            rho /= 2 ** halvings
            op = chain.to_operator(build_shift_weights(N, rho))
            norms = NormCertificate(seq.label, delta, rows, N, P)
            return OperatorBuild(op, norms, rho, halvings, delta)
    raise WeightTuningError(
        f"weight tuning failed after {MAX_HALVINGS} halvings: no weight scale "
        f"rho = 1/4 / 2^h, h <= {MAX_HALVINGS}, certifies sup_k ||T^(n_k) - "
        f"D^(n_k)|| below delta/2 = {frac_str(delta / 2)} at {bits} bits")


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
    ``precision.seeded_uniforms``: 2N + 1 uniforms in (0, 1] per point,
    Box-Muller turns 2N of them into a standard complex normal direction,
    and the last sets the radius g * u^(1/(2N)).  The points depend on
    (seed, samples, N, g) alone."""
    import numpy as np
    uni = seeded_uniforms(seed, samples * (2 * N + 1)).reshape(samples, 2 * N + 1)
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

    The points are drawn by ``_ball_points`` from ``random.Random(seed)``
    (``precision.seeded_uniforms``).
    """
    import numpy as np
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
    import numpy as np
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
