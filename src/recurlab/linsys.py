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
  charged to the radius, so no rounding model is involved.  The diagonal
  of T^n is replaced by its enclosure of the exact unit-circle value, and
  the ``.hi`` ends are assembled in integers from an elementwise upper
  matrix, so they are true upper bounds.  The ``.lo`` ends come from a
  residual Rayleigh quotient on a floating singular vector scaled to
  integers, evaluated exactly.
* ``ball_certificate`` turns a rotation-witness delta and a norm table
  into the exact largest radius gamma with
  delta*(1-gamma) - c*(1+gamma) > 2*gamma.
* ``ball_mc_check`` and ``kalish_eigencheck`` are floating-point
  spot checks, not certificates, and say so in their reports.

``power_norm`` raises the precision in a ``working_bits`` block, which
restores it on exit.  The one state matrix powers share is the top square
of the ladder T, T^2, T^4, ..., kept per integer disks of T and bits, so
the powers n_k = 2^(k(k+1)/2) of one operator square once between them.

Halving the weight scale rho is an exact diagonal similarity,
T(rho / 2^h) = S T(rho) S^-1 with S = diag(2^(h i)), so ``build_operator``
computes each power T^{n_k} once, at the first halving that reaches row k,
and rescales its disks at every later one.  The rounding made at the
larger scale shrinks with the entries, so in practice no bound is looser
than powering afresh; at 53 bits dimension 16 certifies through horizon 9
(n = 2^45).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import numpy as np

from .certificates import Certificate, frac_str
from .circle import AngleTurns, PerturbResult, chord_extreme, perturb_divisibility
from .precision import (Bound, bits_for_power, bound_max, chord, cos_turns,
                        get_bits, residue, sin_turns, working_bits)
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

    def direct_d_to_one(self, seq: IntegerSequence, n: int) -> Bound:
        """Certified sup_k |lambda_n^{n_k} - 1| over all k (exact tail)."""
        return chord_extreme(self.angles[n - 1], seq.prefix(self.horizon))[0]

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

    def __post_init__(self):
        N = self.dimension
        if N < 1 or len(self.diag) != N:
            raise ValueError("diag length must equal the dimension")
        if any(not a.is_exact for a in self.diag):
            raise ValueError("diagonal angles must be exact rationals")
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


# elementwise upper bound of |re + i im|
_abs_upper = np.frompyfunc(lambda re, im: _ceil_sqrt(re * re + im * im), 2, 1)


def _fixed(b: Bound, bits: int) -> tuple[int, int]:
    """Midpoint and radius in 2^-bits units of a disk around ``b``."""
    lo, hi = math.floor(b.lo * 2 ** bits), math.ceil(b.hi * 2 ** bits)
    mid = (lo + hi) >> 1
    return mid, hi - mid


def _unit_entry(theta: Fraction, bits: int) -> tuple[int, int, int]:
    """e^{2 pi i theta} as (re, im, rad) in 2^-bits units, from the trig
    enclosures at the working precision."""
    re, re_rad = _fixed(cos_turns(theta), bits)
    im, im_rad = _fixed(sin_turns(theta), bits)
    return re, im, re_rad + im_rad


def _operator_disks(op: DiagShiftOperator, bits: int):
    N = op.dimension
    re, im, rad = (np.zeros((N, N), dtype=object) for _ in range(3))
    for j, a in enumerate(op.diag):
        re[j, j], im[j, j], rad[j, j] = _unit_entry(a.exact, bits)
    for i, w in enumerate(op.weights):
        re[i, i + 1], rad[i, i + 1] = _fixed(Bound.exact(w), bits)
    return re, im, rad


def _mm(A, B, bits: int):
    (ar, ai, arad), (br, bi, brad) = A, B
    re = ar @ br - ai @ bi
    im = ar @ bi + ai @ br
    rad = _abs_upper(ar, ai) @ brad + arad @ (_abs_upper(br, bi) + brad)
    low = (1 << bits) - 1
    lost = ((re & low) != 0).astype(object) + ((im & low) != 0).astype(object)
    return re >> bits, im >> bits, -(-rad >> bits) + lost


@lru_cache(maxsize=2)
def _ladder(key: tuple) -> list:
    """[i, T^(2^i)]: the top of the squaring ladder T, T^2, T^4, ... of
    the disks spelled out by ``key``, as far as ``_mat_power`` has climbed."""
    return []


def _mat_power(T, n: int, bits: int):
    """T^n by binary powering.  The powers of one T share its squaring
    ladder, of which only the top square is kept: a power with no set bit
    below the top starts there, any other starts from T, so increasing
    powers of two square once between them in the memory of plain binary
    powering.  The ladder is keyed by the contents of T, which depend on
    the working precision, not by the operator; the result never aliases
    a square, because power_norm writes into it."""
    top = _ladder((bits,) + tuple(tuple(M.flat) for M in T))
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


def _rayleigh_lower(re, im, rad, bits: int) -> Fraction:
    """Certified sigma_max lower bound (||M v|| - ||R |v|||) / ||v||, exact in
    integers, on the float singular vector of the midpoints scaled to
    integers; the floats only choose the vector."""
    gauge = max(bits - 64, 0)       # keeps the float copy in range
    mid = (re >> gauge).astype(float) + 1j * (im >> gauge).astype(float)
    v = np.linalg.svd(mid)[2][0].conj() * 2.0 ** 52
    vr = np.array([round(x) for x in v.real], dtype=object)
    vi = np.array([round(x) for x in v.imag], dtype=object)
    wr, wi = re @ vr - im @ vi, re @ vi + im @ vr
    err = rad @ _abs_upper(vr, vi)
    num = math.isqrt((wr * wr + wi * wi).sum()) - _ceil_sqrt((err * err).sum())
    den = _ceil_sqrt((vr * vr + vi * vi).sum())
    return Fraction(max(num, 0), den << bits)


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
    chords |lambda_j^n - 1| in the same units."""
    with working_bits(max(get_bits(), bits + 32, bits_for_power(n))):
        re, im, rad = _mat_power(_operator_disks(op, bits), n, bits)
        # exact diagonal of the triangular power
        residues = [residue(a.exact, n) for a in op.diag]
        for j, r in enumerate(residues):
            re[j, j], im[j, j], rad[j, j] = _unit_entry(r, bits)
        chords = [math.ceil(chord(r).hi * 2 ** bits) for r in residues]
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


def _td_upper(P, bits: int) -> Fraction:
    """Upper end of ||T^n - D^n|| from the disks of T^n, whose diagonal
    cancels exactly."""
    re, im, rad = P
    U = _abs_upper(re, im) + rad
    np.fill_diagonal(U, 0)
    return _tri_norm_upper(U, bits)


def _power_bounds(P, chords: list[int], n: int, bits: int) -> PowerNormResult:
    """Both norm enclosures from the disks and chords of ``_power_disks``."""
    re, im, rad = P
    U_ti, ti_re = _abs_upper(re, im) + rad, re.copy()
    for j, c in enumerate(chords):
        U_ti[j, j] = c
        ti_re[j, j] -= 1 << bits
    upper_ti = _tri_norm_upper(U_ti, bits)
    lower_ti = _rayleigh_lower(ti_re, im, rad, bits)

    td_re, td_im, td_rad = (M.copy() for M in P)
    for M in (td_re, td_im, td_rad):
        np.fill_diagonal(M, 0)
    upper_td = _td_upper(P, bits)
    lower_td = _rayleigh_lower(td_re, td_im, td_rad, bits)

    assert lower_ti <= upper_ti and lower_td <= upper_td
    return PowerNormResult(n, Bound(lower_ti, upper_ti),
                           Bound(lower_td, upper_td), bits, "midpoint-radius")


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
    chain: DiagChain
    norms: NormCertificate
    rho: Fraction
    halvings: int
    delta: Fraction


MAX_HALVINGS = 60     # weight-scale halvings before build_operator gives up


def build_operator(seq: IntegerSequence, N: int, K: int, delta,
                   rho0: Fraction = Fraction(1, 4), bits: int = 53) -> OperatorBuild:
    """Assemble D + B: chain the diagonal within sum(eps) <= delta/4,
    then halve the weight scale rho until sup_k ||T^{n_k} - D^{n_k}||
    is certified below delta/2 for k <= K.  A weight scale whose powers
    raise PrecisionError is halved too; the error escapes only at the
    last allowed halving.  Each power is computed at the first halving
    that reaches its row, not all at rho0, where the integers grow without
    bound at deep horizons, and rescaled after (``_rescale``).
    Deterministic; the final rho and the number of halvings land in the
    build record.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    eps = [delta * Fraction(1, 2 ** (n + 1)) for n in range(2, N + 1)]
    chain = build_diag_chain(seq, N, eps)
    powers = [seq.term(k) for k in range(K + 1)]
    rho = Fraction(rho0)
    computed: dict[int, tuple] = {}     # k -> (halving, disks, chords)
    for halvings in range(MAX_HALVINGS + 1):
        op = chain.to_operator(build_shift_weights(N, rho))
        scaled = {}
        try:
            # every radius is checked before any norm is assembled, so a
            # weight scale that runs out of precision costs only rescales
            for k, p in enumerate(powers):
                if p and not op.is_diagonal:
                    if k not in computed:
                        computed[k] = (halvings, *_power_disks(op, p, bits))
                    h, P, chords = computed[k]
                    P = _radius_checked(_rescale(P, halvings - h), p, bits)
                    scaled[k] = P, chords
        except PrecisionError:
            # the weights feed the radii, so a smaller rho may certify
            if halvings == MAX_HALVINGS:
                raise
        else:
            # only the norm_TD upper ends decide a halving (a row without
            # disks is the identity or diagonal, norm_TD = 0), so the lower
            # ends are assembled at the passing halving alone; the deepest
            # rows fail first, and the first failing row ends the decision
            if all(_td_upper(scaled[k][0], bits) < delta / 2
                   for k in sorted(scaled, reverse=True)):
                rows = []
                for k, p in enumerate(powers):
                    res = (_power_bounds(*scaled[k], p, bits) if k in scaled
                           else power_norm(op, p, bits=bits))
                    rows.append(NormRow(k, p, res.norm_ti, res.norm_td, bits))
                norms = NormCertificate(seq.label, delta, rows, N)
                return OperatorBuild(op, chain, norms, rho, halvings, delta)
        rho /= 2
    raise ValueError(f"weight tuning failed after {MAX_HALVINGS} halvings")


@dataclass
class BallCertificate:
    """delta*(1-g) - c*(1+g) > 2g for every g < gamma_max."""

    delta: Bound
    c: Fraction
    gamma_max: Fraction
    seq_label: str
    k_range: tuple[int, int]

    def margin(self, gamma) -> Fraction:
        g = Fraction(gamma)
        return self.delta.lo * (1 - g) - self.c * (1 + g) - 2 * g

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


def ball_mc_check(op: DiagShiftOperator, theta0, seq: IntegerSequence,
                  K: int, gamma, samples: int = 1000,
                  seed: int = 0) -> BallSampleReport:
    """Floating spot check: ||S^{n_k} u - u|| > 2*gamma for random u in
    the gamma-ball around e_1, S = lambda_0 T.  The phase of lambda_0^n
    uses exact residue reduction, but T^n is a plain float64
    ``matrix_power``, whose error grows with n: on a dimension-6 operator
    its diagonal is off from the exact lambda^n by about 3e-6 at n = 2^36
    and by more than 1 at n = 2^55.  Large n_k make the check meaningless.
    """
    t0 = AngleTurns.of(theta0)
    if not t0.is_exact:
        raise ValueError("the rotation witness angle must be exact")
    g = float(gamma)
    if not 0 < g < 1:
        raise ValueError("gamma must be in (0, 1)")
    N = op.dimension
    T = op.dense_float()
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((samples, N)) + 1j * rng.standard_normal((samples, N))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    radii = g * rng.random(samples) ** (1.0 / (2 * N))
    u = z * radii[:, None]
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
    jump: int
    max_residual: float
    tol: float
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
    t = AngleTurns.of(lam)
    if not t.is_exact:
        raise ValueError("lambda must be an exact rational angle")
    if grid < 256:
        raise ValueError("grid must be at least 2^8")
    theta = t.exact
    tol = 10.0 * 2.0 * math.pi / grid
    if theta == 0:
        return KalishResult(theta, grid, 0, 0.0, tol, True, "closed-form")
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
    return KalishResult(theta, grid, jump, worst, tol, worst <= tol,
                        "quadrature")
