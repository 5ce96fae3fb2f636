"""Diagonal-plus-backward-shift operators with certified power norms.

The operator acts on C^N as T e_n = lambda_n e_n + alpha_{n-1} e_{n-1}
(upper bidiagonal).  The diagonal angles are grown along a chain
j(n) -> n of certified perturbations so that every lambda_n stays close
to 1 in the orbit metric sup_k |lambda^{n_k} - mu^{n_k}|; the shift
weights are a fast-decaying rational schedule tuned until the matrix
powers T^{n_k} provably hug D^{n_k}.

What is certified and what is sampled:

* ``power_norm`` encloses the largest singular value of T^n - I and of
  T^n - D^n.  Matrix powers run in midpoint-radius arithmetic (binary
  exponentiation, rigorous rounding inflation), the diagonal of T^n is
  replaced by its exact unit-circle value, and the final norm bounds are
  assembled from an elementwise rational upper matrix, so the ``.hi``
  ends are true upper bounds.  The ``.lo`` ends come from a residual
  Rayleigh quotient on a floating singular vector, re-evaluated in exact
  rationals.
* ``ball_certificate`` turns a rotation-witness delta and a norm table
  into the exact largest radius gamma with
  delta*(1-gamma) - c*(1+gamma) > 2*gamma.
* ``ball_mc_check`` and ``kalish_eigencheck`` are floating-point
  spot checks, not certificates, and say so in their reports.

Matrix powers share no state: ``power_norm`` raises the precision in a
``working_bits`` block, which restores it on exit.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np
from mpmath import mp, mpc, mpf

from .certificates import Certificate, frac_str
from .circle import AngleTurns, PerturbResult, perturb_divisibility, unimod_dist
from .precision import (Bound, bits_for_power, bound_max, chord, cos_turns,
                        get_bits, residue, sin_turns, working_bits)
from .seqcore import IntegerSequence


class PrecisionError(RuntimeError):
    """Raised when the tracked radii swamp the requested certification."""


def _frac_of(x) -> Fraction:
    if isinstance(x, float):
        return Fraction(x)
    sign, man, exp, _ = x._mpf_
    out = Fraction(man) * (Fraction(2) ** exp)
    return -out if sign else out


def _mpf_of(fr: Fraction):
    # keeps tiny rationals out of the float64 underflow range
    return mpf(fr.numerator) / mpf(fr.denominator)


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
        theta = self.angles[n - 1]
        return bound_max([unimod_dist(theta, t)
                          for t in seq.prefix(self.horizon)])

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
                     eps: Iterable[Fraction], m_cap: int | None = None) -> DiagChain:
    """Grow N diagonal angles along the j-chain within per-edge budgets.

    Needs a chained-divisibility sequence: the perturbation by 1/n_m
    then moves nothing beyond index m-1 and every edge certificate has
    an exact zero tail.  Raises when some budget is infeasible within
    the search cap, which happens for slow (constant-ratio) growth.
    """
    budgets = [Fraction(e) for e in eps]
    if len(budgets) != N - 1:
        raise ValueError(f"need {N - 1} edge budgets for dimension {N}")
    if any(b <= 0 for b in budgets):
        raise ValueError("edge budgets must be positive")
    cap = m_cap if m_cap is not None else 4 * N + 48
    jm = build_j_function(N)
    angles = [Fraction(0)]
    ms: list[int | None] = [None]
    edges: list[PerturbResult | None] = [None]
    tele = [Bound.exact(0)]
    used: set[int] = set()
    for n in range(2, N + 1):
        budget = budgets[n - 2]
        pick = None
        for m in range(1, cap + 1):
            if m in used:
                continue
            try:
                probe = perturb_divisibility(0, seq, m)
            except IndexError:
                break                      # finite ratio list exhausted
            if probe.certificate.bound.certainly_lt(budget):
                pick = m
                break
        if pick is None:
            raise ValueError(f"edge budget {budget} infeasible at level {n} "
                             f"(searched m <= {cap}); the sequence grows too slowly")
        used.add(pick)
        parent = jm[n]
        step = perturb_divisibility(angles[parent - 1], seq, pick)
        angles.append(step.theta.exact)
        ms.append(pick)
        edges.append(step)
        tele.append(tele[parent - 1] + step.certificate.bound)
    return DiagChain(seq_label=seq.label, angles=angles, m_indices=ms,
                     edges=edges, tele_bounds=tele, eps=budgets,
                     horizon=max(used))


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
# midpoint-radius matrix powers
# ---------------------------------------------------------------------------
#
# One code path serves two backends: complex128/float64 arrays, or numpy
# object arrays holding mpmath numbers for bits > 53.  The radius update
#   rad' = |A| R_b + R_a |B| + R_a R_b + g |A||B|
# (with g covering the rounding of the midpoint product and every term
# inflated once more for its own rounding) is the standard a-priori
# bound; tiny absorbs underflow.

def _mm(Am, Ar, Bm, Br, u, tiny):
    K = Am.shape[0]
    one_plus = 1 + (4 * K + 64) * u
    absA = np.abs(Am) * (1 + 4 * u) + Ar
    absB = np.abs(Bm) * (1 + 4 * u) + Br
    g = (2 * K + 16) * u
    mid = Am @ Bm
    rad = (absA @ Br + Ar @ absB + g * (absA @ absB)) * one_plus + K * tiny
    return mid, rad


def _mat_power(Tm, Tr, n: int, u, tiny):
    N = Tm.shape[0]
    if isinstance(u, float):
        Pm = np.eye(N, dtype=np.complex128)
        Pr = np.zeros((N, N))
    else:
        Pm = np.array([[mpc(1) if i == j else mpc(0) for j in range(N)]
                       for i in range(N)], dtype=object)
        Pr = np.array([[mpf(0)] * N for _ in range(N)], dtype=object)
    Bm, Br = Tm, Tr
    while n:
        if n & 1:
            Pm, Pr = _mm(Pm, Pr, Bm, Br, u, tiny)
        n >>= 1
        if n:
            Bm, Br = _mm(Bm, Br, Bm, Br, u, tiny)
    return Pm, Pr


@contextmanager
def _working_precision(bits: int, n: int):
    """Precision of one ``power_norm`` call at ``bits`` and power ``n``.

    Raises the interval precision for the trigonometric bounds and yields
    the backend's unit roundoff and underflow floor ``(u, tiny)``.  Above
    53 bits the mpmath numbers are rounded at ``bits`` while the context
    is open, which is the rounding the radius model charges for.
    """
    with working_bits(max(get_bits(), bits + 32, bits_for_power(n))):
        if bits <= 53:
            yield 2.0 ** -52, 1e-290
        else:
            with mp.workprec(bits):
                yield mpf(2) ** (1 - bits), mpf(2) ** (-8 * bits)


def _entry_mid_rad(re_b: Bound, im_b: Bound, u, tiny):
    if isinstance(u, float):
        mid = complex(float(re_b.mid), float(im_b.mid))
        rad = float(re_b.width + im_b.width) + 4 * u + tiny
    else:
        mid = mpc(_mpf_of(re_b.mid), _mpf_of(im_b.mid))
        rad = _mpf_of(re_b.width + im_b.width) * (1 + 4 * u) + 4 * u + tiny
    return mid, rad


def _operator_mid_rad(op: DiagShiftOperator, u, tiny):
    N = op.dimension
    if isinstance(u, float):
        Tm = np.zeros((N, N), dtype=np.complex128)
        Tr = np.zeros((N, N))
    else:
        Tm = np.array([[mpc(0)] * N for _ in range(N)], dtype=object)
        Tr = np.array([[mpf(0)] * N for _ in range(N)], dtype=object)
    for j, a in enumerate(op.diag):
        mid, rad = _entry_mid_rad(cos_turns(a.exact), sin_turns(a.exact), u, tiny)
        Tm[j, j], Tr[j, j] = mid, rad
    for i, w in enumerate(op.weights):
        if isinstance(u, float):
            Tm[i, i + 1] = float(w)
            Tr[i, i + 1] = abs(float(w)) * u + tiny
        else:
            Tm[i, i + 1] = mpc(_mpf_of(w))
            Tr[i, i + 1] = abs(Tm[i, i + 1]) * u + tiny
    return Tm, Tr


def _abs_upper_fractions(Pm, Pr) -> list[list[Fraction]]:
    """Elementwise |mid| + rad as exact rationals (|z| <= |re| + |im|)."""
    N = Pm.shape[0]
    out = []
    for i in range(N):
        row = []
        for j in range(N):
            z = Pm[i, j]
            if isinstance(z, complex):
                mag = Fraction(abs(z.real)) + Fraction(abs(z.imag))
            else:
                mag = abs(_frac_of(z.real)) + abs(_frac_of(z.imag))
            row.append(mag + _frac_of(Pr[i, j]))
        out.append(row)
    return out


def _tri_norm_upper(U: list[list[Fraction]]) -> Fraction:
    """min(sqrt(norm1 * norminf), Frobenius) from an elementwise upper."""
    N = len(U)
    norm1 = max(sum(U[i][j] for i in range(N)) for j in range(N))
    norminf = max(sum(U[i][j] for j in range(N)) for i in range(N))
    frob2 = sum(x * x for row in U for x in row)
    a = Bound.exact(norm1 * norminf).sqrt().hi
    b = Bound.exact(frob2).sqrt().hi
    return min(a, b)


def _rayleigh_lower(mid: np.ndarray, rad_fr: list[list[Fraction]]) -> Fraction:
    """Certified sigma_max lower bound: exact ||M v|| - ||R |v||| on the
    float singular vector, all in rationals.  ``mid`` holds the midpoints
    in either backend; its float64 copy only supplies the vector, so the
    bound never rests on midpoints rounded below the working precision."""
    N = mid.shape[0]
    _, _, vh = np.linalg.svd(np.array([[complex(z) for z in row] for row in mid],
                                      dtype=np.complex128))
    v = vh[0].conj()
    vr = [Fraction(z.real) for z in v]
    vi = [Fraction(z.imag) for z in v]
    vabs = [abs(a) + abs(b) for a, b in zip(vr, vi)]
    num2 = Fraction(0)
    err2 = Fraction(0)
    for i in range(N):
        re = im = Fraction(0)
        err = Fraction(0)
        for j in range(N):
            a, b = _frac_of(mid[i, j].real), _frac_of(mid[i, j].imag)
            re += a * vr[j] - b * vi[j]
            im += a * vi[j] + b * vr[j]
            err += rad_fr[i][j] * vabs[j]
        num2 += re * re + im * im
        err2 += err * err
    v2 = sum(a * a + b * b for a, b in zip(vr, vi))
    lo = Bound.exact(num2).sqrt().lo - Bound.exact(err2).sqrt().hi
    den = Bound.exact(v2).sqrt().hi
    return max(Fraction(0), lo / den)


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
    thetas = [a.exact for a in op.diag]
    if n == 0:
        z = Bound.exact(0)
        return PowerNormResult(0, z, z, bits, "identity")
    if method not in ("auto", "matrix"):
        raise ValueError("method is 'auto' or 'matrix'")
    if op.is_diagonal and method == "auto":
        ti = bound_max([chord(residue(t, n)) for t in thetas])
        return PowerNormResult(n, ti, Bound.exact(0), bits, "diagonal-exact")

    with _working_precision(bits, n) as (u, tiny):
        Tm, Tr = _operator_mid_rad(op, u, tiny)
        with np.errstate(over="ignore", invalid="ignore"):
            Pm, Pr = _mat_power(Tm, Tr, n, u, tiny)
        if bits <= 53 and not (np.all(np.isfinite(Pm)) and np.all(np.isfinite(Pr))):
            raise PrecisionError(f"radius overflow after power {n} with {bits} "
                                 f"bits; retry with more bits")
        # exact diagonal of the triangular power
        residues = [residue(t, n) for t in thetas]
        for j, r in enumerate(residues):
            mid, rad = _entry_mid_rad(cos_turns(r), sin_turns(r), u, tiny)
            Pm[j, j], Pr[j, j] = mid, rad
        rad_fr = [[_frac_of(Pr[i, j])
                   for j in range(op.dimension)] for i in range(op.dimension)]
        worst = max(x for row in rad_fr for x in row)
        if worst > Fraction(1, 256):
            raise PrecisionError(
                f"radius {float(worst):.3g} after power {n} with {bits} bits; "
                f"retry with more bits")

        U = _abs_upper_fractions(Pm, Pr)

        U_ti = [row[:] for row in U]
        ti_m = Pm.copy()
        for j, r in enumerate(residues):
            U_ti[j][j] = chord(r).hi
            ti_m[j, j] -= 1
        upper_ti = _tri_norm_upper(U_ti)
        lower_ti = _rayleigh_lower(ti_m, rad_fr)

        U_td = [row[:] for row in U]
        td_m = Pm.copy()
        for j in range(op.dimension):
            U_td[j][j] = Fraction(0)      # diagonal cancels exactly
            td_m[j, j] = 0.0
        upper_td = _tri_norm_upper(U_td)
        lower_td = _rayleigh_lower(td_m, rad_fr)

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


def build_operator(seq: IntegerSequence, N: int, K: int, delta,
                   rho0: Fraction = Fraction(1, 4), bits: int = 53,
                   max_halvings: int = 60) -> OperatorBuild:
    """Assemble D + B: chain the diagonal within sum(eps) <= delta/4,
    then halve the weight scale rho until sup_k ||T^{n_k} - D^{n_k}||
    is certified below delta/2 for k <= K.  Deterministic; the final
    rho and the number of halvings land in the build record.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    eps = [delta * Fraction(1, 2 ** (n + 1)) for n in range(2, N + 1)]
    chain = build_diag_chain(seq, N, eps)
    powers = [seq.term(k) for k in range(K + 1)]
    rho = Fraction(rho0)
    for halvings in range(max_halvings + 1):
        op = chain.to_operator(build_shift_weights(N, rho))
        rows = []
        for k, p in enumerate(powers):
            res = power_norm(op, p, bits=bits)
            rows.append(NormRow(k, p, res.norm_ti, res.norm_td, bits))
        if max(r.norm_td.hi for r in rows) < delta / 2:
            norms = NormCertificate(seq.label, delta, rows, N)
            return OperatorBuild(op, chain, norms, rho, halvings, delta)
        rho /= 2
    raise ValueError(f"weight tuning failed after {max_halvings} halvings")


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
    the gamma-ball around e_1, S = lambda_0 T.  Phases use exact residue
    reduction first, so the check stays meaningful for large n_k, but
    the matrix powers themselves are plain float64.
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
