"""Certified geometry of unimodular orbits ``lambda^n = e^{2 pi i n theta}``.

For exact rational angles everything reduces to residue arithmetic: the
distance ``|lambda^n - 1|`` is the chord ``2 |sin(pi n theta)|``, it
depends only on the fractional part of ``n theta``, and it is monotone in
the distance of that fractional part to the nearest integer.  Sups and
infs over finite index sets are therefore *selected* on exact integer
residue numerators and only the extremal residue is evaluated in interval
arithmetic, by :func:`chord_extreme`, the package's one such selector.
Approximate angles (a rational enclosure window) are carried through
with outward-rounded windows instead.

Three separation questions recur downstream and get their own reports:

* how far apart two orbits can drift over a finite horizon
  (:func:`d_metric_finite`; with ``n_0 = 1`` in the sequence this
  finite-horizon quantity is a genuine metric restriction);
* whether some ``lambda != 1`` stays ``epsilon``-close to 1 along the
  whole horizon (:func:`jamison_separation_test`);
* whether some ``lambda`` stays *far* from 1 along the whole horizon
  (:func:`witness_nested_intervals` / :func:`verify_witness`).

Divisibility sequences admit an exact tail: perturbing an angle by
``1/n_m`` moves ``lambda^{n_k}`` not at all for ``k >= m``, so the sup of
the move over *all* k is attained on ``k < m`` and the certificate is
exact rather than finite-horizon (:func:`perturb_divisibility`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable

import numpy as np

from .certificates import Certificate, frac_str
from .precision import (Bound, bound_max, chord, distance_numerators, pi_bound,
                        residue, residue_distance)
from .seqcore import IntegerSequence


class AngleTurns:
    """Angle in turns: exact Fraction in [0, 1) or a rational window."""

    __slots__ = ("exact", "window")

    def __init__(self, exact: Fraction | None = None, window: Bound | None = None):
        if (exact is None) == (window is None):
            raise ValueError("give exactly one of exact, window")
        self.exact = Fraction(exact) % 1 if exact is not None else None
        self.window = window

    @staticmethod
    def of(x) -> "AngleTurns":
        if isinstance(x, AngleTurns):
            return x
        return AngleTurns(exact=Fraction(x))

    @staticmethod
    def approx(value, radius) -> "AngleTurns":
        v, r = Fraction(value), Fraction(radius)
        if r < 0:
            raise ValueError("negative radius")
        return AngleTurns(window=Bound(v - r, v + r))

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def minus(self, other: "AngleTurns") -> "AngleTurns":
        other = AngleTurns.of(other)
        if self.is_exact and other.is_exact:
            return AngleTurns(exact=self.exact - other.exact)
        a = Bound.exact(self.exact) if self.is_exact else self.window
        b = Bound.exact(other.exact) if other.is_exact else other.window
        return AngleTurns(window=a - b)

    def plus_fraction(self, fr: Fraction) -> "AngleTurns":
        if self.is_exact:
            return AngleTurns(exact=self.exact + fr)
        return AngleTurns(window=self.window + Bound.exact(fr))

    def __repr__(self) -> str:
        if self.is_exact:
            return f"AngleTurns({self.exact})"
        return f"AngleTurns(~{self.window})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, AngleTurns):
            return NotImplemented
        return self.exact == other.exact and self.window == other.window


def _dist_range_of_window(win: Bound, n: int) -> tuple[Fraction, Fraction]:
    """Range of distance-to-Z of n*t over the window, as [min, max]."""
    half = Fraction(1, 2)
    scaled = win.scale(n)
    if scaled.width >= 1:
        return Fraction(0), half
    base = scaled.lo.__floor__()
    a, b = scaled.lo - base, scaled.hi - base     # 0 <= a <= b < 2
    hits_int = (a == 0) or (a <= 1 <= b)
    dmin = Fraction(0) if hits_int else min(residue_distance(a), residue_distance(b))
    hits_half = (a <= half <= b) or (a <= half + 1 <= b)
    dmax = half if hits_half else max(residue_distance(a), residue_distance(b))
    return dmin, dmax


def unimod_dist(theta, n: int) -> Bound:
    """Certified ``|e^{2 pi i n theta} - 1|``."""
    theta = AngleTurns.of(theta)
    if n < 0:
        n = -n   # conjugation does not change the chord
    if theta.is_exact:
        return chord(residue(theta.exact, n))
    dmin, dmax = _dist_range_of_window(theta.window, n)
    return Bound(chord(dmin).lo, chord(dmax).hi)


def chord_extreme(theta: Fraction, terms: Iterable[int],
                  pick=max) -> tuple[Bound, Fraction]:
    """Certified ``pick`` (max: sup, min: inf) of ``|e^{2 pi i n theta} - 1|``
    over terms, with the selected distance of ``n theta`` to Z: selected on
    the integer numerators of ``distance_numerators``, evaluated once."""
    d = Fraction(pick(distance_numerators(theta, terms)), theta.denominator)
    return chord(d), d


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class DistanceCertificate:
    """Certified sup_k |lambda^{n_k} - mu^{n_k}| over a horizon."""

    seq_label: str
    horizon: int
    bound: Bound
    tail_exact: bool


def d_metric_finite(theta1, theta2, seq: IntegerSequence, K: int) -> DistanceCertificate:
    """Finite-horizon orbit distance; equals chord of the angle difference.

    ``|lambda^n - mu^n| = |e^{2 pi i n (t1 - t2)} - 1|`` since both points
    are unimodular, so only the difference angle matters.
    """
    diff = AngleTurns.of(theta1).minus(theta2)
    terms = seq.prefix(K + 1)
    if diff.is_exact:
        bound, _ = chord_extreme(diff.exact, terms)
    else:
        bound = bound_max(unimod_dist(diff, n) for n in terms)
    return DistanceCertificate(seq_label=seq.label, horizon=K, bound=bound, tail_exact=False)


@dataclass
class PerturbResult:
    theta: AngleTurns
    certificate: DistanceCertificate


def perturb_divisibility(theta, seq: IntegerSequence, m: int) -> PerturbResult:
    """Perturb an angle by ``1/n_m`` with an exact-tail move certificate.

    For a chained-divisibility sequence, ``n_k / n_m`` is an integer for
    every ``k >= m``, so the perturbation moves no orbit point beyond
    index ``m - 1`` and the sup over *all* k is exact.
    """
    if not seq.divisibility:
        raise ValueError("perturbation tail is exact only for divisibility sequences")
    if m < 1:
        raise ValueError("m must be >= 1")
    n_m = seq.term(m)
    moved = AngleTurns.of(theta).plus_fraction(Fraction(1, n_m))
    # sup_k |mu^{n_k} - lambda^{n_k}| = max_{k<m} chord(n_k / n_m), tail = 0
    bound, _ = chord_extreme(Fraction(1, n_m), seq.prefix(m))
    cert = DistanceCertificate(seq_label=seq.label, horizon=m - 1, bound=bound, tail_exact=True)
    return PerturbResult(theta=moved, certificate=cert)


@dataclass
class WitnessCertificate:
    """Certified min_k |lambda^{n_k} - 1| >= delta over a horizon."""

    theta: AngleTurns
    seq_label: str
    horizon: int
    delta: Bound
    residues: list[Fraction] | None
    target: Fraction | None
    meets_target: bool | None

    def to_certificate(self) -> Certificate:
        values = {"residues": sorted({frac_str(r) for r in self.residues})
                  if self.residues is not None else None,
                  "meets_target": self.meets_target}
        return Certificate(
            kind="rotation-witness",
            claim=f"min of |lambda^{{n_k}} - 1| over {self.seq_label}, k <= {self.horizon}",
            passed=bool(self.meets_target) if self.target is not None else True,
            exact=self.delta.is_exact,
            method="exact residue selection + certified chord",
            horizon=self.horizon,
            params={"theta": repr(self.theta),
                    "target": frac_str(self.target) if self.target is not None else None},
            bounds={"delta": self.delta},
            values=values,
        )


def verify_witness(theta, seq: IntegerSequence, K: int,
                   target: Fraction | None = None) -> WitnessCertificate:
    """Term-by-term certification of a separation witness."""
    t = AngleTurns.of(theta)
    terms = seq.prefix(K + 1)
    if t.is_exact:
        delta, _ = chord_extreme(t.exact, terms, min)
        residues = [residue(t.exact, n) for n in terms]
    else:
        delta = reduce(Bound.min_with, (unimod_dist(t, n) for n in terms))
        residues = None
    meets = delta.certainly_ge(target) if target is not None else None
    return WitnessCertificate(theta=t, seq_label=seq.label, horizon=K, delta=delta,
                              residues=residues, target=Fraction(target) if target is not None else None,
                              meets_target=meets)


@dataclass
class WitnessSearch:
    found: bool
    certificate: WitnessCertificate | None
    requested_delta: Fraction
    trials: list[tuple[Fraction, Fraction]]   # (search delta, surviving measure)


# n_k + 1 balls per term; admits the ratio-3 chain to K = 11 (265,732 balls)
_MAX_BALLS = 300_000


def _survivors(terms: list[int], r: Fraction) -> tuple[list[tuple[int, int]], int]:
    """The points of [0, 1) at distance at least ``r / n`` from every
    multiple of ``1/n``, n in terms, as integer numerators over one ``D``.

    With ``r = p/q``, ``L = lcm(terms)`` and ``D = q L``, ball j of term n
    is ``[(j q - p) m, (j q + p) m)``, ``m = L / n``; the unclipped balls
    j = 0..n cover in [0, 1) exactly what the wrap-around circle balls
    cover.  Each survivor piece subtracts only the balls that meet it, in
    ascending j, so nothing is sorted or merged.  Returns ``D`` and the
    pieces ``[A, B)`` in the normal form of ``IntervalSet`` (sorted,
    disjoint, non-adjacent).
    """
    p, q = r.numerator, r.denominator
    L = math.lcm(*terms)
    parts = [(0, q * L)]
    for n in terms:
        m = L // n
        pm, qm = p * m, q * m
        out = []
        for A, B in parts:
            lo, j = A, max(0, (A - pm) // qm)
            while j <= n and lo < B:
                c = j * qm
                if c - pm >= B:
                    break
                if c - pm > lo:
                    out.append((lo, c - pm))
                lo = max(lo, c + pm)
                j += 1
            if lo < B:
                out.append((lo, B))
        parts = out
        if not parts:
            break
    return parts, q * L


def witness_nested_intervals(seq: IntegerSequence, K: int,
                             delta_target) -> WitnessSearch:
    """Search for lambda with all |lambda^{n_k} - 1| >= delta, k <= K.

    Greedy nested-interval engine: survivors of step k avoid a neighborhood
    of radius ``delta_s / (4 pi n_k)`` around every multiple of ``1/n_k``
    (the design radius ``delta_s/(2 pi n_k)`` with a 1/2 safety factor), so
    any survivor has ``dist(n_k theta, Z) >= delta_s/(4 pi)`` and chord at
    least ``2 sin(delta_s / 4)``.  The survivor set is swept on integer
    numerators (:func:`_survivors`); only each trial's measure and the
    midpoint of its first largest piece become Fractions.  The midpoint is
    re-verified term by term; the certificate's delta is the certified
    achieved value, never the design floor.  If the requested target
    fails, the search relaxes the design delta downward (halving ladder)
    and reports the best certified witness with ``found=False`` instead of
    guessing.
    """
    delta_target = Fraction(delta_target)
    if delta_target <= 0:
        raise ValueError("delta target must be positive")
    terms = seq.prefix(K + 1)
    if sum(terms) + len(terms) > _MAX_BALLS:
        raise ValueError(
            f"nested-interval engine needs {sum(terms) + len(terms)} ball removals, "
            f"budget is {_MAX_BALLS}; use a structural witness instead")
    # upper rational bound of 1/(4 pi): radius never undershoots the design
    inv4pi = Fraction(1) / (4 * pi_bound().lo)
    ladder = [Fraction(4), Fraction(3), Fraction(5, 2), Fraction(2),
              Fraction(3, 2), Fraction(1), Fraction(1, 2), Fraction(1, 4),
              Fraction(1, 8), Fraction(1, 16)]
    trials: list[tuple[Fraction, Fraction]] = []
    best: WitnessCertificate | None = None
    for factor in ladder:
        delta_s = delta_target * factor
        parts, D = _survivors(terms, delta_s * inv4pi)
        trials.append((delta_s, Fraction(sum(b - a for a, b in parts), D)))
        if not parts:
            continue
        a, b = max(parts, key=lambda iv: iv[1] - iv[0])
        cert = verify_witness(Fraction(a + b, 2 * D), seq, K, target=delta_target)
        if best is None or cert.delta.lo > best.delta.lo:
            best = cert
        if cert.meets_target:
            return WitnessSearch(found=True, certificate=cert,
                                 requested_delta=delta_target, trials=trials)
    return WitnessSearch(found=False, certificate=best,
                         requested_delta=delta_target, trials=trials)


# ---------------------------------------------------------------------------
# near-1 search (separation test)
# ---------------------------------------------------------------------------

GRID_LIMIT = 2 ** 31     # grids from here on are refused: about 2^30 rows


@dataclass
class JamisonReport:
    """Outcome of the search for lambda != 1 with small horizon sup."""

    epsilon: Fraction
    horizon: int
    grid: int
    best_theta: Fraction | None
    sup: Bound | None
    witness_found: bool
    method: str
    candidates_checked: int


def _grid_scan(terms: list[int], grid: int) -> tuple[int, int]:
    """First ``i`` minimising ``max min(r, grid - r)``, ``r = i n mod grid``;
    returns (i, that max).  Rows ``i`` and ``grid - i`` are equal, so only
    ``i <= grid // 2`` is scanned.  Terms ``n`` and ``grid - n`` give equal
    distances in every row, so the columns are the distinct folded residues
    ``min(n mod grid, grid - n mod grid)``.  Products are at most
    ``(grid // 2) ** 2``: int32 while that is below 2**31 (up to grid
    92,681), else int64 (``grid < 2**31``, which the caller enforces)."""
    dtype = np.int32 if (grid // 2) ** 2 < 2 ** 31 else np.int64
    folded = {min(n % grid, -n % grid) for n in terms}
    n_arr = np.array(sorted(folded), dtype=dtype)
    best_i, best_d = 0, grid
    half = grid // 2
    chunk = max(1, (1 << 16) // len(n_arr))     # a cache-sized block of rows
    for lo in range(1, half + 1, chunk):
        ii = np.arange(lo, min(lo + chunk, half + 1), dtype=dtype)
        r = ii[:, None] * n_arr[None, :]
        np.fmod(r, grid, out=r)          # r >= 0, so fmod is the residue
        d = np.minimum(r, grid - r).max(axis=1)
        j = int(d.argmin())
        if int(d[j]) < best_d:
            best_d, best_i = int(d[j]), lo + j
    return best_i, best_d


def _refine_float(theta0: float, terms: list[int], halfwidth: float,
                  steps: int = 48) -> float:
    """Golden-section polish of ``max 2 |sin(pi ((n t) % 1.0))|`` near theta0.
    The residues are one numpy array (the same IEEE products and remainders
    as a term loop), and ``math.sin`` runs only on terms within ``2**-20``
    of the largest distance to Z: any other term's true chord is over 8e-12
    below the top one, far beyond the 2e-15 float error: the same max."""
    n_arr = np.array(terms, dtype=np.float64)

    def f(t: float) -> float:
        x = (n_arr * t) % 1.0
        dist = np.minimum(x, 1.0 - x)
        near = x[dist >= dist.max() - 2.0 ** -20]
        return max(2 * abs(math.sin(math.pi * float(v))) for v in near)

    inv_phi = (5 ** 0.5 - 1) / 2
    a, b = theta0 - halfwidth, theta0 + halfwidth
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2


def jamison_separation_test(seq: IntegerSequence, epsilon, K: int,
                            grid: int = 0) -> JamisonReport:
    """Search for ``lambda != 1`` with certified horizon sup below epsilon.

    ``grid > 0`` scans the uniform angles ``i/grid`` (rejected if coarser
    than ``1/n_K``: the objective oscillates at frequency ``n_K`` and a
    coarser comb aliases past its minima), then polishes the best cell by
    golden section and certifies a bounded-denominator snap of the result.
    ``grid = 0`` searches the structural candidates ``1/n_m`` of a
    divisibility sequence, whose evaluation is exact at any magnitude.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    terms = seq.prefix(K + 1)
    candidates: list[Fraction] = []
    if grid:
        if grid < terms[-1]:
            raise ValueError(
                f"grid {grid} is coarser than 1/n_K = 1/{terms[-1]}; "
                "a uniform scan would alias past the objective's minima")
        if grid >= GRID_LIMIT:
            raise ValueError(f"grid {grid} is not below 2^31 = GRID_LIMIT")
        best_i, _ = _grid_scan(terms, grid)
        if best_i:
            base = Fraction(best_i, grid)
            candidates.append(base)
            polished = _refine_float(float(base), terms, 1.0 / grid)
            snapped = Fraction(polished).limit_denominator(grid * (1 << 12))
            if snapped not in (0, 1) and snapped != base:
                candidates.append(snapped)
        method = f"uniform grid of {grid} + golden-section polish"
    else:
        if not seq.divisibility:
            raise ValueError("structural candidate search (grid=0) needs a "
                             "divisibility sequence")
        for m in range(1, K + 2):
            try:
                candidates.append(Fraction(1, seq.term(m)))
            except IndexError:
                break   # finite ratio list exhausted; keep what we have
        method = "structural candidates 1/n_m (exact residues)"
    best_theta, best_sup = None, None
    for theta in candidates:
        sup, _ = chord_extreme(theta, terms)
        if best_sup is None or sup.hi < best_sup.hi:
            best_theta, best_sup = theta, sup
    found = best_sup is not None and best_sup.certainly_lt(epsilon)
    return JamisonReport(epsilon=epsilon, horizon=K, grid=grid,
                         best_theta=best_theta, sup=best_sup,
                         witness_found=found, method=method,
                         candidates_checked=len(candidates))
