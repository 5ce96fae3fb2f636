"""Certified geometry of unimodular orbits ``lambda^n = e^{2 pi i n theta}``.

Angles are exact rationals in turns (:class:`AngleTurns`): the paper's
witnesses (``1/3``, the chain angles ``sum 1/n_m``, the r-Bohr H-chain
angles) are rational, config angles parse as Fractions, and the one float
search, the Jamison polish, snaps to a bounded-denominator Fraction before
anything is certified.  So everything reduces to residue arithmetic: the
distance ``|lambda^n - 1|`` is the chord ``2 |sin(pi n theta)|``, it
depends only on the fractional part of ``n theta``, and it is monotone in
the distance of that fractional part to the nearest integer.  Sups and
infs over finite index sets are therefore *selected* on exact integer
residue numerators and only the extremal residue is evaluated in interval
arithmetic, by :func:`chord_extreme`, the package's one such selector.

Two separation questions recur downstream and get their own reports:

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
from typing import Iterable

from .certificates import Certificate, frac_str
from .precision import Bound, chord, distance_numerators, pi_bound, residue
from .seqcore import IntegerSequence


class AngleTurns:
    """Angle in turns: an exact Fraction in [0, 1)."""

    __slots__ = ("exact",)

    def __init__(self, exact):
        self.exact = Fraction(exact) % 1

    @staticmethod
    def of(x) -> "AngleTurns":
        return x if isinstance(x, AngleTurns) else AngleTurns(x)

    def __repr__(self) -> str:
        return f"AngleTurns({self.exact})"

    def __eq__(self, other) -> bool:
        return isinstance(other, AngleTurns) and self.exact == other.exact


def unimod_dist(theta, n: int) -> Bound:
    """Certified ``|e^{2 pi i n theta} - 1|``; conjugation (``n -> -n``)
    does not change the chord."""
    return chord(residue(AngleTurns.of(theta).exact, abs(n)))


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
    moved = AngleTurns(AngleTurns.of(theta).exact + Fraction(1, n_m))
    # sup_k |mu^{n_k} - lambda^{n_k}| = max_{k<m} chord(n_k / n_m), tail = 0
    bound, _ = chord_extreme(Fraction(1, n_m), seq.prefix(m))
    cert = DistanceCertificate(seq_label=seq.label, horizon=m - 1, bound=bound)
    return PerturbResult(theta=moved, certificate=cert)


@dataclass
class WitnessCertificate:
    """Certified min_k |lambda^{n_k} - 1| >= delta over a horizon."""

    theta: AngleTurns
    seq_label: str
    horizon: int
    delta: Bound
    residues: list[Fraction]
    target: Fraction | None
    meets_target: bool | None

    def to_certificate(self) -> Certificate:
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
            values={"residues": sorted({frac_str(r) for r in self.residues}),
                    "meets_target": self.meets_target},
        )


def verify_witness(theta, seq: IntegerSequence, K: int,
                   target: Fraction | None = None) -> WitnessCertificate:
    """Term-by-term certification of a separation witness."""
    t = AngleTurns.of(theta)
    terms = seq.prefix(K + 1)
    delta, _ = chord_extreme(t.exact, terms, min)
    residues = [residue(t.exact, n) for n in terms]
    meets = delta.certainly_ge(target) if target is not None else None
    return WitnessCertificate(theta=t, seq_label=seq.label, horizon=K, delta=delta,
                              residues=residues, target=Fraction(target) if target is not None else None,
                              meets_target=meets)


@dataclass
class WitnessSearch:
    found: bool
    certificate: WitnessCertificate | None
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
            return WitnessSearch(found=True, certificate=cert, trials=trials)
    return WitnessSearch(found=False, certificate=best, trials=trials)


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


def _row_max(rows: np.ndarray, cols: np.ndarray, grid: int) -> np.ndarray:
    """``max min(r, grid - r)`` over cols of ``r = i n mod grid``, per row i."""
    import numpy as np
    r = rows[:, None] * cols[None, :]
    np.fmod(r, grid, out=r)          # r >= 0, so fmod is the residue
    return np.minimum(r, grid - r).max(axis=1)


_PROBES = 32      # columns of the per-row lower bound


def _grid_scan(terms: list[int], grid: int) -> tuple[int, int]:
    """First ``i`` minimising ``max min(r, grid - r)``, ``r = i n mod grid``;
    returns (i, that max).  Rows ``i`` and ``grid - i`` are equal, so only
    ``i <= grid // 2`` is scanned.  Terms ``n`` and ``grid - n`` give equal
    distances in every row, so the columns are the distinct folded residues
    ``min(n mod grid, grid - n mod grid)``.  Products are at most
    ``(grid // 2) ** 2``: int32 while that is below 2**31 (up to grid
    92,681), else int64 (``grid < 2**31``, which the caller enforces).

    Best first: the max over ``_PROBES`` evenly spaced columns bounds each
    row from below, and rows are evaluated on every column in ascending
    (bound, i), in cache-sized batches, until the next bound and row come
    after the best (value, i) so far; no row left can beat it or tie it at
    a smaller i.  The bounds are taken over blocks of rows, so memory stays
    bounded at any grid, and a later block can only beat the best with a
    strictly smaller value.  With at most ``2 * _PROBES`` columns the bound
    takes every column and is the value itself.  When the columns are every
    residue ``1..grid // 2`` the rows have a closed form (``_complete_scan``)
    and none is evaluated.  numpy loads here, on the first scan: the
    exact routes of this module need none."""
    import numpy as np
    half = grid // 2
    folded = set(distance_numerators(Fraction(1, grid), terms))
    if len(folded - {0}) == half:      # column 0 is 0 in every row
        return _complete_scan(grid)
    dtype = np.int32 if (grid // 2) ** 2 < 2 ** 31 else np.int64
    n_arr = np.array(sorted(folded), dtype=dtype)
    m = len(n_arr)
    p = m if m <= 2 * _PROBES else _PROBES     # bounds cost under half a row
    probes = n_arr[np.arange(p) * m // p]
    batch = max(1, (1 << 16) // m)      # a cache-sized batch of rows
    # rows bounded at once: a cache-sized block when the bounds are the
    # values, else a long one for the best-first order to range over
    block = (1 << 16) // p if p == m else (1 << 20) // p
    best = (grid, 0)
    for lo in range(1, half + 1, block):
        ii = np.arange(lo, min(lo + block, half + 1), dtype=dtype)
        bound = _row_max(ii, probes, grid)
        if p == m:      # every column is a probe: the bounds are the values
            j = int(bound.argmin())
            best = min(best, (int(bound[j]), int(ii[j])))
            continue
        order = np.argsort(bound, kind="stable")    # ties in ascending i
        ranked = ii[order]
        firsts = zip(bound[order[::batch]].tolist(), ranked[::batch].tolist())
        for at, first in zip(range(0, len(ranked), batch), firsts):
            if first > best:
                break
            rows = ranked[at:at + batch]
            d = _row_max(rows, n_arr, grid)
            d_min = int(d.min())
            best = min(best, (d_min, int(rows[d == d_min].min())))
    return best[1], best[0]


def _complete_scan(grid: int) -> tuple[int, int]:
    """``_grid_scan`` over the columns ``1..grid // 2``, in closed form.

    Columns n and grid - n give equal distances, so row i ranges over every
    residue ``i n mod grid``: the multiples of ``d = gcd(i, grid)``, whose
    largest distance to 0 mod grid is ``d ((grid / d) // 2)``.  That is
    grid / 2 when grid / d is even and (grid - d) / 2 when it is odd, least
    for the largest d with grid / d odd: ``d = grid / p`` for the least odd
    prime p dividing grid, first reached at row i = d.  When grid is a power
    of two every row has the value grid / 2 and row 1 is the first."""
    odd = grid // (grid & -grid)
    if odd == 1:
        return (1, grid // 2) if grid > 1 else (0, grid)
    p = next((f for f in range(3, math.isqrt(odd) + 1, 2) if odd % f == 0), odd)
    d = grid // p
    return d, d * (p // 2)


def _max_chord(n_arr: np.ndarray, t: float) -> float:
    """Float ``max 2 |sin(pi ((n t) mod 1))|`` over the terms ``n_arr``.

    ``x - floor(x)`` equals ``x % 1.0`` bit for bit for every finite float
    (both round the same exact value once).  ``math.sin`` runs only on
    terms within ``w = min(2**-20, 1e-12 / (2 pi cos(pi top)))`` of the
    largest distance ``top`` to Z.  ``2 sin(pi d)`` is concave on [0, 1/2],
    so every other term's true chord is over 1e-12 below the top one (by
    the slope ``2 pi cos(pi top)`` times w, or about ``pi^2 2**-40 > 8e-12``
    near 1/2, where the window is ``2**-20``), far beyond the 2e-15 float
    error: the same max.  The window narrows as ``top`` falls, so a t near
    0, where every term is near the top, costs few sines."""
    import numpy as np
    x = n_arr * t
    x -= np.floor(x)
    dist = np.minimum(x, 1.0 - x)
    top = float(dist.max())
    w = min(2.0 ** -20, 1e-12 / (2 * math.pi * math.cos(math.pi * top)))
    return max(2 * abs(math.sin(math.pi * v)) for v in x[dist >= top - w].tolist())


def _refine_float(theta0: float, terms: list[int], halfwidth: float,
                  steps: int = 48) -> float:
    """Golden-section polish of ``_max_chord`` near theta0: the residues
    are one numpy array (the same IEEE products and fractional parts as a
    term loop), and few terms reach ``math.sin``."""
    import numpy as np
    n_arr = np.array(terms, dtype=np.float64)
    inv_phi = (5 ** 0.5 - 1) / 2
    a, b = theta0 - halfwidth, theta0 + halfwidth
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = _max_chord(n_arr, c), _max_chord(n_arr, d)
    for _ in range(steps):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = _max_chord(n_arr, c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = _max_chord(n_arr, d)
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
