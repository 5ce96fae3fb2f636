"""Intertwined block families with certified witnesses.

A schedule drives three kinds of blocks at each level N:

* ``B[N, 0]     = {H_N q + 1            : 1 <= q <= Q_N}``
* ``B[N, A]     = {H_N D_A (L_N j + 1)  : 1 <= j <= Theta_N}``  (A nonempty)
* ``B[N, empty] = {H_N D_empty}``

The levels are pushed apart by a growth rule H_{N+1} > 2^N M H_N p_N
(M = 2pi, p_N the largest block parameter at level N), with 3 | H_N and
H_N | H_{N+1} on top.  Those two extra divisibility constraints buy
exact witnesses: an angle built from reciprocals of the H-chain kills
every lower level exactly, and 1/3 lands every shifted block element on
the same third of the circle.

Two witnesses are produced per family and certified element by element
with exact residue arithmetic: a small-sup witness (some lambda != 1
stays near 1 along the homogeneous family, prepended with 1) and a
separation witness (some lambda_0 stays farther than 1/2 from 1 along
the block itself).  The recurrence probe is a diagnostic scan, not a
proof: it searches the built set for an element that nearly fixes a
given tuple of rotations.

The level parameters beyond the growth rule are fixed small formulas
(``schedule_build``), and H_1 is the one seed; certificates bind to the
concrete schedule used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .certificates import Certificate, frac_str
from .circle import AngleTurns, WitnessCertificate, chord_extreme, unimod_dist
from .precision import (Bound, bound_max, distance_numerators, residue,
                        two_pi_upper)

Family = int | tuple[int, ...]     # 0 for the q-block, a tuple (maybe empty) for A


def family_label(family: Family) -> str:
    if family == 0:
        return "0"
    return "{" + ",".join(str(a) for a in family) + "}"


def _subsets(r: int) -> list[tuple[int, ...]]:
    ground = range(1, r)
    out: list[tuple[int, ...]] = []
    for size in range(r):
        out.extend(combinations(ground, size))
    return out


@dataclass
class BohrSchedule:
    r: int
    n_max: int
    H: list[int]
    L: list[int]
    Q: list[int]
    Theta: list[int]
    deltas: dict[tuple[int, ...], list[int]]

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.n_max < 1 or not (len(self.H) == len(self.L) == len(self.Q)
                                  == len(self.Theta) == self.n_max):
            raise ValueError("per-level parameter lists must cover 1..n_max")
        if set(self.deltas) != set(_subsets(self.r)):
            raise ValueError("need one delta schedule per subset of {1..r-1}")
        if any(v < 1 for vs in (self.H, self.L, self.Q, self.Theta) for v in vs):
            raise ValueError("level parameters must be positive")
        if any(v < 1 for vs in self.deltas.values() for v in vs):
            raise ValueError("deltas must be positive")
        two_pi = two_pi_upper()
        for i in range(self.n_max):
            if self.H[i] % 3:
                raise ValueError("every H_N must be divisible by 3")
            if i + 1 < self.n_max:
                if self.H[i + 1] % self.H[i]:
                    raise ValueError("H_N must divide H_{N+1}")
                if self.H[i + 1] <= 2 ** (i + 1) * two_pi * self.H[i] * self.max_param(i + 1):
                    raise ValueError(f"growth too slow at level {i + 1}")

    def max_param(self, N: int) -> int:
        i = N - 1
        spread = max(self.deltas[A][i] for A in self.deltas) * self.L[i] * self.Theta[i]
        return max(self.Q[i], spread)



def schedule_build(r: int, n_max: int, h1: int = 6) -> BohrSchedule:
    """Fill the H-chain minimally from H_1 = h1: H_{N+1} is the least
    multiple of 3 H_N strictly above 2^N * 2pi * H_N * max(Q_N, D_A L_N
    Theta_N).  The 2pi is its rational upper enclosure, so the true growth
    bound holds too.  The level parameters Q_N = Theta_N = N + 1,
    L_N = 3 N and D_A = 1 + sum(A) keep every block formula small and
    3 | L_N.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if h1 < 3 or h1 % 3:
        raise ValueError("the seed H_1 must be a positive multiple of 3")
    subsets = _subsets(r)
    levels = range(1, n_max + 1)
    L = [3 * N for N in levels]
    Q = [N + 1 for N in levels]
    Theta = list(Q)
    deltas = {A: [1 + sum(A)] * n_max for A in subsets}
    H = [h1]
    two_pi = two_pi_upper()
    for i in range(n_max - 1):
        spread = max(deltas[A][i] for A in subsets) * L[i] * Theta[i]
        bound = 2 ** (i + 1) * two_pi * H[i] * max(Q[i], spread)
        step = 3 * H[i]
        H.append(step * (int(bound / step) + 1))
    return BohrSchedule(r=r, n_max=n_max, H=H, L=L, Q=Q, Theta=Theta,
                        deltas=deltas)


# ---------------------------------------------------------------------------
# the blocks
# ---------------------------------------------------------------------------

class BohrSet:
    """Blocks of a schedule plus their merged, strictly increasing union."""

    def __init__(self, schedule: BohrSchedule):
        self.schedule = schedule
        self.blocks: dict[tuple[int, str], list[int]] = {}
        for N in range(1, schedule.n_max + 1):
            i = N - 1
            self.blocks[(N, "0")] = [schedule.H[i] * q + 1
                                     for q in range(1, schedule.Q[i] + 1)]
            for A in _subsets(schedule.r):
                d = schedule.deltas[A][i]
                if A:
                    self.blocks[(N, family_label(A))] = [
                        schedule.H[i] * d * (schedule.L[i] * j + 1)
                        for j in range(1, schedule.Theta[i] + 1)]
                else:
                    self.blocks[(N, family_label(A))] = [schedule.H[i] * d]
        prev_max = 0
        for N in range(1, schedule.n_max + 1):
            level = sorted(x for (M, _), xs in self.blocks.items() if M == N
                           for x in xs)
            if level[0] <= prev_max:
                raise ValueError(f"blocks of level {N} reach into level {N - 1}")
            prev_max = level[-1]
        self.merged = sorted(x for xs in self.blocks.values() for x in xs)

    def families(self) -> list[Family]:
        return [0] + _subsets(self.schedule.r)

    def family_elements(self, family: Family, homogeneous: bool = False) -> list[int]:
        """All levels of one family; homogeneous drops the +1 shifts."""
        sch = self.schedule
        out: list[int] = []
        for N in range(1, sch.n_max + 1):
            i = N - 1
            if family == 0:
                out.extend(sch.H[i] * q + (0 if homogeneous else 1)
                           for q in range(1, sch.Q[i] + 1))
            elif family in sch.deltas:
                d = sch.deltas[family][i]
                if family:
                    out.extend(sch.H[i] * d * (sch.L[i] * j + (0 if homogeneous else 1))
                               for j in range(1, sch.Theta[i] + 1))
                else:
                    out.append(sch.H[i] * d)
            else:
                raise ValueError(f"unknown family {family!r}")
        return sorted(out)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

@dataclass
class SmallSupWitness:
    """lambda != 1 whose orbit stays within eps of 1 along a family."""

    theta: Fraction
    family: str
    n0: int
    elements: int
    max_element: int
    sup: Bound
    eps: Fraction
    passed: bool

    def to_certificate(self) -> Certificate:
        return Certificate(
            kind="non-jamison-witness",
            claim=f"sup of |lambda^n - 1| over family {self.family} "
                  f"(homogeneous, with 1 prepended), {self.elements} elements",
            passed=self.passed,
            exact=True,
            method="exact residues of a reciprocal H-chain angle",
            horizon=self.elements - 1,
            params={"eps": frac_str(self.eps), "n0": self.n0,
                    "theta": frac_str(self.theta)},
            bounds={"sup": self.sup},
            values={"max_element": self.max_element})


def block_jamison_witness(bset: BohrSet, family: Family, eps,
                          K: int | None = None) -> SmallSupWitness:
    """Certify sup |lambda^n - 1| <= eps over the homogeneous family.

    theta = sum of 1/(D H_{N+1}) for N >= N0, where D is the family's
    own delta (1 for family 0): levels below N0 see exact integers (the
    H-chain divides through and D cancels against the elements' own
    factor), levels at N0 and above are squeezed by the growth rule.
    N0 is the least start that certifies; everything is evaluated on
    exact residues rather than trusted from the geometric estimate.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    sch = bset.schedule
    if sch.n_max < 2:
        raise ValueError("need at least two levels to form a nonzero angle")
    elements = [1] + bset.family_elements(family, homogeneous=True)
    if K is not None:
        elements = elements[:K + 1]
    divs = [1] * sch.n_max if family == 0 else sch.deltas[family]
    for n0 in range(1, sch.n_max):
        theta = sum((Fraction(1, divs[N] * sch.H[N])
                     for N in range(n0, sch.n_max)), Fraction(0))
        sup, _ = chord_extreme(theta, elements)
        if sup.certainly_le(eps):
            return SmallSupWitness(theta=theta, family=family_label(family),
                                   n0=n0, elements=len(elements),
                                   max_element=max(elements), sup=sup,
                                   eps=eps, passed=True)
    raise ValueError(f"schedule growth too slow for eps = {eps} "
                     f"on family {family_label(family)}")


def block_rotation_witness(bset: BohrSet, family: Family,
                           K: int | None = None) -> WitnessCertificate:
    """Certify min |lambda_0^n - 1| > 1/2 over one block family.

    Family 0 uses theta = 1/3 + sum c_N / H_{N+1} with each c_N in
    {0, 1} picked greedily (the certified min over the whole family,
    ties to 0); since 3 | H_N, the base angle alone already lands every
    element a third of the way around.  The other families shift the
    thirds through their own scale: theta = sum 1/(3 H_N D_N).
    """
    sch = bset.schedule
    elements = bset.family_elements(family, homogeneous=False)
    if K is not None:
        elements = elements[:K + 1]

    def min_dist(theta: Fraction) -> Fraction:
        return Fraction(min(distance_numerators(theta, elements)),
                        theta.denominator)

    if family == 0:
        theta = Fraction(1, 3)
        for N in range(1, sch.n_max):
            move = theta + Fraction(1, sch.H[N])
            if min_dist(move) > min_dist(theta):
                theta = move
    else:
        theta = sum((Fraction(1, 3 * sch.H[N - 1] * sch.deltas[family][N - 1])
                     for N in range(1, sch.n_max + 1)), Fraction(0))
    residues = [residue(theta, e) for e in elements]
    delta, _ = chord_extreme(theta, elements, min)
    target = Fraction(1, 2)
    return WitnessCertificate(
        theta=AngleTurns.of(theta),
        seq_label=f"block family {family_label(family)} (r={sch.r})",
        horizon=len(elements) - 1,
        delta=delta,
        residues=residues,
        target=target,
        meets_target=delta.certainly_gt(target))


def all_rotation_witnesses(bset: BohrSet,
                           K: int | None = None) -> dict[str, WitnessCertificate]:
    return {family_label(f): block_rotation_witness(bset, f, K)
            for f in bset.families()}


# ---------------------------------------------------------------------------
# the recurrence probe
# ---------------------------------------------------------------------------

@dataclass
class ProbeReport:
    """Diagnostic scan outcome; exhaustion is a finding, not a failure."""

    thetas: list[AngleTurns]
    eps: Fraction
    family: str
    found: bool
    element: int | None
    index: int | None
    value: Bound | None
    scanned: int

    def csv_row(self) -> str:
        names = ";".join(frac_str(t.exact) for t in self.thetas)
        found = self.element if self.found else ""
        val = f"{float(self.value.hi):.6g}" if self.value is not None else ""
        return f"{names},{frac_str(self.eps)},{found},{val}"


def probe_csv(reports: list[ProbeReport]) -> str:
    return "\n".join(["tuple,eps,found_k,value"] + [r.csv_row() for r in reports]) + "\n"


def bohr_recurrence_probe(bset: BohrSet, rotations, eps,
                          family: Family | None = None) -> ProbeReport:
    """Scan the set (or one family) for an element that nearly fixes the
    whole tuple: max_i |lambda_i^n - 1| < eps, certified per element.
    """
    eps = Fraction(eps)
    thetas = [AngleTurns.of(t) for t in rotations]
    if not 1 <= len(thetas) <= bset.schedule.r:
        raise ValueError(f"between 1 and r = {bset.schedule.r} rotations")
    pool = bset.merged if family is None else bset.family_elements(family)
    lab = "merged" if family is None else family_label(family)
    for idx, n in enumerate(pool):
        worst = bound_max([unimod_dist(t, n) for t in thetas])
        if worst.certainly_lt(eps):
            return ProbeReport(thetas=thetas, eps=eps, family=lab, found=True,
                               element=n, index=idx, value=worst,
                               scanned=idx + 1)
    return ProbeReport(thetas=thetas, eps=eps, family=lab, found=False,
                       element=None, index=None, value=None, scanned=len(pool))
