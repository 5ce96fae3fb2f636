"""Exact cutting-and-stacking towers and their return-time geometry.

Everything here is exact interval arithmetic on [0, 1), run on integer
cells: a build counts every length in units of its finest width
``l_1 / prod(p_j)``, and Fractions are made only for reported values.  A
tower stage is an ordered list of equal-length levels; the map sends each level
onto the next by translation and is undefined on the top level.  One
stacking round cuts the tower into p columns of equal width and restacks
them with a single spacer after column ``a = floor(p/3)`` plus ``r - 1``
trailing spacers (no spacers at all when r = 0), so heights follow
``n' = p n + r``.

The first spacer ever inserted is the marked set A ("red").  Its level
descendants are tracked two independent ways: geometrically through the
interval arithmetic, and symbolically through pure index bookkeeping
(:func:`red_index_oracle`).  The non-recurrence check computes
``m(T^{n_k - 1}(A minus the last column) /\\ A)`` exactly; the expected
value is zero, and the report also carries the escaped-mass ledger so a
zero cannot hide dropped pieces.  The powers come from
:func:`tower_power`, one translation per level piece; the step-by-step
:func:`power_image` over the partial map is the small-k reference.

Spacer intervals are allocated left to right from the unused suffix of
[0, 1); the base length l_1 is solved from total mass exactly 1 when the
schedule has a constant tail (geometric series), otherwise from the
materialized steps alone, in which case the final stage fills [0, 1)
completely and no spacer pool remains.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .certificates import Certificate, frac_str
from .ratintervals import IntervalSet, union_all
from .seqcore import IntegerSequence, decompose_pk_rk


@dataclass(frozen=True)
class StackingSchedule:
    """Start height plus the (p_k, r_k) stacking rounds."""

    start_height: int
    steps: tuple[tuple[int, int], ...]
    tail: tuple[int, int] | None = None     # constant continuation, if any
    label: str = "custom"

    def __post_init__(self):
        if self.start_height < 1:
            raise ValueError("start height must be >= 1")
        for p, r in self.steps:
            if p < 3:
                raise ValueError(f"every cut needs p >= 3, got {p}")
            if r < 0:
                raise ValueError("negative r is not supported")
        if self.tail is not None and (self.tail[0] < 3 or self.tail[1] < 0):
            raise ValueError("bad tail step")

    @staticmethod
    def chacon(rounds: int) -> "StackingSchedule":
        return StackingSchedule(1, tuple([(3, 1)] * rounds), tail=(3, 1),
                                label="chacon")

    @staticmethod
    def constant(p: int, r: int, start_height: int, rounds: int) -> "StackingSchedule":
        return StackingSchedule(start_height, tuple([(p, r)] * rounds),
                                tail=(p, r), label=f"p{p}r{r}")

    @staticmethod
    def from_sequence(seq: IntegerSequence, rounds: int) -> "StackingSchedule":
        steps = []
        for k in range(rounds):
            d = decompose_pk_rk(seq, k)
            steps.append((d.p, d.r))
        tail = steps[-1] if len(set(steps)) == 1 else None
        return StackingSchedule(seq.term(0), tuple(steps), tail=tail,
                                label=seq.label)

    def heights(self) -> list[int]:
        out = [self.start_height]
        for p, r in self.steps:
            out.append(p * out[-1] + r)
        return out

    def base_length(self) -> tuple[Fraction, Fraction]:
        """(l_1, limiting total mass); mass is 1 by construction."""
        series = Fraction(0)
        prod = 1
        for p, r in self.steps:
            prod *= p
            series += Fraction(r, prod)
        if self.tail is not None:
            p, r = self.tail
            series += Fraction(r, prod * (p - 1))
        l1 = Fraction(1) / (self.start_height + series)
        return l1, Fraction(1)


SPACER = -1    # column_tracks marker


class _Tracks(Sequence):
    """The column tracks of a stage cut into p columns of height h and
    restacked with r spacers, computed per lookup rather than stored per
    level.  The base stage is one column: p = 1, r = 0."""

    def __init__(self, p: int, r: int, h: int):
        self.p, self.r, self.h, self.a = p, r, h, (p // 3 if r else p) * h

    def __len__(self) -> int:
        return self.p * self.h + self.r

    def __getitem__(self, j: int) -> tuple[int, int]:
        j = range(len(self))[j]
        if j == self.a:
            return (SPACER, 0)
        j -= j > self.a                 # levels past the first spacer
        if j < self.p * self.h:
            return (j // self.h + 1, j % self.h)
        return (SPACER, j - self.p * self.h + 1)


class TowerStage:
    """Levels of width ``cell`` at ``starts`` (bottom to top) and the spacer
    cursor (== total tower mass), counted in cells of the exact ``unit``:
    integer cells of the finest width in a built stage, exact values with
    the default unit 1.  ``width`` and ``levels`` give the exact values in
    [0, 1), made on access.
    """

    def __init__(self, index: int, height: int, width, levels: list, red: frozenset[int],
                 column_tracks: Sequence, allocated, unit: Fraction = Fraction(1)):
        self.index, self.height, self.red = index, height, red
        self.column_tracks = column_tracks    # (source column 1..p, source level) or (SPACER, ordinal)
        self.cell, self.starts, self.cursor, self.unit = width, levels, allocated, unit

    width = property(lambda self: self.cell * self.unit)
    levels = property(lambda self: [x * self.unit for x in self.starts])

    @cached_property
    def level_of(self) -> array:
        """The level starting at each slot ``[j cell, (j + 1) cell)``, or -1."""
        level_of = array("q", [-1]) * (max(self.starts) // self.cell + 1)
        for i, x in enumerate(self.starts):
            slot, off = divmod(x, self.cell)
            if off or slot < 0:
                raise ValueError(f"level {i} does not start on a nonnegative multiple of the width")
            level_of[slot] = i
        return level_of

    def cell_set(self, indices) -> IntervalSet:
        """Levels ``indices`` in cells, int starts sorted before the set's own sort."""
        return IntervalSet([(x, x + self.cell) for x in sorted(self.starts[i] for i in indices)])

    def level_set(self, indices) -> IntervalSet:
        return _scaled(self.cell_set(indices), self.unit)


def _scaled(s: IntervalSet, factor) -> IntervalSet:
    """``s`` with every endpoint times the positive ``factor``."""
    return IntervalSet([(a * factor, b * factor) for a, b in s.parts], already_normal=True)


@dataclass
class TowerBuild:
    schedule: StackingSchedule
    stages: list[TowerStage]

    def stage(self, i: int) -> TowerStage:
        return self.stages[i]


def _stack_once(stage: TowerStage, p: int, r: int,
                first_spacer_pending: bool) -> TowerStage:
    w = stage.cell // p
    a = p // 3 if r else p              # columns below the first spacer
    cursor = stage.cursor
    starts: list[int] = []
    red: set[int] = set()

    def push_spacer():
        nonlocal cursor
        if (cursor + w) * stage.unit > 1:
            raise ValueError("insufficient spacer mass left in [0, 1)")
        starts.append(cursor)
        cursor += w

    for c in range(1, p + 1):
        red.update(len(starts) + i for i in stage.red)
        off = (c - 1) * w
        starts.extend([x + off for x in stage.starts])
        if c == a and r:
            if first_spacer_pending:
                red.add(len(starts))    # the first spacer ever is the marked set A
            push_spacer()
    for _ in range(r - 1):
        push_spacer()
    assert len(starts) == p * stage.height + r
    return TowerStage(stage.index + 1, len(starts), w, starts, frozenset(red),
                      _Tracks(p, r, stage.height), cursor, stage.unit)


def build_tower_schedule(schedule, stages: int | None = None) -> TowerBuild:
    """Run the stacking rounds; accepts a schedule or a height sequence.

    A plain IntegerSequence is turned into its canonical ``n' = p n + r``
    schedule via euclidean decomposition.  Every stage counts integer cells
    of the finest width ``l_1 / prod(p_j)``, so heights, level disjointness
    and the mass ledger are exact by construction; violations raise.
    """
    if isinstance(schedule, IntegerSequence):
        rounds = stages if stages is not None else len(schedule) - 1
        schedule = StackingSchedule.from_sequence(schedule, rounds)
    rounds = len(schedule.steps) if stages is None else stages
    if rounds > len(schedule.steps):
        if schedule.tail is None:
            raise ValueError(f"schedule has {len(schedule.steps)} steps, "
                             f"{rounds} requested and no tail to extend with")
        schedule = StackingSchedule(
            schedule.start_height,
            schedule.steps + tuple([schedule.tail] * (rounds - len(schedule.steps))),
            tail=schedule.tail, label=schedule.label)
    l1, _ = schedule.base_length()
    cell = math.prod(p for p, _ in schedule.steps[:rounds])
    h = schedule.start_height
    base = TowerStage(0, h, cell, [i * cell for i in range(h)], frozenset(),
                      _Tracks(1, 0, h), h * cell, l1 / cell)
    stages_out = [base]
    seen_spacer = False
    for p, r in schedule.steps[:rounds]:
        stages_out.append(_stack_once(stages_out[-1], p, r,
                                      first_spacer_pending=not seen_spacer))
        seen_spacer = seen_spacer or r >= 1
    return TowerBuild(schedule=schedule, stages=stages_out)


# ---------------------------------------------------------------------------
# the partial map and its powers
# ---------------------------------------------------------------------------

@dataclass
class PiecewiseTranslation:
    pieces: list[tuple[Fraction, Fraction, Fraction]]   # (lo, hi, offset)

    def __post_init__(self):
        domain = union_all([IntervalSet.single(lo, hi) for lo, hi, _ in self.pieces])
        image = union_all([IntervalSet.single(lo + off, hi + off)
                           for lo, hi, off in self.pieces])
        if domain.measure() != sum((hi - lo for lo, hi, _ in self.pieces), Fraction(0)):
            raise ValueError("source intervals overlap")
        if image.measure() != domain.measure():
            raise ValueError("image intervals overlap")
        self.domain = domain

    def apply(self, s: IntervalSet) -> tuple[IntervalSet, IntervalSet]:
        """(T(s /\\ domain), s minus domain) — nothing is ever dropped."""
        moved = []
        for lo, hi, off in self.pieces:
            part = s.intersect(IntervalSet.single(lo, hi))
            if part:
                moved.append(part.translate(off))
        return union_all(moved), s.subtract(self.domain)

    def inverse(self) -> "PiecewiseTranslation":
        return PiecewiseTranslation(
            [(lo + off, hi + off, -off) for lo, hi, off in self.pieces])


def partial_map(stage: TowerStage) -> PiecewiseTranslation:
    """Translation of each level onto the next; top level excluded."""
    levels, w = stage.levels, stage.width
    return PiecewiseTranslation([(levels[i], levels[i] + w, levels[i + 1] - levels[i])
                                 for i in range(stage.height - 1)])


def power_image(tmap: PiecewiseTranslation, s: IntervalSet,
                n: int) -> tuple[IntervalSet, IntervalSet]:
    """Exact T^n(s); points whose orbit leaves the domain land in the
    second component, reported in the coordinates of s itself.

    Pulling each escape wave back through the inverse translation is what
    keeps the ledger exact even when waves from different steps exit at
    the same spot: m(image) + m(escaped) = m(s), and escaped is a subset
    of s.
    """
    if n < 0:
        raise ValueError("negative powers are not defined for the partial map")
    back_map = tmap.inverse()
    current, escaped = s, IntervalSet()
    for step in range(n):
        current, out = tmap.apply(current)
        if out.parts:
            for _ in range(step):
                out, stray = back_map.apply(out)
                assert not stray.parts   # forward orbit existed, so must the pull-back
            escaped = escaped.union(out)
    return current, escaped


def tower_power(stage: TowerStage, s: IntervalSet,
                m: int) -> tuple[IntervalSet, IntervalSet]:
    """The pair ``power_image(partial_map(stage), s, m)`` in one pass.

    ``T^m`` sends level ``i`` to level ``i + m`` by the single translation
    ``levels[i+m] - levels[i]``; a point on level ``i`` with ``i + m >= H``,
    or outside the tower, escapes and is reported where it lies in s.
    """
    image, escaped = _cell_power(stage, _scaled(s, 1 / stage.unit), m)
    return _scaled(image, stage.unit), _scaled(escaped, stage.unit)


def _cell_power(stage: TowerStage, s: IntervalSet,
                m: int) -> tuple[IntervalSet, IntervalSet]:
    """:func:`tower_power` on ``s`` in the stage's cells.  A point's level is
    found from its slot ``x // cell``, for int and Fraction endpoints alike;
    parts are split at slot boundaries because adjacent levels can touch."""
    if m < 0:
        raise ValueError("negative powers are not defined for the partial map")
    if m == 0:
        return s, IntervalSet()
    w, starts, height = stage.cell, stage.starts, stage.height
    level_of = stage.level_of
    top = len(level_of) * w
    image, escaped = [], []
    for a, b in s.parts:
        if a < 0:           # below the tower
            escaped.append((a, min(b, 0)))
            a = 0
        if b > top:         # above the tower
            escaped.append((max(a, top), b))
            b = top
        slot = a // w
        while a < b:
            i = level_of[slot]
            slot += 1
            edge = min(b, slot * w)
            if 0 <= i < height - m:
                d = starts[i + m] - starts[i]
                image.append((a + d, edge + d))
            else:
                escaped.append((a, edge))
            a = edge
    return IntervalSet(image), IntervalSet(escaped)


# ---------------------------------------------------------------------------
# symbolic red-level oracle (independent of interval arithmetic)
# ---------------------------------------------------------------------------

def red_index_oracle(schedule: StackingSchedule, rounds: int) -> list[frozenset[int]]:
    """Red level indices per stage by pure index combinatorics."""
    reds: list[frozenset[int]] = [frozenset()]
    height = schedule.start_height
    seen_spacer = False
    for p, r in schedule.steps[:rounds]:
        cur = reds[-1]
        nxt: set[int] = set()
        if r == 0:
            offsets = [(c - 1) * height for c in range(1, p + 1)]
        else:
            a = p // 3
            offsets = [(c - 1) * height if c <= a else (c - 1) * height + 1
                       for c in range(1, p + 1)]
            if not seen_spacer:
                nxt.add(a * height)     # the newly inserted spacer becomes A
                seen_spacer = True
        for off in offsets:
            nxt.update(off + i for i in cur)
        reds.append(frozenset(nxt))
        height = p * height + r
    return reds


# ---------------------------------------------------------------------------
# non-recurrence verification
# ---------------------------------------------------------------------------

@dataclass
class OverlapResult:
    total: Fraction

    @staticmethod
    def of(s: IntervalSet) -> "OverlapResult":
        return OverlapResult(total=s.measure())


@dataclass
class NonrecurrenceReport:
    k: int
    power: int
    kappa: int
    overlap: OverlapResult            # m(T^{n_k-1}(A \ I_{k,p_k}) /\ A)
    overlap_c: OverlapResult          # same with C_kappa on both sides
    escaped: Fraction
    mass_A: Fraction
    mass_checked: Fraction            # m(A \ I_{k,p_k})
    mass_C: Fraction
    c_lower_bound: Fraction           # mass_A - sum of printed bounds 1/(p_j n_j) (can be <= 0)
    build: TowerBuild | None = field(default=None, repr=False, compare=False)  # the stages checked

    def passed(self) -> bool:
        return (self.overlap.total == 0 and self.escaped == 0
                and self.overlap_c.total == 0 and self.mass_C > 0)

    def to_certificate(self) -> Certificate:
        return Certificate(
            kind="tower-nonrecurrence",
            claim=f"T^{self.power} image of the marked set avoids it (stage {self.k})",
            passed=self.passed(), exact=True,
            method="exact rational interval arithmetic, escape ledger included",
            horizon=self.k,
            params={"k": self.k, "power": self.power, "kappa": self.kappa},
            values={"overlap": frac_str(self.overlap.total),
                    "overlap_c": frac_str(self.overlap_c.total),
                    "escaped": frac_str(self.escaped),
                    "mass_A": frac_str(self.mass_A),
                    "mass_C": frac_str(self.mass_C),
                    "c_lower_bound": frac_str(self.c_lower_bound)},
        )


def _removed_column_set(build: TowerBuild, j: int) -> IntervalSet:
    """Red pieces of stage j that land in column p_j, as stage-j+1 cells;
    that column starts at level ``(p_j - 1) h_j``, plus 1 past the spacer."""
    p_j, r_j = build.schedule.steps[j]
    off = (p_j - 1) * build.stage(j).height + (1 if r_j else 0)
    return build.stage(j + 1).cell_set(off + i for i in build.stage(j).red)


def default_kappa(build: TowerBuild, k: int) -> int:
    """Smallest cutoff whose printed-bound ledger still leaves positive mass.

    Uses the construction's printed per-stage bound 1/(p_j n_j) as the
    removal estimate.  The exact removed mass per stage is m(A)/p_j, which
    exceeds the printed bound once n_j is large, so this default is about
    matching the construction's own accounting, not a proof of positivity;
    the report carries the exact masses alongside.
    """
    heights = build.schedule.heights()
    birth = build.stage(_birth_stage(build))
    mass_a = birth.cell_set(birth.red).measure() * birth.unit
    for kappa in range(1, k + 1):
        budget = sum(Fraction(1, build.schedule.steps[j][0] * heights[j])
                     for j in range(kappa, k + 1)
                     if j < len(build.schedule.steps))
        if mass_a - budget > 0:
            return kappa
    return k


def _birth_stage(build: TowerBuild) -> int:
    for i, s in enumerate(build.stages):
        if s.red:
            return i
    raise ValueError("no spacer was ever added: every r_k is 0")


def nonrecurrence_check(schedule, k: int, kappa: int | None = None) -> NonrecurrenceReport:
    """Exact overlap of T^{n_k - 1} images of the marked set with itself.

    Works at stage k+1, where the power n_k - 1 is fully defined on the
    marked set minus the last column; the escaped-mass field proves it.
    """
    if isinstance(schedule, IntegerSequence):
        schedule = StackingSchedule.from_sequence(schedule, len(schedule) - 1)
    if k + 1 > len(schedule.steps):
        raise ValueError(f"need at least {k + 1} stacking rounds, "
                         f"schedule has {len(schedule.steps)}")
    build = build_tower_schedule(schedule, stages=k + 1)
    heights = build.schedule.heights()
    if _birth_stage(build) > k:
        raise ValueError(f"the marked spacer first appears at stage "
                         f"{_birth_stage(build)}, after the requested k={k}")
    n_k = heights[k]
    stage_next = build.stage(k + 1)
    a_full = stage_next.cell_set(stage_next.red)
    removed_k = _removed_column_set(build, k)
    checked = a_full.subtract(removed_k)

    image, escaped = _cell_power(stage_next, checked, n_k - 1)
    overlap = image.intersect(a_full)

    if kappa is None:
        kappa = default_kappa(build, k)
    if not 1 <= kappa <= k:
        raise ValueError(f"kappa must be in [1, {k}]")
    removed = [_removed_column_set(build, j) for j in range(kappa, k)] + [removed_k]
    c_set = a_full.subtract(union_all(removed))
    # C lies in the checked set, so none of it escapes when nothing there does
    image_c, _ = _cell_power(stage_next, c_set, n_k - 1)
    overlap_c = image_c.intersect(c_set)

    u = stage_next.unit
    printed = sum((Fraction(1, build.schedule.steps[j][0] * heights[j])
                   for j in range(kappa, k + 1)), Fraction(0))
    mass_a = a_full.measure() * u
    return NonrecurrenceReport(
        k=k, power=n_k - 1, kappa=kappa,
        overlap=OverlapResult.of(_scaled(overlap, u)),
        overlap_c=OverlapResult.of(_scaled(overlap_c, u)),
        escaped=escaped.measure() * u,
        mass_A=mass_a, mass_checked=checked.measure() * u,
        mass_C=c_set.measure() * u,
        c_lower_bound=mass_a - printed,
        build=build,
    )


def shifted_schedule(seq: IntegerSequence, p: int, rounds: int | None = None) -> StackingSchedule:
    """Schedule for the height sequence n_k - p + 1, certifying {n_k - p}.

    One step of algebra on ``n_{k+1} = p_k n_k + r_k`` gives

        n_{k+1} - (p-1) = p_k (n_k - (p-1)) + r_k + (p_k - 1)(p - 1),

    so the same cut counts work with enlarged spacer counts.  The identity
    is re-verified exactly for every emitted step.  Heights must stay
    >= 1, so the schedule starts at the first index where n_k > p - 1.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    shift = p - 1
    rounds = rounds if rounds is not None else len(seq) - 1
    k0 = 0
    while seq.term(k0) <= shift:
        k0 += 1
    steps = []
    for k in range(k0, rounds):
        d = decompose_pk_rk(seq, k)
        r_new = d.r + (d.p - 1) * shift
        lhs = d.p * (seq.term(k) - shift) + r_new
        if lhs != seq.term(k + 1) - shift:
            raise AssertionError("shifted stacking identity failed")
        steps.append((d.p, r_new))
    if not steps:
        raise ValueError("no usable steps after the shift cutoff")
    tail = steps[-1] if len(set(steps)) == 1 else None
    return StackingSchedule(seq.term(k0) - shift, tuple(steps), tail=tail,
                            label=f"{seq.label} shifted by {shift}")
