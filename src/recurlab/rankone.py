"""Exact cutting-and-stacking towers and their return-time geometry.

Everything here is exact rational interval arithmetic on [0, 1).  A tower
stage is an ordered list of equal-length levels; the map sends each level
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

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .certificates import Certificate, frac_str
from .ratintervals import IntervalSet, union_all
from .seqcore import IntegerSequence, decompose_pk_rk
from . import seqcore


@dataclass(frozen=True)
class StackingSchedule:
    """Start height plus the (p_k, r_k) stacking rounds."""

    start_height: int
    steps: tuple[tuple[int, int], ...]
    tail: tuple[int, int] | None = None     # constant continuation, if any
    label: str = "custom"
    meta: dict = field(default_factory=dict)

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
                                label="chacon", meta={"bootstrap": True})

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


@dataclass
class TowerStage:
    index: int                       # 0-based: heights()[index] levels
    height: int
    width: Fraction
    levels: list[Fraction]           # left endpoints, bottom to top
    red: frozenset[int]
    column_tracks: list[tuple[int, int]]   # (source column 1..p, source level) or (SPACER, ordinal)
    allocated: Fraction              # spacer cursor == total tower mass

    def level_set(self, indices) -> IntervalSet:
        return IntervalSet([(self.levels[i], self.levels[i] + self.width)
                            for i in indices])

    def full_set(self) -> IntervalSet:
        return self.level_set(range(self.height))

    def red_set(self) -> IntervalSet:
        return self.level_set(self.red)

    def mass(self) -> Fraction:
        return self.height * self.width

    def to_json_dict(self) -> dict:
        return {"index": self.index, "height": self.height,
                "width": frac_str(self.width),
                "levels": [frac_str(x) for x in self.levels],
                "red": sorted(self.red)}


@dataclass
class TowerBuild:
    schedule: StackingSchedule
    stages: list[TowerStage]

    def stage(self, i: int) -> TowerStage:
        return self.stages[i]

    def mass_ledger(self) -> list[Fraction]:
        return [s.mass() for s in self.stages]


def _stack_once(stage: TowerStage, p: int, r: int,
                first_spacer_pending: bool) -> TowerStage:
    w = stage.width / p
    cursor = stage.allocated
    levels: list[Fraction] = []
    tracks: list[tuple[int, int]] = []
    red: set[int] = set()
    spacer_ordinal = 0
    first_spacer_index = None

    def push_column(c: int):
        for i in range(stage.height):
            if i in stage.red:
                red.add(len(levels))
            tracks.append((c, i))
            levels.append(stage.levels[i] + (c - 1) * w)

    def push_spacer():
        nonlocal cursor, spacer_ordinal
        if cursor + w > 1:
            raise ValueError("insufficient spacer mass left in [0, 1)")
        tracks.append((SPACER, spacer_ordinal))
        levels.append(cursor)
        cursor += w
        spacer_ordinal += 1

    if r == 0:
        for c in range(1, p + 1):
            push_column(c)
    else:
        a = p // 3
        for c in range(1, a + 1):
            push_column(c)
        first_spacer_index = len(levels)
        push_spacer()
        for c in range(a + 1, p + 1):
            push_column(c)
        for _ in range(r - 1):
            push_spacer()

    if first_spacer_pending and first_spacer_index is not None:
        red.add(first_spacer_index)
    assert len(levels) == p * stage.height + r
    return TowerStage(index=stage.index + 1, height=len(levels), width=w,
                      levels=levels, red=frozenset(red), column_tracks=tracks,
                      allocated=cursor)


def build_tower_schedule(schedule, stages: int | None = None) -> TowerBuild:
    """Run the stacking rounds; accepts a schedule or a height sequence.

    A plain IntegerSequence is turned into its canonical ``n' = p n + r``
    schedule via euclidean decomposition.  Heights, level disjointness and
    the mass ledger are exact by construction; violations raise.
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
            tail=schedule.tail, label=schedule.label, meta=schedule.meta)
    l1, _ = schedule.base_length()
    h = schedule.start_height
    base = TowerStage(index=0, height=h, width=l1,
                      levels=[i * l1 for i in range(h)],
                      red=frozenset(), column_tracks=[(1, i) for i in range(h)],
                      allocated=h * l1)
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
    return PiecewiseTranslation(
        [(stage.levels[i], stage.levels[i] + stage.width,
          stage.levels[i + 1] - stage.levels[i])
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
    Every level start is an integer multiple of the stage width, so a
    point's level is found from its integer cell ``floor(x / width)``;
    parts are split at cell boundaries because adjacent levels can touch.
    """
    if m < 0:
        raise ValueError("negative powers are not defined for the partial map")
    if m == 0:
        return s, IntervalSet()
    w, levels, height = stage.width, stage.levels, stage.height
    cell_level: dict[int, int] = {}
    for i, x in enumerate(levels):
        cell = x / w
        if cell.denominator != 1:
            raise ValueError(f"level {i} does not start on a multiple of the width")
        cell_level[cell.numerator] = i
    starts = sorted(cell_level)
    image: list[tuple[Fraction, Fraction]] = []
    escaped: list[tuple[Fraction, Fraction]] = []
    for a, b in s.parts:
        cell = math.floor(a / w)
        while a < b:
            i = cell_level.get(cell)
            if i is None:
                # outside the tower up to the next level start
                nxt = bisect.bisect_right(starts, cell)
                cell = starts[nxt] if nxt < len(starts) else None
                edge = b if cell is None else min(b, cell * w)
                escaped.append((a, edge))
            else:
                cell += 1
                edge = min(b, cell * w)
                if i + m < height:
                    d = levels[i + m] - levels[i]
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


def symbolic_survivor_shift(schedule: StackingSchedule, k: int) -> tuple[frozenset[int], frozenset[int]]:
    """(T^{n_k - 1} images of red survivors, red set) at stage k+1, as indices.

    Survivors are red levels of stage k+1 that came from columns < p_k;
    within stage k+1 the map adds exactly n_k - 1 to their index.
    """
    heights = schedule.heights()
    reds = red_index_oracle(schedule, k + 1)
    p_k, _ = schedule.steps[k]
    n_k, n_next = heights[k], heights[k + 1]
    red_k, red_next = reds[k], reds[k + 1]
    a = p_k // 3 if schedule.steps[k][1] >= 1 else 0
    survivors = set()
    for c in range(1, p_k):
        off = (c - 1) * n_k if (schedule.steps[k][1] == 0 or c <= a) else (c - 1) * n_k + 1
        survivors.update(off + i for i in red_k)
    if schedule.steps[k][1] >= 1 and not red_k:
        survivors.add(a * n_k)          # A itself was born this round
        # A born this round sits before column a+1; it is a survivor only
        # if a < p_k, which p_k >= 3 guarantees
    shifted = frozenset(i + n_k - 1 for i in survivors if i + n_k - 1 < n_next)
    return shifted, red_next


# ---------------------------------------------------------------------------
# non-recurrence verification
# ---------------------------------------------------------------------------

@dataclass
class OverlapResult:
    total: Fraction
    witnesses: list[tuple[Fraction, Fraction]]

    @staticmethod
    def of(s: IntervalSet) -> "OverlapResult":
        return OverlapResult(total=s.measure(), witnesses=list(s.parts))


@dataclass
class NonrecurrenceReport:
    k: int
    power: int
    kappa: int
    overlap: OverlapResult            # m(T^{n_k-1}(A \ I_{k,p_k}) /\ A)
    overlap_c: OverlapResult          # same with C_kappa on both sides
    escaped: Fraction
    escaped_c: Fraction
    mass_A: Fraction
    mass_checked: Fraction            # m(A \ I_{k,p_k})
    mass_C: Fraction
    removed_per_stage: list[tuple[int, Fraction, Fraction]]  # (j, exact removed, printed bound 1/(p_j n_j))
    c_lower_bound: Fraction           # mass_A - sum of printed bounds (can be <= 0)

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
    """Red pieces of stage j that land in column p_j, as stage-j+1 intervals."""
    nxt = build.stage(j + 1)
    p_j = build.schedule.steps[j][0]
    idx = [i for i, (c, src) in enumerate(nxt.column_tracks)
           if c == p_j and src in build.stage(j).red]
    return nxt.level_set(idx)


def default_kappa(build: TowerBuild, k: int) -> int:
    """Smallest cutoff whose printed-bound ledger still leaves positive mass.

    Uses the construction's printed per-stage bound 1/(p_j n_j) as the
    removal estimate.  The exact removed mass per stage is m(A)/p_j, which
    exceeds the printed bound once n_j is large, so this default is about
    matching the construction's own accounting, not a proof of positivity;
    the report carries the exact masses alongside.
    """
    heights = build.schedule.heights()
    mass_a = build.stage(_birth_stage(build)).red_set().measure()
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
    marked set minus the last column; the escaped-mass fields prove it.
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
    a_full = stage_next.red_set()
    removed_k = _removed_column_set(build, k)
    checked = a_full.subtract(removed_k)

    image, escaped = tower_power(stage_next, checked, n_k - 1)
    overlap = image.intersect(a_full)

    if kappa is None:
        kappa = default_kappa(build, k)
    if not 1 <= kappa <= k:
        raise ValueError(f"kappa must be in [1, {k}]")
    removed_union = union_all([_removed_column_set(build, j)
                               for j in range(kappa, k + 1)])
    c_set = a_full.subtract(removed_union)
    image_c, escaped_c = tower_power(stage_next, c_set, n_k - 1)
    overlap_c = image_c.intersect(c_set)

    removed_rows = [(j, _removed_column_set(build, j).measure(),
                     Fraction(1, build.schedule.steps[j][0] * heights[j]))
                    for j in range(kappa, k + 1)]
    return NonrecurrenceReport(
        k=k, power=n_k - 1, kappa=kappa,
        overlap=OverlapResult.of(overlap),
        overlap_c=OverlapResult.of(overlap_c),
        escaped=escaped.measure(), escaped_c=escaped_c.measure(),
        mass_A=a_full.measure(), mass_checked=checked.measure(),
        mass_C=c_set.measure(),
        removed_per_stage=removed_rows,
        c_lower_bound=a_full.measure() - sum((row[2] for row in removed_rows),
                                             Fraction(0)),
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
                            label=f"{seq.label} shifted by {shift}",
                            meta={"shift": shift, "k0": k0})
