"""The integer-cell tower route against a Fraction reference.

The reference reads everything off the exact Fraction view of a stage
(``levels``, ``width``, ``red``, ``column_tracks``) and takes the powers
step by step with ``power_image(partial_map(stage))``.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from recurlab.rankone import (StackingSchedule, build_tower_schedule,
                              nonrecurrence_check, partial_map, power_image)
from recurlab.ratintervals import union_all

# power_image costs about n_k * H interval operations per step set, so the
# reference keeps the stage-(k+1) tower below this many levels
REFERENCE_LEVELS = 150


@st.composite
def schedules(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    steps = draw(st.lists(st.tuples(st.integers(min_value=3, max_value=5),
                                    st.integers(min_value=0, max_value=2)),
                          min_size=k + 1, max_size=k + 1))
    sch = StackingSchedule(draw(st.integers(min_value=1, max_value=2)), tuple(steps))
    while k > 1 and sch.heights()[k + 1] > REFERENCE_LEVELS:
        k -= 1
    return sch, k


def _reference(sch, k):
    """Every report field per kappa (None: the default), from Fraction sets."""
    build = build_tower_schedule(sch, stages=k + 1)
    stages, steps, heights = build.stages, build.schedule.steps, sch.heights()
    stage = stages[k + 1]
    tmap, power = partial_map(stage), heights[k] - 1

    def removed(j):     # red levels of stage j in column p_j, from the tracks
        nxt = stages[j + 1]
        return nxt.level_set([i for i, (c, src) in enumerate(nxt.column_tracks)
                              if c == steps[j][0] and src in stages[j].red])

    a_full = stage.level_set(stage.red)
    checked = a_full.subtract(removed(k))
    image, escaped = power_image(tmap, checked, power)
    overlap = image.intersect(a_full)
    birth = next(s for s in stages if s.red)
    printed = {j: F(1, steps[j][0] * heights[j]) for j in range(1, k + 1)}
    default = next((kappa for kappa in range(1, k + 1)
                    if birth.level_set(birth.red).measure()
                    - sum(printed[j] for j in range(kappa, k + 1)) > 0),
                   k)
    out = {}
    for kappa in range(1, k + 1):
        c_set = a_full.subtract(union_all([removed(j) for j in range(kappa, k + 1)]))
        image_c, escaped_c = power_image(tmap, c_set, power)
        # C lies in the checked set, so what escapes from C escapes from it
        assert not escaped_c.subtract(escaped)
        overlap_c = image_c.intersect(c_set)
        out[kappa] = {
            "k": k, "power": power, "kappa": kappa,
            "overlap": overlap.measure(), "overlap_c": overlap_c.measure(),
            "escaped": escaped.measure(),
            "mass_A": a_full.measure(), "mass_checked": checked.measure(),
            "mass_C": c_set.measure(),
            "c_lower_bound": a_full.measure()
            - sum((printed[j] for j in range(kappa, k + 1)), F(0))}
    out[None] = out[default]
    return out


def _fields(rep):
    return {"k": rep.k, "power": rep.power, "kappa": rep.kappa,
            "overlap": rep.overlap.total, "overlap_c": rep.overlap_c.total,
            "escaped": rep.escaped,
            "mass_A": rep.mass_A, "mass_checked": rep.mass_checked,
            "mass_C": rep.mass_C, "c_lower_bound": rep.c_lower_bound}


@settings(max_examples=15, deadline=None)
@given(schedules())
@example((StackingSchedule(1, ((3, 1),) * 4), 3))      # Chacon at k = 3
@example((StackingSchedule(2, ((4, 2), (3, 0), (5, 1))), 2))
def test_report_matches_fraction_reference(case):
    sch, k = case
    if not any(r for _, r in sch.steps[:k]):
        with pytest.raises(ValueError, match="no spacer|first appears"):
            nonrecurrence_check(sch, k)
        return
    ref = _reference(sch, k)
    for kappa in [None, *range(1, k + 1)]:
        rep = nonrecurrence_check(sch, k, kappa)
        assert _fields(rep) == ref[kappa]
        assert all(type(v) is F for v in (rep.mass_A, rep.mass_C, rep.escaped))


def test_chacon_k9_k10_exact_zeros():
    heights = StackingSchedule.chacon(11).heights()
    for k in (9, 10):
        rep = nonrecurrence_check(StackingSchedule.chacon(k + 1), k=k)
        assert rep.power == heights[k] - 1
        assert rep.overlap.total == 0
        assert rep.overlap_c.total == 0 and rep.escaped == 0
        assert rep.mass_A == F(2, 9) and rep.mass_C > 0 and rep.passed()


def test_stage_fraction_view():
    build = build_tower_schedule(StackingSchedule.chacon(4), stages=3)
    s = build.stage(3)
    assert s.width == F(2, 81) and s.cursor * s.unit == s.height * s.width == 40 * F(2, 81)
    assert [x / s.width for x in s.levels] == s.starts      # built in cells of width 1
    assert len(s.column_tracks) == s.height == 40
    assert [t for t in s.column_tracks if t[0] == -1] == [(-1, 0)]
    assert list(s.column_tracks)[12:15] == [(1, 12), (-1, 0), (2, 0)]


@pytest.mark.parametrize("p, r, h", [(3, 1, 4), (4, 2, 3), (5, 0, 2), (3, 3, 1)])
def test_column_tracks_follow_the_stacking_order(p, r, h):
    """Columns 1..a, the first spacer, columns a+1..p, then r - 1 spacers."""
    a = p // 3 if r else p
    col = lambda c: [(c, i) for i in range(h)]
    expected = sum((col(c) for c in range(1, a + 1)), [])
    expected += [(-1, 0)] * (r > 0) + sum((col(c) for c in range(a + 1, p + 1)), [])
    expected += [(-1, o) for o in range(1, r)]
    sch = StackingSchedule(h, ((p, r),), tail=(3, 1))
    tracks = build_tower_schedule(sch, stages=1).stage(1).column_tracks
    assert list(tracks) == expected and len(tracks) == p * h + r
    assert tracks[-1] == expected[-1]


class _LongBase(StackingSchedule):
    def base_length(self):
        return F(9, 10), F(1)       # leaves too little room for the spacers


@pytest.mark.parametrize("call, text", [
    (lambda: nonrecurrence_check(StackingSchedule.constant(3, 0, 1, 3), k=2),
     "no spacer was ever added: every r_k is 0"),
    (lambda: nonrecurrence_check(StackingSchedule(1, ((3, 0), (3, 0), (3, 1))), k=2),
     "the marked spacer first appears at stage 3, after the requested k=2"),
    (lambda: nonrecurrence_check(StackingSchedule.chacon(2), k=2),
     "need at least 3 stacking rounds, schedule has 2"),
    (lambda: build_tower_schedule(StackingSchedule(1, ((3, 1),)), stages=3),
     "schedule has 1 steps, 3 requested and no tail to extend with"),
    (lambda: build_tower_schedule(_LongBase(1, ((3, 1),)), stages=1),
     "insufficient spacer mass left in [0, 1)"),
])
def test_error_texts_unchanged(call, text):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == text
