import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from recurlab.rankone import (PiecewiseTranslation, StackingSchedule,
                              TowerStage, _removed_column_set,
                              build_tower_schedule, nonrecurrence_check,
                              partial_map, power_image, red_index_oracle,
                              shifted_schedule, tower_power)
from recurlab.ratintervals import IntervalSet
from recurlab.seqcore import gen_recursive_q

CHACON_SEQ = gen_recursive_q(3, 8)      # 1, 4, 13, 40, 121, ...


def test_chacon_heights_and_base_length():
    sch = StackingSchedule.chacon(5)
    assert sch.heights() == [1, 4, 13, 40, 121, 364]
    l1, total = sch.base_length()
    assert l1 == F(2, 3) and total == 1


def test_chacon_stage_two_layout():
    build = build_tower_schedule(StackingSchedule.chacon(3), stages=1)
    s = build.stage(1)
    assert s.height == 4 and s.width == F(2, 9)
    assert s.levels == [F(0), F(2, 3), F(2, 9), F(4, 9)]
    assert sorted(s.red) == [1]
    assert s.level_set(s.red).measure() == F(2, 9)    # the marked spacer A
    assert s.column_tracks[1][0] == -1            # a spacer, not a column piece


def test_chacon_stage_three_red_levels():
    build = build_tower_schedule(StackingSchedule.chacon(3), stages=2)
    assert sorted(build.stage(2).red) == [1, 6, 10]
    assert build.stage(2).width == F(2, 27)


def test_mass_ledger_matches_closed_form():
    sch = StackingSchedule.chacon(5)
    build = build_tower_schedule(sch)
    l1 = F(2, 3)
    prod, series, expected = 1, F(0), [l1]
    for p, r in sch.steps:
        prod *= p
        series += F(r, prod)
        expected.append(l1 * (1 + series))
    for stage, mass in zip(build.stages, expected, strict=True):
        assert stage.height * stage.width == stage.cursor * stage.unit == mass


def test_p4r2_schedule():
    sch = StackingSchedule.constant(4, 2, 3, 4)
    assert sch.heights()[:3] == [3, 14, 58]
    assert sch.base_length()[0] == F(3, 11)
    build = build_tower_schedule(sch, stages=1)
    s = build.stage(1)
    # spacer after column a=1 (index 3) and one trailing spacer (index 13)
    spacers = [i for i, (c, _) in enumerate(s.column_tracks) if c == -1]
    assert spacers == [3, 13]
    assert sorted(s.red) == [3]


def test_schedule_validation():
    with pytest.raises(ValueError, match="p >= 3"):
        StackingSchedule(1, ((2, 1),))
    with pytest.raises(ValueError, match="negative r"):
        StackingSchedule(1, ((3, -1),))
    with pytest.raises(ValueError, match="start height"):
        StackingSchedule(0, ((3, 1),))
    with pytest.raises(ValueError, match="no tail"):
        build_tower_schedule(StackingSchedule(1, ((3, 1),)), stages=3)


def test_partial_map_shapes():
    base = build_tower_schedule(StackingSchedule.chacon(2), stages=0).stage(0)
    assert partial_map(base).pieces == []        # height 1: nothing above
    s = build_tower_schedule(StackingSchedule.chacon(2), stages=1).stage(1)
    pm = partial_map(s)
    assert len(pm.pieces) == 3
    assert all(hi - lo == F(2, 9) for lo, hi, _ in pm.pieces)
    src = sum((hi - lo for lo, hi, _ in pm.pieces), F(0))
    assert src == pm.domain.measure() == F(2, 3)


def test_piecewise_translation_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        PiecewiseTranslation([(F(0), F(1, 2), F(0)), (F(1, 4), F(3, 4), F(0))])
    with pytest.raises(ValueError, match="overlap"):
        PiecewiseTranslation([(F(0), F(1, 4), F(1, 2)),
                              (F(1, 4), F(1, 2), F(1, 4))])


def test_power_image_identity_and_climb():
    s = build_tower_schedule(StackingSchedule.chacon(2), stages=1).stage(1)
    pm = partial_map(s)
    bottom = s.level_set([0])
    img, esc = power_image(pm, bottom, 0)
    assert img.parts == bottom.parts and not esc
    img, esc = power_image(pm, bottom, 3)
    assert img.parts == s.level_set([3]).parts and esc.measure() == 0


def test_power_image_escape_ledger():
    s = build_tower_schedule(StackingSchedule.chacon(2), stages=1).stage(1)
    pm = partial_map(s)
    full = s.level_set(range(s.height))
    img, esc = power_image(pm, full, 2)
    # two steps push the top two levels out of the domain; the bucket names
    # them in source coordinates, so nothing collides or vanishes
    assert esc.parts == s.level_set([2, 3]).parts
    assert img.measure() + esc.measure() == full.measure()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=3),
       st.lists(st.tuples(st.integers(min_value=3, max_value=5),
                          st.integers(min_value=0, max_value=3)),
                min_size=1, max_size=4))
def test_stage_invariants_random_schedules(start, steps):
    if all(r == 0 for _, r in steps):
        steps = steps + [(3, 1)]
    build = build_tower_schedule(StackingSchedule(start, tuple(steps)))
    for prev, cur in zip(build.stages, build.stages[1:]):
        p, r = build.schedule.steps[cur.index - 1]
        assert cur.height == p * prev.height + r
        assert cur.width == prev.width / p
        # levels pairwise disjoint: union measure equals the level count
        assert cur.level_set(range(cur.height)).measure() == cur.height * cur.width
        expected_red = len(prev.red) * p + (1 if (r >= 1 and not prev.red) else 0)
        assert len(cur.red) == expected_red
    assert build.stages[-1].height * build.stages[-1].width <= 1


def test_nonrecurrence_chacon_k1():
    rep = nonrecurrence_check(StackingSchedule.chacon(4), k=1)
    assert rep.power == 3
    assert rep.overlap.total == 0 and rep.escaped == 0
    assert rep.mass_A == F(2, 9) and rep.mass_checked == F(4, 27)
    assert rep.passed() and rep.to_certificate().passed


def test_nonrecurrence_identity_power_is_mass():
    s = build_tower_schedule(StackingSchedule.chacon(3), stages=1).stage(1)
    a = s.level_set(s.red)
    img, _ = power_image(partial_map(s), a, 0)
    assert img.intersect(a).measure() == F(2, 9)


def test_nonrecurrence_chacon_deeper():
    for k, mass_c in ((2, F(8, 81)), (3, F(16, 243))):
        rep = nonrecurrence_check(StackingSchedule.chacon(6), k=k)
        assert rep.overlap.total == 0 and rep.escaped == 0
        assert rep.overlap_c.total == 0
        assert rep.kappa == 1 and rep.mass_C == mass_c


def test_nonrecurrence_mass_bookkeeping_is_honest():
    sch = StackingSchedule.chacon(6)
    rep = nonrecurrence_check(sch, k=3)
    # exact removed mass is m(A)/3 per stage; the printed 1/(p_j n_j)
    # budget only dominates it at the first stage
    unit, heights = rep.build.stage(4).unit, sch.heights()
    exact = [_removed_column_set(rep.build, j).measure() * unit for j in (1, 2, 3)]
    assert exact == [F(2, 27)] * 3
    assert [e <= F(1, 3 * heights[j]) for j, e in zip((1, 2, 3), exact)] \
        == [True, False, False]
    assert rep.c_lower_bound == F(491, 4680)
    # the budget claims more survival than the exact ledger delivers; the
    # report keeps both so the gap stays visible
    assert 0 < rep.mass_C < rep.c_lower_bound


def test_nonrecurrence_p4r2_matches_symbolic_oracle():
    sch = StackingSchedule.constant(4, 2, 3, 4)
    rep = nonrecurrence_check(sch, k=1)
    assert rep.power == 13 and rep.overlap.total == 0 and rep.escaped == 0
    build = build_tower_schedule(sch, stages=2)
    assert frozenset(build.stage(2).red) == red_index_oracle(sch, 2)[2]


@pytest.mark.parametrize("sch", [StackingSchedule.chacon(6),
                                 StackingSchedule.constant(4, 2, 3, 5),
                                 StackingSchedule.constant(5, 3, 4, 5)])
def test_red_oracle_equivalence(sch):
    build = build_tower_schedule(sch, stages=5)
    reds = red_index_oracle(sch, 5)
    for i in range(6):
        assert frozenset(build.stage(i).red) == reds[i]
    # interval route agrees where it is cheap enough to run
    for k in (1, 2):
        assert nonrecurrence_check(sch, k=k).overlap.total == 0


def test_nonrecurrence_guards():
    with pytest.raises(ValueError, match="stacking rounds"):
        nonrecurrence_check(StackingSchedule.chacon(2), k=5)
    with pytest.raises(ValueError, match="kappa"):
        nonrecurrence_check(StackingSchedule.chacon(4), k=2, kappa=3)
    # canonical euclidean schedule: first round is (4, 0), A appears late
    with pytest.raises(ValueError, match="first appears"):
        nonrecurrence_check(CHACON_SEQ, k=1)


def test_schedule_from_a_long_sequence_takes_one_divmod_per_round():
    # one divmod per round: 400 rounds of 3^k-sized terms take milliseconds
    seq = gen_recursive_q(3, 401)
    t0 = time.perf_counter()
    sch = StackingSchedule.from_sequence(seq, 400)
    assert time.perf_counter() - t0 < 0.25
    # n_0 = 1 forces (4, 0) first; then n_{k+1} = 3 n_k + 1 at every round
    assert sch.steps[0] == (4, 0) and sch.steps[1:] == ((3, 1),) * 399


def test_nonrecurrence_from_sequence_canonical():
    rep = nonrecurrence_check(CHACON_SEQ, k=2)
    assert rep.power == 12 and rep.overlap.total == 0 and rep.escaped == 0


def test_shifted_schedule_identity_and_tail():
    unchanged = shifted_schedule(CHACON_SEQ, 1)
    assert unchanged.start_height == 1
    assert unchanged.steps[:3] == ((4, 0), (3, 1), (3, 1))
    sh = shifted_schedule(CHACON_SEQ, 2)
    # shift 1, from k0 = 1, the first index with n_k > 1
    assert CHACON_SEQ.term(0) == 1
    assert sh.start_height == CHACON_SEQ.term(1) - 1 == 3
    assert set(sh.steps) == {(3, 3)}
    assert sh.heights()[:4] == [3, 12, 39, 120]


def test_shifted_schedule_certifies_shifted_powers():
    sh = shifted_schedule(CHACON_SEQ, 2)
    for k in (1, 2):
        rep = nonrecurrence_check(sh, k=k)
        assert rep.power == CHACon_power(k)
        assert rep.overlap.total == 0 and rep.escaped == 0


def CHACon_power(k):
    # the shifted tower's k-th power is n_{k+1} - 2 of the original heights
    return CHACON_SEQ.term(k + 1) - 2


def test_shifted_schedule_guards():
    with pytest.raises(ValueError, match="p must be"):
        shifted_schedule(CHACON_SEQ, 0)
    with pytest.raises(ValueError, match="usable steps"):
        shifted_schedule(CHACON_SEQ, 2, rounds=1)


@st.composite
def tower_power_cases(draw):
    """A random stage, a set mixing partial level pieces with arbitrary
    intervals (some off the tower or off [0, 1)), and a power m."""
    steps = draw(st.lists(st.tuples(st.integers(min_value=3, max_value=4),
                                    st.integers(min_value=0, max_value=2)),
                          min_size=1, max_size=2))
    sch = StackingSchedule(draw(st.integers(min_value=1, max_value=2)),
                           tuple(steps))
    j = draw(st.integers(min_value=0, max_value=len(steps)))
    stage = build_tower_schedule(sch, stages=j).stage(j)
    unit = st.fractions(min_value=0, max_value=1, max_denominator=7)
    parts = []
    for i in draw(st.lists(st.integers(min_value=0, max_value=stage.height - 1),
                           max_size=6)):
        a, b = sorted((draw(unit), draw(unit)))
        parts.append((stage.levels[i] + a * stage.width,
                      stage.levels[i] + b * stage.width))
    anywhere = st.fractions(min_value=F(-1, 4), max_value=F(5, 4),
                            max_denominator=60)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        a, b = sorted((draw(anywhere), draw(anywhere)))
        parts.append((a, b))
    h = stage.height
    m = draw(st.one_of(st.sampled_from([0, 1, h - 1, h, h + 3]),
                       st.integers(min_value=0, max_value=h + 3)))
    return stage, IntervalSet(parts), m


@settings(max_examples=60, deadline=None)
@given(tower_power_cases())
def test_tower_power_matches_step_by_step_reference(case):
    stage, s, m = case
    image, escaped = tower_power(stage, s, m)
    ref_image, ref_escaped = power_image(partial_map(stage), s, m)
    assert image.parts == ref_image.parts
    assert escaped.parts == ref_escaped.parts
    assert image.measure() + escaped.measure() == s.measure()


def test_tower_power_rejects_bad_input():
    s = build_tower_schedule(StackingSchedule.chacon(2), stages=1).stage(1)
    with pytest.raises(ValueError, match="negative"):
        tower_power(s, s.level_set(range(s.height)), -1)
    off_grid = TowerStage(index=0, height=2, width=F(1, 4),
                          levels=[F(0), F(3, 8)], red=frozenset(),
                          column_tracks=[(1, 0), (1, 1)], allocated=F(1, 2))
    with pytest.raises(ValueError, match="multiple of the width"):
        tower_power(off_grid, off_grid.level_set(range(2)), 1)


def test_nonrecurrence_chacon_deep_stages_exact_zero():
    # the step-by-step route needed about 96 s for k = 5 alone
    heights = StackingSchedule.chacon(9).heights()
    t0 = time.perf_counter()
    for k in range(5, 9):
        rep = nonrecurrence_check(StackingSchedule.chacon(k + 1), k=k)
        assert rep.power == heights[k] - 1
        assert rep.overlap.total == 0 and rep.overlap_c.total == 0
        assert rep.escaped == 0
        assert rep.mass_C > 0 and rep.passed()
    assert time.perf_counter() - t0 < 10
