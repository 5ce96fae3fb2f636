from fractions import Fraction as F

from hypothesis import given, strategies as st

from recurlab.ratintervals import (IntervalSet, balls_mod1, remove_ball_mod1,
                                  union_all)


def test_normalization_merges_overlap_and_adjacency():
    s = IntervalSet([(F(0), F(1, 2)), (F(1, 2), F(3, 4)), (F(7, 10), F(9, 10))])
    assert s.parts == [(F(0), F(9, 10))]
    assert s.measure() == F(9, 10)


def test_empty_and_degenerate():
    assert not IntervalSet()
    assert not IntervalSet.single(F(1, 3), F(1, 3))
    assert IntervalSet([(F(1, 2), F(1, 4))]).measure() == 0


def test_subtract_splits_in_place():
    s = IntervalSet.single(F(0), F(1))
    t = s.subtract(IntervalSet([(F(1, 4), F(1, 3)), (F(1, 2), F(2, 3))]))
    assert t.parts == [(F(0), F(1, 4)), (F(1, 3), F(1, 2)), (F(2, 3), F(1))]
    assert t.measure() == 1 - F(1, 12) - F(1, 6)


def test_intersect_sweep():
    a = IntervalSet([(F(0), F(1, 2)), (F(3, 4), F(1))])
    b = IntervalSet([(F(1, 4), F(4, 5))])
    assert a.intersect(b).parts == [(F(1, 4), F(1, 2)), (F(3, 4), F(4, 5))]


def test_translate_and_containment():
    a = IntervalSet.single(F(1, 8), F(1, 4)).translate(F(1, 2))
    assert a.parts == [(F(5, 8), F(3, 4))]
    assert a.contains_point(F(11, 16))
    assert not a.contains_point(F(3, 16))


def test_remove_ball_wraps_around_circle():
    s = IntervalSet.single(F(0), F(1))
    t = remove_ball_mod1(s, F(0), F(1, 10))
    assert t.parts == [(F(1, 10), F(9, 10))]
    u = remove_ball_mod1(s, F(19, 20), F(1, 10))
    assert u.parts == [(F(1, 20), F(17, 20))]


def test_largest_component_and_union_all():
    s = union_all([IntervalSet.single(F(0), F(1, 5)),
                   IntervalSet.single(F(1, 2), F(9, 10))])
    assert s.largest_component() == (F(1, 2), F(9, 10))


small_frac = st.fractions(min_value=-2, max_value=3, max_denominator=12)


@st.composite
def interval_sets(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    parts = []
    for _ in range(n):
        a = draw(small_frac)
        b = draw(small_frac)
        parts.append((min(a, b), max(a, b)))
    return IntervalSet(parts)


@given(interval_sets(), interval_sets(), small_frac)
def test_set_algebra_matches_pointwise(a, b, x):
    assert a.union(b).contains_point(x) == (a.contains_point(x) or b.contains_point(x))
    assert a.intersect(b).contains_point(x) == (a.contains_point(x) and b.contains_point(x))
    assert a.subtract(b).contains_point(x) == (a.contains_point(x) and not b.contains_point(x))


@given(interval_sets(), interval_sets())
def test_inclusion_exclusion(a, b):
    assert (a.union(b).measure() + a.intersect(b).measure()
            == a.measure() + b.measure())
    assert a.subtract(b).measure() == a.measure() - a.intersect(b).measure()


@given(interval_sets(),
       st.lists(st.fractions(min_value=-1, max_value=2, max_denominator=9),
                max_size=6),
       st.fractions(min_value=0, max_value=F(3, 5), max_denominator=10))
def test_one_subtract_of_ball_union_matches_one_ball_at_a_time(s, centers, r):
    one_by_one = s
    for c in centers:
        one_by_one = remove_ball_mod1(one_by_one, c, r)
    assert s.subtract(balls_mod1(centers, r)) == one_by_one
