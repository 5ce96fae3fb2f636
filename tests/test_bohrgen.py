"""Block schedules, their witnesses, and the recurrence probe."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from recurlab.bohrgen import (
    BohrSchedule, BohrSet, all_rotation_witnesses,
    block_jamison_witness, block_rotation_witness, bohr_recurrence_probe,
    family_label, probe_csv, schedule_build,
)
from recurlab.circle import unimod_dist
from recurlab.precision import Bound, chord, two_pi_upper


def set_of(r, n_max, h1=6):
    return BohrSet(schedule_build(r, n_max, h1))


# --- schedule construction -------------------------------------------------

def test_default_schedule_small():
    s = schedule_build(1, 2)
    assert s.H == [6, 468]
    assert s.Q == [2, 3] and s.Theta == [2, 3] and s.L == [3, 6]
    assert s.deltas == {(): [1, 1]}
    assert s.max_param(1) == 6 and s.max_param(2) == 18


def test_first_blocks():
    b = set_of(1, 2)
    assert b.blocks[(1, "0")] == [7, 13]
    assert b.blocks[(1, "{}")] == [6]
    assert b.blocks[(2, "0")] == [469, 937, 1405]
    assert b.blocks[(2, "{}")] == [468]
    assert b.merged == [6, 7, 13, 468, 469, 937, 1405]


def test_h_chain_divisibility():
    s = schedule_build(1, 5)
    assert all(h % 3 == 0 for h in s.H)
    assert all(s.H[i + 1] % s.H[i] == 0 for i in range(4))


def test_custom_seeds():
    b = set_of(2, 2, h1=12)
    assert b.schedule.H == [12, 1836]
    assert b.family_elements(0) == [13, 25, 1837, 3673, 5509]


def test_seed_validation():
    with pytest.raises(ValueError, match="r must be"):
        schedule_build(0, 2)
    with pytest.raises(ValueError, match="n_max must be"):
        schedule_build(1, 0)
    with pytest.raises(ValueError, match="multiple of 3"):
        schedule_build(1, 2, h1=5)


def test_schedule_validation():
    ok = schedule_build(1, 2)
    args = (ok.L, ok.Q, ok.Theta, ok.deltas)
    with pytest.raises(ValueError, match="divisible by 3"):
        BohrSchedule(1, 2, [5, 470], *args)
    with pytest.raises(ValueError, match="must divide"):
        BohrSchedule(1, 2, [6, 471], *args)
    with pytest.raises(ValueError, match="growth too slow"):
        BohrSchedule(1, 2, [6, 18], *args)
    with pytest.raises(ValueError, match="one delta schedule"):
        BohrSchedule(2, 2, [6, 468], *args)


def test_family_elements_both_forms():
    b = set_of(1, 3)
    assert b.schedule.H == [6, 468, 212004]
    assert b.family_elements(0, homogeneous=True) == [
        6, 12, 468, 936, 1404, 212004, 424008, 636012, 848016]
    assert b.family_elements((), homogeneous=True) == [6, 468, 212004]
    assert b.family_elements(()) == [6, 468, 212004]
    with pytest.raises(ValueError, match="unknown family"):
        b.family_elements((1,))


def test_nonempty_family_blocks():
    b = set_of(2, 2)
    assert b.schedule.H == [6, 918] and sorted(b.schedule.deltas) == [(), (1,)]
    assert b.blocks[(1, "{1}")] == [48, 84]       # 6*2*(3j+1)
    assert b.blocks[(2, "{1}")] == [12852, 23868, 34884]
    assert family_label(0) == "0" and family_label((1, 2)) == "{1,2}"


# --- small-sup witnesses ---------------------------------------------------

def test_jamison_family0():
    w = block_jamison_witness(set_of(1, 3), 0, F(1, 8))
    assert w.n0 == 2 and w.theta == F(1, 212004)
    assert w.passed and w.sup.certainly_lt(F(1, 8))
    assert w.theta != 0                      # the witness is not lambda = 1
    cert = w.to_certificate()
    assert cert.kind == "non-jamison-witness" and cert.exact
    assert cert.horizon == 9                 # 1 prepended + 9 family elements


def test_jamison_empty_family():
    w = block_jamison_witness(set_of(1, 3), (), F(1, 8))
    assert w.n0 == 1 and w.theta == F(227, 106002)
    assert float(w.sup.hi) == pytest.approx(0.0807, abs=2e-4)


def test_jamison_trivial_eps():
    # eps = 3 admits any angle; the canonical theta starts at the first level
    w = block_jamison_witness(set_of(1, 3), 0, F(3))
    assert w.n0 == 1 and w.theta == F(227, 106002) and w.passed


def test_jamison_single_term_bound():
    # theta = 1/H_2 moves the one-element block by at most 2 pi H_1 / H_2
    s = schedule_build(1, 2)
    v = unimod_dist(F(1, s.H[1]), s.H[0])
    assert v.hi <= two_pi_upper() * s.H[0] / s.H[1]


def test_jamison_growth_too_slow():
    # two levels certify only ~2^-2 here; eps = 1/8 needs a deeper schedule
    with pytest.raises(ValueError, match="growth too slow"):
        block_jamison_witness(set_of(2, 2), (1,), F(1, 8))
    w = block_jamison_witness(set_of(2, 3), (1,), F(1, 8))
    assert w.n0 == 2 and w.theta == F(1, 2 * 831708)
    assert w.sup.certainly_lt(F(1, 8))


def test_jamison_delta_scaled_angle():
    # the witness angle carries the family's delta in its denominators
    w = block_jamison_witness(set_of(2, 2), (1,), F(1, 4))
    assert w.n0 == 1 and w.theta == F(1, 2 * 918)
    assert float(w.sup.hi) == pytest.approx(0.24578, abs=2e-5)


def test_jamison_every_family_deep_schedule():
    # depth 4 certifies eps = 2^-4 on all three families of the r = 2 set
    b = set_of(2, 4)
    sups = {family_label(f): block_jamison_witness(b, f, F(1, 16))
            for f in b.families()}
    assert all(w.passed for w in sups.values())
    assert sups["{1}"].n0 == 3                  # the tight one
    assert sups["{1}"].sup.certainly_lt(F(1, 16))


def test_jamison_needs_two_levels():
    with pytest.raises(ValueError, match="two levels"):
        block_jamison_witness(set_of(1, 1), 0, F(1, 2))
    with pytest.raises(ValueError, match="eps must be positive"):
        block_jamison_witness(set_of(1, 2), 0, F(0))


def test_jamison_horizon_cap():
    w = block_jamison_witness(set_of(1, 3), 0, F(1, 8), K=4)
    assert w.elements == 5


# --- separation witnesses --------------------------------------------------

def test_rotation_family0_greedy():
    w = block_rotation_witness(set_of(1, 3), 0)
    assert w.theta.exact == F(35561, 106002)    # 1/3 + 1/468 + 1/212004
    assert w.meets_target and w.delta.certainly_gt(F(173, 100))
    # top-level elements wrap all the way around and see theta itself
    assert w.residues[5:] == [F(35561, 106002)] * 4


def test_rotation_family0_two_levels():
    w = block_rotation_witness(set_of(1, 2), 0)
    assert w.theta.exact == F(1, 3) + F(1, 468)


def test_rotation_pure_third_is_sqrt3():
    # with 3 | H_N every shifted element sits exactly a third around
    b = set_of(1, 2)
    assert all(e % 3 == 1 for e in b.family_elements(0))
    d = unimod_dist(F(1, 3), b.family_elements(0)[0])
    assert d.intersects(Bound.exact(F(3)).sqrt())


def test_rotation_empty_family():
    w = block_rotation_witness(set_of(1, 3), ())
    assert w.theta.exact == F(1, 18) + F(1, 1404) + F(1, 636012)
    assert w.residues[-1] == F(1, 3)            # the top level is exact
    ref = chord(F(1, 3))
    assert (w.delta.lo, w.delta.hi) == (ref.lo, ref.hi)
    assert w.meets_target


def test_rotation_nonempty_family():
    w = block_rotation_witness(set_of(2, 2), (1,))
    assert w.theta.exact == F(1, 36) + F(1, 5508)
    assert w.residues == [F(157, 459), F(160, 459), F(1, 3), F(1, 3), F(1, 3)]
    assert w.meets_target


def test_rotation_witnesses_merge():
    allw = all_rotation_witnesses(set_of(1, 3))
    assert sorted(allw) == ["0", "{}"]
    assert all(c.meets_target for c in allw.values())
    assert min(c.delta.lo for c in allw.values()) > F(1, 2)


# --- the recurrence probe --------------------------------------------------

def test_probe_identity_rotation():
    p = bohr_recurrence_probe(set_of(1, 3), [F(0)], F(1, 10))
    assert p.found and p.element == 6 and p.index == 0
    assert p.value.hi == 0


def test_probe_rational_divisor():
    b = set_of(1, 3)
    p = bohr_recurrence_probe(b, [F(1, 6)], F(1, 10))
    assert p.found and p.element == 6 and p.value.hi == 0
    # a denominator only the second level divides: earlier elements miss
    p = bohr_recurrence_probe(b, [F(1, 468)], F(1, 100))
    assert p.found and p.element == 468 and p.index == 3 and p.value.hi == 0


def test_probe_adversarial_exhaustion():
    b = set_of(1, 3)
    w = block_rotation_witness(b, 0)
    p = bohr_recurrence_probe(b, [w.theta.exact], F(1, 2), family=0)
    assert not p.found and p.element is None and p.value is None
    assert p.scanned == len(b.family_elements(0))


def test_probe_rotation_count():
    b = set_of(1, 2)
    with pytest.raises(ValueError, match="between 1 and r"):
        bohr_recurrence_probe(b, [], F(1, 2))
    with pytest.raises(ValueError, match="between 1 and r"):
        bohr_recurrence_probe(b, [F(1, 6), F(1, 468)], F(1, 2))


def test_probe_csv():
    b = set_of(1, 3)
    w = block_rotation_witness(b, 0)
    reports = [bohr_recurrence_probe(b, [F(0)], F(1, 10)),
               bohr_recurrence_probe(b, [F(1, 6)], F(1, 10)),
               bohr_recurrence_probe(b, [w.theta.exact], F(1, 2), family=0)]
    assert probe_csv(reports) == (
        "tuple,eps,found_k,value\n"
        "0/1,1/10,6,0\n"
        "1/6,1/10,6,0\n"
        "35561/106002,1/2,,\n")


# --- schedule invariants under fuzzed seeds --------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=3),
       st.integers(min_value=2, max_value=4),
       st.integers(min_value=2, max_value=8))
def test_schedule_invariants(r, n_max, h1_third):
    b = set_of(r, n_max, 3 * h1_third)
    s = b.schedule
    two_pi = two_pi_upper()
    for i in range(n_max - 1):
        assert s.H[i] % 3 == 0 and s.H[i + 1] % s.H[i] == 0
        assert s.H[i + 1] > 2 ** (i + 1) * two_pi * s.H[i] * s.max_param(i + 1)
    assert b.merged == sorted(set(b.merged))
    # levels stay apart: every level-N element is below every level-(N+1) one
    tops = [max(x for (M, _), xs in b.blocks.items() for x in xs if M == N)
            for N in range(1, n_max + 1)]
    bots = [min(x for (M, _), xs in b.blocks.items() for x in xs if M == N)
            for N in range(1, n_max + 1)]
    assert all(tops[i] < bots[i + 1] for i in range(n_max - 1))
    # both witnesses exist on every family at desk tolerances
    assert block_jamison_witness(b, 0, F(1)).passed
    for fam in b.families():
        assert block_rotation_witness(b, fam).meets_target
