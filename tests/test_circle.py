import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from recurlab.circle import (GRID_LIMIT, AngleTurns, _grid_scan,
                             _refine_float, _survivors, chord_extreme,
                             d_metric_finite,
                             jamison_separation_test, perturb_divisibility,
                             unimod_dist, verify_witness,
                             witness_nested_intervals)
from recurlab.precision import chord, pi_bound, residue, residue_distance
from recurlab.ratintervals import IntervalSet, balls_mod1
from recurlab.seqcore import (gen_divisibility, gen_recursive_q, naturals,
                              triangular_pow2)

# closed forms, computed independently:
#   2 sin(pi/8)  = sqrt(2 - sqrt(2))
#   2 sin(pi/16) = sqrt(2 - sqrt(2 + sqrt(2)))
#   2 sin(pi/3)  = sqrt(3)
TWO_SIN_PI_8 = 0.7653668647301796
TWO_SIN_PI_16 = 0.3901806440322565
SQRT_3 = 1.7320508075688772


def pow2_seq(count=11):
    return gen_divisibility(1, (lambda k: 2), count)


def test_unimod_dist_exact_residues():
    assert unimod_dist(F(1, 2), 1) == unimod_dist(F(1, 2), -1)
    half = unimod_dist(F(1, 2), 1)
    assert half.is_exact and half.lo == 2
    assert unimod_dist(F(1, 6), 1).is_exact and unimod_dist(F(1, 6), 1).lo == 1
    assert unimod_dist(F(1, 3), 3).is_exact and unimod_dist(F(1, 3), 3).lo == 0
    assert unimod_dist(F(5, 3), 1) == unimod_dist(F(2, 3), 1)


def test_unimod_dist_window():
    t = AngleTurns.approx(F(1, 3), F(1, 10000))
    b = unimod_dist(t, 1)
    assert b.lo < SQRT_3 < b.hi and float(b.width) < 0.01
    spans_zero = AngleTurns.approx(F(0), F(1, 10))
    assert unimod_dist(spans_zero, 1).lo == 0
    wide = AngleTurns.approx(F(1, 2), F(1))
    assert unimod_dist(wide, 7).lo == 0 and unimod_dist(wide, 7).hi == 2


def test_d_metric_triangular_64th():
    cert = d_metric_finite(F(1, 64), 0, triangular_pow2(6), K=5)
    assert abs(float(cert.bound.mid) - TWO_SIN_PI_8) < 1e-15
    assert cert.bound.width < F(1, 10**20)
    assert not cert.tail_exact


def test_d_metric_naturals_exact_two():
    cert = d_metric_finite(F(1, 8), 0, naturals(5), K=4)
    assert cert.bound.is_exact and cert.bound.lo == 2


angles = st.fractions(min_value=0, max_value=1, max_denominator=64)


@settings(max_examples=60)
@given(angles, angles, angles)
def test_d_metric_triangle_inequality(t1, t2, t3):
    seq = triangular_pow2(5)
    d13 = d_metric_finite(t1, t3, seq, K=4).bound
    d12 = d_metric_finite(t1, t2, seq, K=4).bound
    d23 = d_metric_finite(t2, t3, seq, K=4).bound
    assert d13.lo <= d12.hi + d23.hi
    assert d_metric_finite(t1, t2, seq, K=4).bound == d_metric_finite(t2, t1, seq, K=4).bound


@given(angles)
def test_d_metric_self_distance_zero(t):
    b = d_metric_finite(t, t, naturals(6), K=5).bound
    assert b.is_exact and b.lo == 0


def test_perturbation_has_exact_tail():
    res = perturb_divisibility(F(1, 3), triangular_pow2(6), m=4)
    assert res.theta.exact == F(1, 3) + F(1, 1024)
    cert = res.certificate
    assert cert.tail_exact
    assert abs(float(cert.bound.mid) - TWO_SIN_PI_16) < 1e-15
    assert cert.bound.width < F(1, 10**20)


def test_perturbation_rejects_general_sequences():
    with pytest.raises(ValueError):
        perturb_divisibility(F(1, 3), gen_recursive_q(3, 5), m=2)


def test_witness_third_on_powers_of_two():
    w = verify_witness(F(1, 3), pow2_seq(), K=10, target=F(1))
    assert w.meets_target
    assert sorted(set(w.residues)) == [F(1, 3), F(2, 3)]
    assert abs(float(w.delta.mid) - SQRT_3) < 1e-15
    c = w.to_certificate()
    assert c.passed and c.to_dict()["kind"] == "rotation-witness"


def test_witness_collapse_detected():
    # 2^10 * (1/1024) lands on an integer: the orbit returns to 1 exactly
    w = verify_witness(F(1, 1024), pow2_seq(), K=10, target=F(1, 100))
    assert w.delta.is_exact and w.delta.lo == 0
    assert not w.meets_target


def test_nested_interval_search_finds_witness():
    search = witness_nested_intervals(pow2_seq(), K=10, delta_target=F(1, 2))
    assert search.found
    cert = search.certificate
    assert cert.meets_target and cert.delta.lo >= F(1, 2)
    assert cert.theta.is_exact
    assert search.trials and all(m < 1 for _, m in search.trials)
    recheck = verify_witness(cert.theta.exact, pow2_seq(), K=10, target=F(1, 2))
    assert recheck.meets_target


def test_nested_interval_search_at_the_ball_budget():
    # K = 11 is the last horizon of the ratio-3 chain that _MAX_BALLS admits
    chain = gen_divisibility(1, (lambda k: 3), 12)
    search = witness_nested_intervals(chain, K=11, delta_target=F(1, 2))
    assert search.found
    assert search.certificate.delta.lo >= F(1, 2)
    recheck = verify_witness(search.certificate.theta.exact, chain, K=11,
                             target=F(1, 2))
    assert recheck.meets_target


def _survivors_reference(terms, r):
    """Reference: subtract each term's circle balls as one Fraction set."""
    sur = IntervalSet.single(F(0), F(1))
    for n in terms:
        sur = sur.subtract(balls_mod1((F(j, n) for j in range(n + 1)), r / n))
        if not sur:
            break
    return sur


LADDER = [F(4), F(3), F(5, 2), F(2), F(3, 2), F(1), F(1, 2), F(1, 4), F(1, 8),
          F(1, 16)]
nested_seqs = st.one_of(
    st.builds(lambda ratio, count: gen_divisibility(1, [ratio] * count, count),
              st.integers(2, 5), st.integers(1, 8)),
    st.builds(naturals, st.integers(1, 30)),
    st.builds(gen_recursive_q, st.integers(1, 4), st.integers(1, 6)))


@settings(max_examples=80, deadline=None)
@given(seq=nested_seqs, factor=st.sampled_from(LADDER),
       target=st.sampled_from([F(1, 10), F(1, 3), F(1, 2), F(1), F(7, 4)]))
@example(seq=gen_divisibility(1, [3] * 8, 8), factor=F(1), target=F(1, 2))
@example(seq=naturals(1), factor=F(4), target=F(7, 4))   # r/n above 1/2
def test_integer_sweep_matches_fraction_sets(seq, factor, target):
    terms = seq.materialized()
    r = target * factor / (4 * pi_bound().lo)
    parts, D = _survivors(terms, r)
    ref = _survivors_reference(terms, r)
    assert [(F(a, D), F(b, D)) for a, b in parts] == ref.parts
    assert F(sum(b - a for a, b in parts), D) == ref.measure()
    if ref:
        a, b = max(parts, key=lambda iv: iv[1] - iv[0])
        ra, rb = ref.largest_component()
        assert F(a + b, 2 * D) == (ra + rb) / 2


def test_nested_interval_budget_guard():
    big = gen_divisibility(1, (lambda k: 3), 30)
    with pytest.raises(ValueError, match="removals"):
        witness_nested_intervals(big, K=29, delta_target=F(1, 2))


def test_jamison_grid_scan_naturals():
    rep = jamison_separation_test(naturals(5001), epsilon=F(7, 4), K=5000, grid=5001)
    assert rep.best_theta == F(1, 3)
    assert abs(float(rep.sup.mid) - SQRT_3) < 1e-12
    assert rep.witness_found            # sqrt(3) < 7/4
    tight = jamison_separation_test(naturals(5001), epsilon=F(17, 10), K=5000, grid=5001)
    assert not tight.witness_found      # sqrt(3) > 17/10


def test_jamison_grid_aliasing_guard():
    with pytest.raises(ValueError, match="alias"):
        jamison_separation_test(naturals(5001), epsilon=F(1), K=5000, grid=100)
    with pytest.raises(ValueError, match="2\\^31"):
        jamison_separation_test(naturals(3), epsilon=F(1), K=2, grid=GRID_LIMIT)


def _grid_scan_loop(terms, grid):
    """Reference: every row 1..grid-1, first minimum of the max distance."""
    best_i, best_d = 0, grid
    for i in range(1, grid):
        worst = max(min(i * n % grid, grid - i * n % grid) for n in terms)
        if worst < best_d:
            best_i, best_d = i, worst
    return best_i, best_d


# repeating the terms leaves the objective as it is (the scan deduplicates
# them); a minimum tied across blocks of rows is exercised by
# test_grid_scan_matches_unfolded_scan
@settings(max_examples=60, deadline=None)
@given(terms=st.lists(st.integers(1, 400), min_size=1, max_size=40),
       extra=st.integers(0, 400), copies=st.integers(1, 100))
@example(terms=[100], extra=300, copies=1000)   # rows 4, 8, ... all reach 0
def test_grid_scan_matches_full_loop(terms, extra, copies):
    grid = max(terms) + extra
    assert _grid_scan(terms * copies, grid) == _grid_scan_loop(terms, grid)


# 92,682 is the least grid whose largest half-grid product (grid // 2)^2
# reaches 2^31 (folded terms are at most grid // 2): the scan's int32 and
# int64 routes meet there.  The term grid // 2 makes that product; 46,340 and
# 46,341, whose squares straddle 2^31, and 65,536 and 65,537 stay int32.
@settings(max_examples=12, deadline=None)
@given(grid=st.sampled_from([46_340, 46_341, 65_536, 65_537, 92_681, 92_682]),
       data=st.data())
def test_grid_scan_matches_full_loop_at_the_dtype_switch(grid, data):
    terms = data.draw(st.lists(st.integers(1, grid), min_size=1, max_size=3))
    assert _grid_scan(terms, grid) == _grid_scan_loop(terms, grid)
    assert _grid_scan([grid - 1], grid) == _grid_scan_loop([grid - 1], grid)
    assert _grid_scan([grid // 2], grid) == _grid_scan_loop([grid // 2], grid)


def _grid_scan_unfolded(terms, grid):
    """Reference: the half-grid block scan with one column per term, no
    folding or deduplication."""
    dtype = np.int32 if (grid // 2) * (grid - 1) < 2 ** 31 else np.int64
    n_arr = np.array([n % grid for n in terms], dtype=dtype)
    best_i, best_d = 0, grid
    half = grid // 2
    chunk = max(1, (1 << 16) // len(terms))
    for lo in range(1, half + 1, chunk):
        ii = np.arange(lo, min(lo + chunk, half + 1), dtype=dtype)
        r = ii[:, None] * n_arr[None, :]
        np.fmod(r, grid, out=r)
        d = np.minimum(r, grid - r).max(axis=1)
        j = int(d.argmin())
        if int(d[j]) < best_d:
            best_d, best_i = int(d[j]), lo + j
    return best_i, best_d


# terms n and grid - n, and multiples of grid, in one list, at odd and even
# grids; multiples of 4 below grid 8000 give 1,000 distinct columns, so the
# rows run in blocks of 65 and the zero rows 2000 and 4000 tie across blocks
@settings(max_examples=80, deadline=None)
@given(grid=st.integers(1, 3000), data=st.data())
@example(grid=8000, data=None)
@example(grid=7, data=None)
@example(grid=8, data=None)
def test_grid_scan_matches_unfolded_scan(grid, data):
    if data is None:
        terms = (list(range(0, 4000, 4)) if grid == 8000
                 else [0, grid, 5 * grid, grid ** 40])   # every term = 0
    else:
        base = data.draw(st.lists(st.integers(0, 10 ** 6), min_size=1,
                                  max_size=40))
        terms = base + [k * grid - n for n in base for k in (1, 3)
                        if k * grid > n] + [grid * len(base)]
    assert _grid_scan(terms, grid) == _grid_scan_unfolded(terms, grid)


@given(theta=st.fractions(min_value=-2, max_value=2, max_denominator=10 ** 12),
       terms=st.lists(st.integers(0, 10 ** 30), min_size=1, max_size=30))
def test_exact_selection_matches_fraction_selection(theta, terms):
    dists = [residue_distance(residue(theta, n)) for n in terms]
    assert chord_extreme(theta, terms) == (chord(max(dists)), max(dists))
    assert chord_extreme(theta, terms, min) == (chord(min(dists)), min(dists))


def _refine_float_loop(theta0, terms, halfwidth, steps=48):
    """Reference: the golden-section polish with a term-by-term objective."""
    def f(t):
        return max(2 * abs(math.sin(math.pi * ((n * t) % 1.0))) for n in terms)

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


@settings(max_examples=60, deadline=None)
@given(terms=st.lists(st.integers(0, 2 ** 31), min_size=1, max_size=50),
       theta0=st.floats(0, 1), grid=st.integers(2, 10 ** 6))
@example(terms=list(range(1, 2002)), theta0=1 / 2001, grid=2001)
@example(terms=list(range(1, 2002)), theta0=667 / 2001, grid=2001)
def test_refine_float_matches_term_loop(terms, theta0, grid):
    assert (_refine_float(theta0, terms, 1.0 / grid)
            == _refine_float_loop(theta0, terms, 1.0 / grid))


def test_jamison_structural_divisibility():
    fast = gen_divisibility(1, (lambda k: 10 ** (k + 1)), 8)
    rep = jamison_separation_test(fast, epsilon=F(1, 100), K=7, grid=0)
    assert rep.witness_found
    assert rep.best_theta == F(1, fast.term(8))
    assert rep.sup.hi < F(1, 10**7)
    with pytest.raises(ValueError, match="divisibility"):
        jamison_separation_test(gen_recursive_q(3, 5), epsilon=F(1), K=4, grid=0)


def test_angle_container():
    with pytest.raises(ValueError):
        AngleTurns()
    with pytest.raises(ValueError):
        AngleTurns.approx(F(1, 2), F(-1))
    assert AngleTurns.of(F(7, 3)).exact == F(1, 3)
    diff = AngleTurns.of(F(1, 4)).minus(AngleTurns.of(F(3, 4)))
    assert diff.exact == F(1, 2)
