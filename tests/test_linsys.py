import hashlib
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from mpmath import mp, mpc

from recurlab import linsys, precision
from recurlab.circle import AngleTurns, chord_extreme, verify_witness
from recurlab.linsys import (BallCertificate, DiagShiftOperator, NormCertificate,
                             NormRow, ball_certificate,
                             ball_mc_check, build_diag_chain, build_j_function,
                             build_operator, build_shift_weights,
                             kalish_eigencheck, norm_table_csv, power_norm,
                             telescope_gap)
from recurlab.precision import (Bound, chord, cis_ends, cos_turns, get_bits,
                                sin_turns, working_bits)
from recurlab.seqcore import gen_divisibility, triangular_pow2

SEQ = triangular_pow2(40)
DELTA = F(1, 8)


def _angles(*fracs):
    return [AngleTurns.of(F(*f)) for f in fracs]


def test_j_function_prefix():
    j = build_j_function(12)
    assert j == {2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 3,
                 8: 1, 9: 2, 10: 3, 11: 4, 12: 1}
    with pytest.raises(ValueError):
        build_j_function(1)


def test_j_function_stays_below_index():
    j = build_j_function(1000)
    assert all(j[n] < n for n in range(2, 1001))
    # the value 3 keeps coming back
    assert sum(1 for v in j.values() if v == 3) > 20


@pytest.fixture(scope="module")
def chain():
    eps = [DELTA * F(1, 2 ** (n + 1)) for n in range(2, 9)]
    return build_diag_chain(SEQ, 8, eps)


def test_chain_indices_are_fresh_and_budgeted(chain):
    assert chain.m_indices == [None, 9, 10, 11, 12, 13, 14, 15]
    assert len(set(chain.angles)) == 8
    total = sum(chain.eps)
    for n in range(2, 9):
        edge = chain.edges[n - 1].certificate
        m = chain.m_indices[n - 1]
        assert edge.horizon == m - 1
        assert all(SEQ.term(k) % SEQ.term(m) == 0 for k in range(m, len(SEQ)))
        assert edge.bound.certainly_lt(chain.eps[n - 2])
        assert chain.tele_bounds[n - 1].hi <= total


def test_chain_telescoping_dominates_direct(chain):
    for n in range(1, 9):
        direct, _ = chord_extreme(chain.angles[n - 1],
                                  SEQ.prefix(chain.horizon))
        assert chain.tele_bounds[n - 1].hi >= direct.lo


def test_chain_rejects_slow_growth():
    slow = gen_divisibility(2, [2] * 19, 20)
    with pytest.raises(ValueError, match="infeasible"):
        build_diag_chain(slow, 4, [F(1, 16), F(1, 32), F(1, 64)])


def test_chain_budget_validation():
    with pytest.raises(ValueError, match="edge budgets"):
        build_diag_chain(SEQ, 4, [F(1, 4)])
    with pytest.raises(ValueError, match="positive"):
        build_diag_chain(SEQ, 3, [F(1, 4), F(0)])


def test_operator_validation():
    good = _angles((1, 3), (1, 5))
    with pytest.raises(ValueError, match="distinct"):
        DiagShiftOperator(2, _angles((1, 3), (1, 3)), [F(1, 4)])
    with pytest.raises(ValueError, match="weights"):
        DiagShiftOperator(2, good, [])
    with pytest.raises(ValueError, match=">= 0"):
        DiagShiftOperator(2, good, [F(-1, 4)])
    with pytest.raises(ValueError, match="j\\(2\\)"):
        DiagShiftOperator(2, good, [F(1, 4)], j_map={2: 2})


def test_power_norm_identity_and_cube_root():
    op = DiagShiftOperator(1, _angles((1, 3)), [])
    zero = power_norm(op, 0)
    assert zero.norm_ti.is_exact and zero.norm_ti.lo == 0
    cube = power_norm(op, 3)
    assert cube.method == "diagonal-exact"
    assert cube.norm_ti.is_exact and cube.norm_ti.lo == 0
    with pytest.raises(ValueError):
        power_norm(op, -1)
    with pytest.raises(ValueError):
        power_norm(op, 2, method="fast")


def test_power_norm_diagonal_formula_random():
    rng = random.Random(20240811)
    for _ in range(100):
        N = rng.randrange(1, 5)
        dens = rng.sample(range(3, 200), N)
        thetas = [F(rng.randrange(1, d), d) for d in dens]
        if len(set(thetas)) != N:
            continue
        op = DiagShiftOperator(N, [AngleTurns.of(t) for t in thetas],
                               [F(0)] * (N - 1))
        for _ in range(20):
            n = rng.randrange(0, 10 ** 6)
            got = power_norm(op, n).norm_ti
            # independent float evaluation with exact residue reduction
            want = max(abs(complex(math.cos(2 * math.pi * float((n * t) % 1)),
                                   math.sin(2 * math.pi * float((n * t) % 1))) - 1)
                       for t in thetas)
            assert got.lo - 1e-12 <= want <= got.hi + 1e-12


def test_power_norm_matrix_route_contains_exact():
    op = DiagShiftOperator(3, _angles((1, 3), (1, 5), (1, 7)), [F(0), F(0)])
    for n in (1, 5, 29, 1024):
        exact = power_norm(op, n).norm_ti
        boxed = power_norm(op, n, method="matrix")
        assert boxed.method == "midpoint-radius"
        assert boxed.norm_ti.lo <= exact.lo and exact.hi <= boxed.norm_ti.hi
        assert boxed.norm_td.hi < 1e-200   # structurally zero up to radius


def test_power_norm_shift_block_at_power_one():
    w = [F(1, 4), F(1, 16)]
    op = DiagShiftOperator(3, _angles((1, 3), (1, 5), (1, 7)), w)
    for bits in (53, 1100):                # 1100: midpoints past float range
        td = power_norm(op, 1, bits=bits).norm_td
        assert td.lo <= F(1, 4) <= td.hi   # ||T - D|| = max weight


def test_power_norm_halving_weights_halves_td():
    diag = _angles((1, 3), (1, 5), (1, 7), (1, 11))
    n = 64
    full = power_norm(DiagShiftOperator(4, diag, build_shift_weights(4, F(1, 64))), n)
    half = power_norm(DiagShiftOperator(4, diag, build_shift_weights(4, F(1, 128))), n)
    ratio = full.norm_td.hi / half.norm_td.hi
    assert F(19, 10) < ratio < F(21, 10)


@pytest.fixture(scope="module")
def built():
    return build_operator(SEQ, N=8, K=4, delta=DELTA)


def test_build_operator_tuning_record(built):
    assert built.rho == F(1, 8192) and built.halvings == 11
    assert built.norms.sup_td() < DELTA / 2
    assert built.norms.sup_ti() < 2 * DELTA
    assert built.norms.passed
    assert [r.power for r in built.norms.rows] == [1, 2, 8, 64, 1024]
    cert = built.norms.to_certificate()
    assert cert.kind == "power-norms" and cert.passed


def test_norm_table_csv(built):
    table = norm_table_csv(built.norms).splitlines()
    assert table[0] == "k,n_k,norm_TI,norm_TD,bits_used"
    assert len(table) == 6 and table[1].startswith("0,1,")


def test_precision_error_then_retry():
    # the table takes its working precision from n and the gaps, so 53
    # bits certify n = 2^60 + 3 as well as 200 do, and the caller's
    # working precision is restored after each call
    op = DiagShiftOperator(4, _angles((1, 3), (1, 5), (1, 7), (1, 11)),
                           build_shift_weights(4, F(1, 2 ** 40)))
    n = 2 ** 60 + 3
    before = get_bits()
    diag_max = max(chord(F((n * t.exact.numerator) % t.exact.denominator,
                           t.exact.denominator)).hi for t in op.diag)
    for bits in (53, 200):
        res = power_norm(op, n, bits=bits)
        assert get_bits() == before
        # the full norm sits within norm_td of the diagonal-only value
        assert diag_max <= res.norm_ti.hi + F(1, 2 ** 90)
        assert res.norm_ti.lo <= diag_max + res.norm_td.hi
        assert res.norm_ti.width < F(1, 10 ** 4)
        assert res.norm_td.hi < F(1, 10 ** 5)


def test_build_operator_halves_rho_past_precision_errors():
    # at rho = 1/4 the power 2^15 is far from I; the table runs at its own
    # working precision, and the build halves rho until norm_TD is below
    # delta/2
    build = build_operator(SEQ, N=16, K=5, delta=F(1, 2), bits=53)
    assert build.norms.passed and build.norms.sup_td() < F(1, 4)
    assert build.rho == F(1, 4) / 2 ** build.halvings
    assert [r.power for r in build.norms.rows][-1] == 2 ** 15


def test_build_operator_computes_each_power_once_and_reaches_horizon_9(monkeypatch):
    # every halving of rho is an exact diagonal similarity, so the table of
    # each power is computed once, at rho = 1/4, and shifted by a halving;
    # the working precision covers n = 2^45 at 53 bits
    computed = []
    power_tables = linsys._power_tables

    def counted(angles, scales, powers, P, bits):
        computed.extend(powers)
        return power_tables(angles, scales, powers, P, bits)

    monkeypatch.setattr(linsys, "_power_tables", counted)
    build = build_operator(SEQ, N=16, K=9, delta=F(1, 2), bits=53)
    assert build.norms.passed and build.norms.sup_td() < F(1, 4)
    assert build.rho == F(1, 4) / 2 ** build.halvings
    assert [r.power for r in build.norms.rows][-1] == 2 ** 45
    assert sorted(computed) == [SEQ.term(k) for k in range(10)]


def _cold_power_norm(op, n):
    # a fresh operator and an empty enclosure cache
    precision._cis_ends.cache_clear()
    return power_norm(DiagShiftOperator(op.dimension, op.diag, op.weights), n)


def test_power_norm_ladder_ignores_call_order_and_aliasing():
    # no state passes from one power_norm call to the next but the
    # enclosure caches, so warm and cold calls agree
    diag = _angles((1, 3), (1, 5), (1, 7), (2, 11))
    a = DiagShiftOperator(4, diag, build_shift_weights(4, F(1, 64)))
    b = DiagShiftOperator(4, diag, build_shift_weights(4, F(1, 128)))
    calls = [(a, 8), (a, 2), (b, 8), (a, 8), (a, 1), (a, 24), (b, 2 ** 10),
             (a, 2 ** 10), (a, 2 ** 10 + 3)]
    warm = [power_norm(op, n) for op, n in calls]
    assert warm == [_cold_power_norm(op, n) for op, n in calls]


def _unit(theta: F):
    return mp.expjpi(2 * mp.mpf(theta.numerator) / theta.denominator)


def _reference_norms(op: DiagShiftOperator, n: int, prec: int = 300):
    """||T^n - I|| and ||T^n - D^n|| from a plain mpmath computation at
    ``prec`` bits plus two per bit of n (powering loses about log2 n),
    as rationals; D^n comes from the exact residues.  When every residue
    n theta_j is 0, T^n = I exactly (T has distinct eigenvalues, all n-th
    roots of unity), and both norms are the exact 0 that the rounding of
    the plain computation would miss."""
    if all(precision.residue(a.exact, n) == 0 for a in op.diag):
        return [F(0), F(0)]
    with mp.workprec(prec + 2 * n.bit_length()):
        N = op.dimension
        T = mp.matrix(N, N)
        for j, a in enumerate(op.diag):
            T[j, j] = _unit(a.exact)
        for i, w in enumerate(op.weights):
            T[i, i + 1] = mp.mpf(w.numerator) / w.denominator
        P = T ** n
        D = mp.diag([_unit(precision.residue(a.exact, n)) for a in op.diag])
        out = []
        for M in (P - mp.eye(N), P - D):
            man, exp = max(mp.svd_c(M, compute_uv=False)).man_exp
            out.append(man * F(2) ** exp)
        return out


@pytest.mark.parametrize("angles, weights, n", [
    (((1, 7), (6, 7)), [F(1, 2)], 2),
    (((2, 7), (5, 7)), [F(1, 3)], 3),
    (((3, 7), (4, 7)), [F(1, 2)], 3),
    (((1, 3), (1, 5), (1, 7), (2, 11)), [F(1, 4), F(1, 16), F(1, 64)], 5),
])
def test_power_norm_contains_true_norms_at_96_bits(angles, weights, n):
    op = DiagShiftOperator(len(angles), _angles(*angles), weights)
    res = power_norm(op, n, bits=96)
    ti, td = _reference_norms(op, n)
    assert res.norm_ti.lo <= ti <= res.norm_ti.hi
    assert res.norm_td.lo <= td <= res.norm_td.hi
    # one diagonal entry, as a ball in 2^-96 units
    theta = op.diag[0].exact
    with working_bits(max(get_bits(), 96 + 32)):
        re, im, rad = precision.ball_of_cis(cis_ends(theta), 96)
    with mp.workprec(300):
        true = mp.expjpi(2 * mp.mpf(theta.numerator) / theta.denominator)
        assert abs(mpc(re, im) / 2 ** 96 - true) <= mp.mpf(rad) / 2 ** 96


def _bits_radius(op: DiagShiftOperator, n: int, bits: int) -> int:
    """The largest radius, in 2^-bits units, of the balls of T^n - I that
    power_norm assembles its ends from."""
    _, [row] = linsys._tables([a.exact for a in op.diag], op.weights, [n], bits)
    balls = linsys._minus_one(row, bits) + [
        precision.ball_shift(b, linsys._GUARD) for sd in row[1:] for b in sd]
    return max(b[2] for b in balls)


def test_power_norm_random_operators_contain_true_norms():
    # random bidiagonal operators against the 300-bit reference, at the
    # minimum precision and above it.  The lower end, the largest column
    # 2-norm of the lower moduli L, is at least ||L||_F / sqrt(N) less one
    # unit; the upper end is at most ||U||_F plus one unit, and each entry
    # of U - L is at most 2 R + 3 units for the largest radius R, so
    # lo sqrt(N) >= hi - N (2 R + 4) units - sqrt(N) units: not vacuous
    rng = random.Random(20261018)
    for _ in range(40):
        N = rng.randrange(2, 6)
        thetas = set()
        while len(thetas) < N:
            q = rng.randrange(2, 2 ** 20 + 8)
            thetas.add(F(rng.randrange(1, q), q))
        weights = [F(rng.randrange(1, 2 ** 8), 2 ** rng.randrange(0, 30))
                   for _ in range(N - 1)]
        op = DiagShiftOperator(N, [AngleTurns.of(t) for t in sorted(thetas)],
                               weights)
        n = rng.randrange(1, 2 ** 12 + 2)
        ti, td = _reference_norms(op, n)
        root = math.isqrt(N - 1) + 1          # >= sqrt(N)
        for bits in (53, 96):
            res = power_norm(op, n, bits=bits)
            assert res.norm_ti.lo <= ti <= res.norm_ti.hi, (op, n, bits)
            assert res.norm_td.lo <= td <= res.norm_td.hi, (op, n, bits)
            slack = F(N * (2 * _bits_radius(op, n, bits) + 4) + root, 1 << bits)
            for b in (res.norm_ti, res.norm_td):
                assert b.hi > slack and root * b.lo >= b.hi - slack, (op, n, bits)


@pytest.mark.parametrize("N", [3, 4])
def test_build_rows_contain_true_norms_at_horizon_9(N):
    # rows computed at rho = 1/4 and shifted through 23 (N = 3) and 25
    # (N = 4) halvings, against the reference at the final rho; the rows
    # carry upper ends only, so the lower ends are power_norm's for the
    # same operator and powers, at 96 bits
    build = build_operator(SEQ, N=N, K=9, delta=F(1, 2), bits=53)
    assert build.norms.passed and build.halvings >= 23
    for row in build.norms.rows:
        ti, td = _reference_norms(build.operator, row.power)
        assert ti <= row.norm_ti.hi and td <= row.norm_td.hi, row
        res = power_norm(build.operator, row.power, bits=96)
        assert res.norm_ti.lo <= ti <= res.norm_ti.hi, row
        assert res.norm_td.lo <= td <= res.norm_td.hi, row


def test_rescale_encloses_every_point_of_the_disks():
    # a halving shifts entry (i, i + d) of a table by d more bits, and
    # power_norm shifts every entry to 2^-bits units: a point z of a ball
    # moves to z 2^-s.  Boundary points of balls whose centres have zero or
    # nonzero low bits test the floor of the centre, the ceiling of the
    # radius and the unit added for each part that lost bits.
    rng = random.Random(20261019)
    directions = [(1, 0), (-1, 0), (0, 1), (0, -1), (F(3, 5), F(4, 5)),
                  (F(-4, 5), F(-3, 5))]
    for _ in range(3000):
        s, low = rng.randrange(0, 60), rng.choice([0, 48])
        re = rng.randrange(-2 ** 40, 2 ** 40) << low
        im = rng.randrange(-2 ** 40, 2 ** 40) << low
        rad = rng.choice([0, 1, rng.randrange(2 ** 50)])
        cx, cy = rng.choice(directions)
        Re, Im, Rad = precision.ball_shift((re, im, rad), s)
        dx = (re + rad * cx) / F(2 ** s) - Re
        dy = (im + rad * cy) / F(2 ** s) - Im
        assert dx * dx + dy * dy <= Rad ** 2, (re, im, rad, s)


def _build_uppers(op: DiagShiftOperator, n: int, bits: int, h: int):
    """The norm_TI and norm_TD upper ends of T^n at the weights of op over
    2^h, as build_operator assembles them: from op's table, shifted."""
    _, [row] = linsys._tables([a.exact for a in op.diag], op.weights, [n], bits)
    U = linsys._uppers(row, h)
    td = linsys._norm_upper(U)
    U[0] = [precision.ball_upper(b) for b in linsys._minus_one(row, bits)]
    return F(linsys._norm_upper(U), 1 << bits), F(td, 1 << bits)


def test_rescaled_power_contains_true_norms():
    # a table computed at the weights w and shifted by h halvings, against
    # the reference at w / 2^h, and no looser than computing it there
    rng = random.Random(20261020)
    for _ in range(40):
        N = rng.randrange(2, 6)
        thetas = set()
        while len(thetas) < N:
            q = rng.randrange(2, 2 ** 20 + 8)
            thetas.add(F(rng.randrange(1, q), q))
        diag = [AngleTurns.of(t) for t in sorted(thetas)]
        weights = [F(rng.randrange(1, 2 ** 8), 2 ** rng.randrange(0, 30))
                   for _ in range(N - 1)]
        h, n = rng.randrange(1, 24), rng.randrange(1, 2 ** 12 + 2)
        bits = rng.choice((53, 96))
        op = DiagShiftOperator(N, diag, weights)
        small = DiagShiftOperator(N, diag, [w / 2 ** h for w in weights])
        ti, td = _build_uppers(op, n, bits, h)
        ti_ref, td_ref = _reference_norms(small, n)
        assert ti_ref <= ti and td_ref <= td, (small, n, bits)
        direct = power_norm(small, n, bits=bits)
        unit = F(1, 2 ** bits)
        assert ti <= direct.norm_ti.hi + N * unit
        assert td <= direct.norm_td.hi + N * unit


def test_chord_upper_from_cos_sin_encloses_the_chord():
    # the chord end of a diagonal entry comes from its ball, made from the
    # cos/sin enclosure 32 bits finer: never below the true chord, and at
    # most six units above the end taken from a chord enclosure at the same
    # precision (the floored centre, the units its parts lose, the ceiled
    # radius and the ceiled modulus)
    rng = random.Random(20261021)
    specials = [F(0), F(1, 2), F(1, 3), F(1, 4), F(1, 6), F(5, 6), F(3, 4)]
    for bits in (53, 96, 256):
        residues = specials + [F(rng.randrange(1, q), q)
                               for q in (rng.randrange(2, 2 ** 40) for _ in range(200))]
        P = bits + linsys._GUARD
        with working_bits(P):
            balls = [precision.ball_of_cis(cis_ends(r), P) for r in residues]
            his = [chord(r).hi for r in residues]
        ends = [precision.ball_upper(b) for b in linsys._minus_one([balls], bits)]
        with mp.workprec(300):
            for r, end, hi in zip(residues, ends, his):
                true = abs(mp.expjpi(2 * mp.mpf(r.numerator) / r.denominator) - 1)
                assert end >= true * 2 ** bits, (r, bits)
                assert end <= math.ceil(hi * 2 ** bits) + 6, (r, bits)


# ---------------------------------------------------------------------------
# integer units against the Fraction route they replaced, and the squaring
# ladder, kept as the independent cross-check of the table
# ---------------------------------------------------------------------------

def _old_fixed(b: Bound, bits: int) -> tuple[int, int]:
    """Reference: midpoint and radius through Fraction floor and ceiling."""
    lo, hi = math.floor(b.lo * 2 ** bits), math.ceil(b.hi * 2 ** bits)
    mid = (lo + hi) >> 1
    return mid, hi - mid


def _old_unit_entry(cos: Bound, sin: Bound, bits: int) -> tuple[int, int, int]:
    """Reference: the unit-circle entry from cos and sin Bounds."""
    re, re_rad = _old_fixed(cos, bits)
    im, im_rad = _old_fixed(sin, bits)
    return re, im, re_rad + im_rad


def test_integer_units_match_the_fraction_route():
    rng = random.Random(20261022)
    specials = [F(p, q) for q in (1, 2, 3, 4, 6) for p in range(q)]
    for bits in (53, 85, 96, 128, 256, 400):
        residues = specials + [F(1, 2) + F(s, 2 ** 70) for s in (-1, 1)] + [
            F(1, 2 ** 90), F(2 ** 90 - 1, 2 ** 90)] + [
            F(rng.randrange(1, q), q) for q in (rng.randrange(2, 2 ** 64) for _ in range(60))]
        for work in (bits + 32, bits, max(8, bits - 40)):
            with working_bits(work):
                for r in residues:
                    cos, sin = cos_turns(r), sin_turns(r)
                    got = precision.ball_of_cis(cis_ends(r), bits)
                    assert got == _old_unit_entry(cos, sin, bits)


def _old_abs_upper(re, im):
    """Reference: the elementwise ceiled modulus, one lambda per entry."""
    f = np.frompyfunc(lambda a, b: precision.ceil_sqrt(a * a + b * b), 2, 1)
    return f(re, im)


def _ladder_mm(A, B, bits: int):
    """The disks of A B for disks A and B in 2^-bits units: four
    full-matrix real products, |A| and |B| taken apart."""
    (ar, ai, arad), (br, bi, brad) = A, B
    re = ar @ br - ai @ bi
    im = ar @ bi + ai @ br
    rad = _old_abs_upper(ar, ai) @ brad + arad @ (_old_abs_upper(br, bi) + brad)
    low = (1 << bits) - 1
    lost = ((re & low) != 0).astype(object) + ((im & low) != 0).astype(object)
    return re >> bits, im >> bits, -(-rad >> bits) + lost


def _ladder_power(op: DiagShiftOperator, n: int, bits: int):
    """The disks of T^n in 2^-bits units by the squaring ladder: binary
    powering of midpoint-radius matrices, with the diagonal replaced by the
    enclosure of the exact lambda_j^n."""
    N = op.dimension
    re, im, rad = (np.zeros((N, N), dtype=object) for _ in range(3))
    with working_bits(bits + 32):
        for j, a in enumerate(op.diag):
            re[j, j], im[j, j], rad[j, j] = _old_unit_entry(
                cos_turns(a.exact), sin_turns(a.exact), bits)
        for i, w in enumerate(op.weights):
            re[i, i + 1], rad[i, i + 1] = _old_fixed(Bound.exact(w), bits)
        T, P, e = (re, im, rad), None, n
        while e:
            if e & 1:
                P = T if P is None else _ladder_mm(P, T, bits)
            e >>= 1
            if e:
                T = _ladder_mm(T, T, bits)
        for j, a in enumerate(op.diag):
            r = precision.residue(a.exact, n)
            P[0][j, j], P[1][j, j], P[2][j, j] = _old_unit_entry(
                cos_turns(r), sin_turns(r), bits)
    return P


def test_table_and_ladder_enclosures_intersect():
    # both routes enclose the exact entries of T^n, so every ball of the
    # table meets the ladder's disk of the same entry
    rng = random.Random(20261023)
    for _ in range(40):
        N = rng.randrange(2, 6)
        thetas = set()
        while len(thetas) < N:
            q = rng.randrange(2, 2 ** 20 + 8)
            thetas.add(F(rng.randrange(1, q), q))
        thetas = sorted(thetas)
        weights = [F(rng.randrange(1, 2 ** 8), 2 ** rng.randrange(0, 30))
                   for _ in range(N - 1)]
        n, bits = rng.randrange(1, 2 ** 10), rng.choice((53, 96))
        op = DiagShiftOperator(N, [AngleTurns.of(t) for t in thetas], weights)
        Re, Im, Rad = _ladder_power(op, n, bits)
        _, [row] = linsys._tables(thetas, weights, [n], bits)
        for d, sd in enumerate(row):
            for i, b in enumerate(sd):
                re, im, rad = precision.ball_shift(b, linsys._GUARD)
                dx, dy = re - Re[i, i + d], im - Im[i, i + d]
                assert dx * dx + dy * dy <= (rad + Rad[i, i + d]) ** 2, (op, n, i, d)


@pytest.mark.parametrize("N", [2, 3, 5, 8, 16])
def test_table_upper_ends_match_a_high_precision_reference(N):
    # every upper end the norms are assembled from, entry (i, j) of T^n - I
    # in 2^-bits units, against a plain mpmath power: never below the true
    # modulus, and at most 6 units above it.  The chain operators have the
    # close eigenvalues (gaps down to about 1/n_m) that the working
    # precision must absorb.
    seq = triangular_pow2(14)
    chain = build_diag_chain(seq, N, [F(1, 2 ** (n + 2)) for n in range(2, N + 1)])
    op = chain.to_operator(build_shift_weights(N, F(1, 4)))
    for n, bits in ((1, 53), (8, 96), (1024, 53)):
        _, [row] = linsys._tables(chain.angles, op.weights, [n], bits)
        balls = [linsys._minus_one(row, bits)] + [
            [precision.ball_shift(b, linsys._GUARD) for b in sd] for sd in row[1:]]
        with mp.workprec(300 + 2 * n.bit_length()):
            T = mp.matrix(N, N)
            for j, a in enumerate(op.diag):
                T[j, j] = _unit(a.exact)
            for i, w in enumerate(op.weights):
                T[i, i + 1] = mp.mpf(w.numerator) / w.denominator
            M = T ** n - mp.eye(N)
            for d, sd in enumerate(balls):
                for i, b in enumerate(sd):
                    true = abs(M[i, i + d]) * 2 ** bits
                    up = precision.ball_upper(b)
                    assert true <= up <= true + 6, (N, n, bits, i, d)


def test_rows_past_the_chain_horizon_are_exactly_zero():
    # every chain angle's denominator divides n_H for H = DiagChain.horizon,
    # so D^(n_k) = I for k >= H, and T, whose eigenvalues are distinct, has
    # T^(n_k) = I: every divided difference vanishes, and so do both norms
    N = 4
    chain = build_diag_chain(SEQ, N, [F(1, 2 ** (n + 2)) for n in range(2, N + 1)])
    H = chain.horizon
    op = chain.to_operator(build_shift_weights(N, F(1, 4)))
    for k in range(H, H + 3):
        res = power_norm(op, SEQ.term(k), bits=53)
        assert res.norm_ti == res.norm_td == Bound.exact(0)
    assert power_norm(op, SEQ.term(H - 1), bits=53).norm_ti.hi > 0
    build = build_operator(SEQ, N=N, K=H + 1, delta=F(1, 2), bits=53)
    assert build.norms.passed
    for row in build.norms.rows[H:]:
        assert row.norm_ti.hi == row.norm_td.hi == 0


def test_abs_upper_matches_the_lambda():
    # the upper end of a ball's modulus is the ceiled modulus of its centre
    # plus the radius; _abs_hi and _abs_lo, which the products and
    # reciprocals take from the top 30 bits, bracket the modulus within a
    # factor 1 + 2^-27
    rng = random.Random(20261024)
    for _ in range(300):
        size = rng.choice((10, 40, 300))
        re, im = rng.randrange(-2 ** size, 2 ** size), rng.randrange(-2 ** size, 2 ** size)
        exact = _old_abs_upper(np.array([re], dtype=object), np.array([im], dtype=object))[0]
        rad = rng.randrange(2 ** 20)
        assert precision.ball_upper((re, im, rad)) == exact + rad
        hi, lo = precision._abs_hi(re, im), precision._abs_lo(re, im)
        assert lo * lo <= re * re + im * im <= hi * hi
        assert hi <= exact + (exact >> 27) + 1 and lo >= exact - (exact >> 27) - 1
    # zero, perfect squares (3-4-5 triangles) and their neighbours
    for re, im, want in [(0, 0, 0), (3, 4, 5), (-3 * 2 ** 200, 4 * 2 ** 200, 5 * 2 ** 200),
                         (1, 0, 1), (0, -7, 7), (2 ** 100 + 1, 0, 2 ** 100 + 1),
                         (4, 4, 6)]:
        assert precision.ball_upper((re, im, 0)) == want
        assert precision._abs_hi(re, im) >= want


@pytest.mark.parametrize("N, K, delta, bits", [
    (8, 4, DELTA, 53), (16, 5, F(1, 2), 53), (16, 9, F(1, 2), 53),
    (6, 5, F(1, 2), 96)])
def test_build_operator_rescales_only_rows_it_reads(monkeypatch, N, K, delta, bits):
    # a halving shifts only the rows whose norm_TD it assembles, none
    # before the first halving that no row certainly fails, and each row
    # once at the passing halving
    shifts = []
    uppers = linsys._uppers

    def counted(row, h):
        shifts.append(h)
        return uppers(row, h)

    monkeypatch.setattr(linsys, "_uppers", counted)
    build = build_operator(SEQ, N=N, K=K, delta=delta, bits=bits)
    assert build.norms.passed
    assert 0 < len(shifts) <= build.halvings + K + 1
    assert 0 not in shifts
    assert shifts.count(build.halvings) == K + 1


def test_td_floor_is_below_every_rescaled_td_upper():
    # build_operator fails a halving without assembling its norm_TD when
    # the largest superdiagonal centre part, shifted by h d, already
    # reaches delta/2: a shifted centre keeps at least that, and the
    # assembled upper end is at least the largest entry of its matrix
    rng = random.Random(20261026)
    for _ in range(400):
        N, h = rng.randrange(2, 9), rng.randrange(0, 41)
        row = [[(1, 0, 0)] * N]
        for d in range(1, N):
            sd = []
            for _ in range(N - d):
                size = rng.randrange(1, 90)
                # odd centres: nonzero low bits, which the floor rounds
                sd.append((rng.randrange(-2 ** size, 2 ** size) | 1,
                           rng.randrange(-2 ** size, 2 ** size) | 1,
                           rng.choice([0, 1, rng.randrange(2 ** size)])))
            row.append(sd)
        peaks = linsys._peaks(row)
        assert peaks == [max(abs(x) for b in sd for x in b[:2]) >> linsys._GUARD
                         for sd in row[1:]]
        floor = linsys._td_floor(peaks, h)
        assert floor <= linsys._norm_upper(linsys._uppers(row, h))
        assert floor == max(m >> (h * d) for d, m in enumerate(peaks, 1))


def test_build_operator_assembles_only_the_upper_ends(monkeypatch):
    # the certificates read upper ends alone, so the build makes no
    # lower end; the halvings that certainly fail assemble no
    # norm_TD, which leaves the passing one (K + 1 rows) and at most one
    # failing halving whose deepest row the shortcut cannot rule out
    calls = {"_uppers": 0, "_column_lower": 0}
    for name in calls:
        def counted(*args, _f=getattr(linsys, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(linsys, name, counted)
    K = 4
    build = build_operator(SEQ, N=16, K=K, delta=F(1, 2), bits=53)
    assert build.norms.passed
    assert calls["_uppers"] <= K + 2
    assert all(r.norm_ti.lo == r.norm_td.lo == 0 for r in build.norms.rows)
    assert calls["_column_lower"] == 0
    # a lower end is power_norm's, for the same operator and power
    row = build.norms.rows[-1]
    res = power_norm(build.operator, row.power, bits=53)
    assert calls["_column_lower"] == 2
    assert 0 < res.norm_ti.lo <= res.norm_ti.hi and res.norm_td.lo <= res.norm_td.hi


def test_entries_left_out_hold_the_true_entries_in_their_cap_balls():
    # on chain operators at small weight scales, superdiagonal d of
    # T^(2^15) computes a prefix alone: every entry past it is the ball of
    # its cap binomial(n, d) s_d[i] about 0, which holds the true entry
    # and is below 2^-(bits + 8), and the norm upper ends still hold the
    # true norms
    rng = random.Random(20261027)
    N, n, bits = 12, 2 ** 15, 53
    for _ in range(3):
        seq = gen_divisibility(1, [rng.randrange(2, 2 ** 20) for _ in range(40)], 41)
        chain = build_diag_chain(seq, N, [F(1, 2 ** (m + 2)) for m in range(2, N + 1)])
        op = chain.to_operator(
            build_shift_weights(N, F(1, 4) / 2 ** rng.randrange(8, 17)))
        spans = linsys._spans(linsys._scales(op.weights), n, bits)
        assert any(0 < L < N - d for d, L in enumerate(spans))
        _, [row] = linsys._tables(chain.angles, op.weights, [n], bits)
        with mp.workprec(300 + 2 * n.bit_length()):
            T = mp.matrix(N, N)
            for j, a in enumerate(op.diag):
                T[j, j] = _unit(a.exact)
            for i, w in enumerate(op.weights):
                T[i, i + 1] = mp.mpf(w.numerator) / w.denominator
            M = T ** n
            for d, sd in enumerate(row[1:], 1):
                for i in range(spans[d], N - d):
                    re, im, rad = sd[i]
                    assert re == im == 0 and rad <= 1 << (linsys._GUARD - 8)
                    assert abs(M[i, i + d]) * 2 ** (bits + linsys._GUARD) <= rad, (d, i)
        ti, td = _reference_norms(op, n)
        res = power_norm(op, n, bits=bits)
        assert ti <= res.norm_ti.hi and td <= res.norm_td.hi


def test_dimension_96_at_horizon_9_certifies(tmp_path):
    # the working precision counts the computed entries alone: 2,987 bits
    # here, against 15,184 when every entry of the band was computed
    from recurlab import cli
    config = {"schema": "recurlab/1", "kind": "linsys", "bits": 128,
              "params": {"seq": {"name": "triangular-pow2", "count": 14},
                         "dimension": 96, "horizon": 9, "delta": "1/2"}}
    report = cli.run(cli.ExperimentConfig.from_dict(config), tmp_path)
    [cert] = report["certificates"]
    assert report["passed"] and cert["kind"] == "power-norms"
    assert 128 + linsys._GUARD < cert["params"]["working_bits"] <= 3000


# sha256 of report.json without its "out" key, and of norms.csv, for
# triangular-pow2 linsys configs at delta 1/2, as the build wrote them
# once the table of divided differences replaced the squaring ladder; the
# first report records working_bits 608 (655 before the table left out the
# entries below their Hermite-Genocchi caps)
LINSYS_GOLDEN = {
    (16, 5, 53, 14): ("1346497c324fc727569693fc677d7445e8ab66410f34a28ba87a77cb2bd9fd79",
                      "4cc24a6dbd7142ec172ae68bc9c54e2c0b0a8f5335740dfc3ef40eff6d91d9de"),
    (16, 9, 53, 14): ("9c2d07ab0aa5090056a4b77f132269d3cf82f33559e9cbf63d5cd3da711f7cd2",
                      "fd6d51dc51e208fd2a0222e794e94b8a6e32665b2db932e55dc2ff1027e87082"),
    (8, 6, 96, 14): ("977ee6c4e177186837e18b0e1655eb950f5805419f386be6efad697084c9adb5",
                     "f5b0d21bfd0b4571e7235dfdee6aceee999ddb088694651d18169f4b12a1fe15"),
    (16, 20, 256, 21): ("82591a68be182547bf87912957263f2d7d20c284622d061e3994281a548944dc",
                        "126c1dbfcc5a876c8ba5a5c69021671bc67fb5ffd22496695a8ecf83de005d53"),
}


@pytest.mark.parametrize("shape", sorted(LINSYS_GOLDEN))
def test_linsys_reports_match_golden_digests(tmp_path, shape):
    from recurlab import cli
    from recurlab.certificates import dump_json
    N, K, bits, count = shape
    config = {"schema": "recurlab/1", "kind": "linsys", "bits": bits,
              "params": {"seq": {"name": "triangular-pow2", "count": count},
                         "dimension": N, "horizon": K, "delta": "1/2"}}
    report = cli.run(cli.ExperimentConfig.from_dict(config), tmp_path)
    del report["config"]["out"]
    digests = (hashlib.sha256(dump_json(report).encode()).hexdigest(),
               hashlib.sha256((tmp_path / "norms.csv").read_bytes()).hexdigest())
    assert digests == LINSYS_GOLDEN[shape]


def _norms_with_sup(c: F) -> NormCertificate:
    row = NormRow(0, 1, Bound(F(0), c), Bound.exact(0), 53)
    return NormCertificate("toy", F(1), [row], 1)


def test_ball_certificate_values():
    s3 = Bound.exact(3).sqrt()
    free = ball_certificate(s3, _norms_with_sup(F(0)))
    assert free.gamma_max == s3.lo / (2 + s3.lo)
    assert abs(float(free.gamma_max) - 0.4641016151377546) < 1e-12
    half = ball_certificate(s3, _norms_with_sup(s3.lo / 2))
    assert abs(float(half.gamma_max) - 0.18834516088404463) < 1e-12

    def margin(g):      # delta (1 - g) - c (1 + g) - 2 g, zero at gamma_max
        return half.delta.lo * (1 - g) - half.c * (1 + g) - 2 * g
    assert margin(half.gamma_max) == 0
    assert margin(half.gamma_max * F(9, 10)) > 0
    assert margin(half.gamma_max * F(11, 10)) < 0
    assert half.to_certificate().kind == "ball-disjoint"


def test_ball_certificate_needs_headroom():
    assert ball_certificate(F(1, 2), _norms_with_sup(F(1, 2))) is None
    assert ball_certificate(F(1, 4), _norms_with_sup(F(1, 2))) is None


def test_telescope_gap_dominates_matrix_route():
    assert telescope_gap(F(0), 10 ** 30) == 0
    assert telescope_gap(F(1, 2), 2) is None       # n*b = 1: vacuous
    assert telescope_gap(F(1, 8), 4) == F(1, 1)    # 1/2 / (1 - 1/2)
    with pytest.raises(ValueError, match=">= 0"):
        telescope_gap(F(-1, 4), 3)
    # the bound really covers ||T^n - D^n|| on a small built operator
    seq = gen_divisibility(1, lambda k: 2 ** (k + 1), 6)
    chain = build_diag_chain(seq, 6, [F(1, 2 ** (i + 3)) for i in range(5)])
    rho = F(1, 1024)
    op = chain.to_operator(build_shift_weights(6, rho))
    for n in (3, 12, 64):
        gap = telescope_gap(max(op.weights), n)
        assert power_norm(op, n).norm_td.lo <= gap


def test_ball_mc_check(built):
    wit = verify_witness(F(1, 3), SEQ, 4, target=F(1))
    assert wit.meets_target
    cert = ball_certificate(wit.delta, built.norms)
    rep = ball_mc_check(built.operator, F(1, 3), SEQ, K=4,
                        gamma=cert.gamma_max * F(9, 10), samples=400, seed=7)
    assert rep.passed and rep.min_margin > 0.3
    assert rep.threshold == 2 * rep.gamma
    with pytest.raises(ValueError, match="gamma"):
        ball_mc_check(built.operator, F(1, 3), SEQ, K=1, gamma=F(3, 2))


def test_ball_points_are_seeded_and_uniform_in_the_ball():
    N, samples, g = 3, 40000, 0.5
    u = linsys._ball_points(11, samples, N, g)
    assert np.array_equal(u, linsys._ball_points(11, samples, N, g))
    assert not np.array_equal(u[:10], linsys._ball_points(12, 10, N, g))
    r = np.linalg.norm(u, axis=1)
    assert r.max() <= g
    # uniform in the ball of real dimension 2N: P(|u| < g t) = t^(2N),
    # and every real coordinate has mean 0 and variance g^2 / (2N + 2)
    for t in (0.5, 0.8, 0.95):
        p = t ** (2 * N)
        assert abs(np.mean(r < g * t) - p) < 5 * math.sqrt(p * (1 - p) / samples)
    coords = np.concatenate([u.real, u.imag], axis=1)
    var = g ** 2 / (2 * N + 2)
    assert np.all(np.abs(coords.mean(axis=0)) < 5 * math.sqrt(var / samples))
    assert np.all(np.abs(coords.var(axis=0) / var - 1) < 0.05)


def test_rotation_split_identity(built):
    # S^n u - u = lam0^n (T^n u - u) + (lam0^n - 1) u, machine exact
    T = built.operator.dense_float()
    n = SEQ.term(3)
    ph = complex(math.cos(2 * math.pi * float(F(n, 3) % 1)),
                 math.sin(2 * math.pi * float(F(n, 3) % 1)))
    Tn = np.linalg.matrix_power(T, n)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    lhs = ph * (Tn @ u) - u
    rhs = ph * (Tn @ u - u) + (ph - 1) * u
    assert float(np.max(np.abs(lhs - rhs))) < 1e-14


def test_operator_json(built):
    blob = built.operator.to_json_dict()
    assert blob["dimension"] == 8
    assert blob["diag"][0] == "0/1" and all("/" in s for s in blob["diag"])
    assert blob["j_map"]["2"] == 1
    assert len(blob["weights"]) == 7


def test_kalish_guards():
    with pytest.raises(ValueError, match="2\\^8"):
        kalish_eigencheck(F(1, 3), 128)


def test_kalish_unit_eigenvalue_closed_form():
    res = kalish_eigencheck(F(0), 2 ** 12)
    assert res.max_residual == 0.0 and res.method == "closed-form"


def test_kalish_quadrature_residual():
    res = kalish_eigencheck(F(3, 10), 2 ** 12)
    assert res.method == "quadrature" and res.passed
    # the tolerance is ten cells of arc, 10 * 2 pi / grid
    assert res.max_residual <= 10 * 2 * math.pi / 2 ** 12
    assert res.max_residual < 2e-3


@pytest.mark.parametrize("theta", [F(3, 10), F(9, 13)])
def test_kalish_residual_halves_on_grid_doubling(theta):
    coarse = kalish_eigencheck(theta, 2 ** 12).max_residual
    fine = kalish_eigencheck(theta, 2 ** 13).max_residual
    assert 1.8 < coarse / fine < 2.2
