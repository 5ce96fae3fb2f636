"""Sequence generators, Euclidean decompositions, and the two-sided splitter."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from recurlab.seqcore import (
    IntegerSequence, Pow2, decompose_pk_rk, fact42_split, gen_divisibility,
    gen_recursive_q, naturals, triangular_pow2,
)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_triangular_pow2_closed_form():
    seq = triangular_pow2(6)
    assert seq.prefix(6) == [1, 2, 8, 64, 1024, 32768]
    # independent oracle: n_k = 2^(k(k+1)/2)
    for k in range(13):
        assert seq.term(k) == 2 ** (k * (k + 1) // 2)
    assert seq.divisibility


def test_divisibility_rejects_small_ratios():
    with pytest.raises(ValueError, match="ratio"):
        gen_divisibility(1, [2, 1, 2], 4)


def test_short_ratio_and_multiplier_lists_name_the_length_they_need():
    with pytest.raises(ValueError, match=r"ratios has 2 entries; count 4 needs at least 3"):
        gen_divisibility(2, [2, 2], 4)
    with pytest.raises(ValueError, match=r"q has 1 entries; count 3 needs at least 2"):
        gen_recursive_q([1], 3)
    assert gen_divisibility(2, [3, 5], 3).prefix(3) == [2, 6, 30]
    assert gen_recursive_q([2], 2).prefix(2) == [1, 3]


def test_divisibility_flag_checked():
    with pytest.raises(ValueError, match="divisibility"):
        IntegerSequence([2, 3], divisibility=True)


def test_recursive_q_mixed_multipliers():
    seq = gen_recursive_q((2, 3, 4), 4)
    assert seq.prefix(4) == [1, 3, 10, 41]
    assert not seq.divisibility


def test_recursive_q_constant_three():
    seq = gen_recursive_q(3, 4)
    assert seq.prefix(4) == [1, 4, 13, 40]
    # closed form for q=3 from n_0=1: n_k = (3^(k+1) - 1)/2
    for k in range(8):
        assert seq.term(k) == (3 ** (k + 1) - 1) // 2


def test_lazy_extension_and_roundtrip():
    seq = triangular_pow2(3)
    assert seq.term(12) == 2 ** 78
    assert seq.prefix(14) == triangular_pow2(14).prefix(14)
    assert seq.term(13) == 2 ** 91
    assert seq.divisibility


def test_naturals():
    assert naturals(5).prefix(5) == [1, 2, 3, 4, 5]


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decompose_chacon_schedule():
    seq = gen_recursive_q(3, 5)
    # at k=0 the Euclidean choice against n_0 = 1 is (4, 0): r < n_k forces r = 0
    d0 = decompose_pk_rk(seq, 0)
    assert (d0.p, d0.r) == (4, 0)
    # from k=1 on the affine structure n_{k+1} = 3 n_k + 1 is Euclidean
    d1 = decompose_pk_rk(seq, 1)
    assert (d1.k, d1.p, d1.r) == (1, 3, 1)     # 13 = 3 * 4 + 1
    d2 = decompose_pk_rk(seq, 2)
    assert (d2.p, d2.r) == (3, 1)


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=8))
def test_decompose_identity_random(steps):
    # build a strictly increasing sequence by cumulative growth
    terms = [1]
    for s in steps:
        terms.append(terms[-1] * 2 + s)
    seq = IntegerSequence(terms)
    for k in range(len(terms) - 1):
        d = decompose_pk_rk(seq, k)
        assert d.p * terms[k] + d.r == terms[k + 1]
        assert 0 <= d.r < terms[k]


# ---------------------------------------------------------------------------
# two-sided splitter
# ---------------------------------------------------------------------------

def test_split_single_block_seeds():
    out = fact42_split(1)
    blk = out.blocks[0]
    assert (blk.start, blk.end) == (1, 1)
    assert blk.a == Pow2(-1) and blk.b == Pow2(-3)
    assert blk.side == "B"


def test_split_two_blocks_frozen():
    out = fact42_split(2)
    blk = out.blocks[1]
    # shortest block with b-sum >= 1/2 at b = 1/8 has 4 indices: 2..5
    assert (blk.start, blk.end) == (2, 5)
    assert blk.b == Pow2(-3)
    # largest a with 4 * a^(1/3) <= 2^-2 is (2^-4)^3 = 1/4096
    assert blk.a == Pow2(-12)
    assert blk.side == "A"


def test_split_early_blocks_frozen():
    out = fact42_split(5)
    b3, b4, b5 = out.blocks[2], out.blocks[3], out.blocks[4]
    assert (b3.start, b3.end) == (6, 2053)       # length 2^11
    assert b3.a.log2 == -12 and b3.b.log2 == -42
    assert b4.length_log2 == 41
    assert b4.a.log2 == -135 and b4.b.log2 == -42
    assert b5.length_log2 == 134
    assert b5.a.log2 == -135 and b5.b.log2 == -417


def test_split_twenty_blocks_fast_and_valid():
    t0 = time.perf_counter()
    out = fact42_split(20)
    checks = out.check_all()
    elapsed = time.perf_counter() - t0
    assert all(checks.values()), checks
    assert elapsed < 1.0


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=1, max_value=50))
def test_split_invariants_any_depth(n):
    out = fact42_split(n)
    assert all(out.check_all().values())
    assert len(out.blocks) == n


def test_split_index_lookup():
    out = fact42_split(4)
    assert out.side_indices("A", 12) == [2, 3, 4, 5]
    assert out.side_indices("B", 8) == [1, 6, 7, 8]


def test_pow2_ordering():
    assert Pow2(-3) < Pow2(-1)
    assert min(Pow2(-1), Pow2(-12)) == Pow2(-12)
    assert Pow2(-2) * Pow2(-4) == Pow2(-6)
