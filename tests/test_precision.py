"""The working-precision context and the exact residue helper."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from recurlab import precision
from recurlab.precision import (chord, cos_turns, get_bits, residue, sin_turns,
                                working_bits)

huge = st.integers(min_value=2 ** 200, max_value=2 ** 400)


@given(st.fractions(max_denominator=10 ** 6),
       st.one_of(st.integers(-10 ** 6, 10 ** 6), huge, huge.map(lambda n: -n)))
def test_residue_is_n_theta_mod_1(theta, n):
    r = residue(theta, n)
    assert r == (n * theta) % 1
    assert 0 <= r < 1


def test_working_bits_sets_and_restores():
    before = get_bits()
    with working_bits(300):
        assert get_bits() == 300
        fine = chord(F(1, 7))
    assert get_bits() == before
    assert fine.width < chord(F(1, 7)).width
    with pytest.raises(ZeroDivisionError), working_bits(64):
        1 / 0
    assert get_bits() == before
    with pytest.raises(ValueError, match="meaningless"), working_bits(4):
        pass
    assert get_bits() == before


def test_trig_memo_follows_working_precision():
    t = F(2, 7)
    trig = (cos_turns, sin_turns, chord)
    with working_bits(53):
        coarse = [f(t) for f in trig]
    with working_bits(256):
        fine = [f(t) for f in trig]
        precision._enclose.cache_clear()
        assert fine == [f(t) for f in trig]
    assert all(a.width < b.width for a, b in zip(fine, coarse))
