import pytest

from f4cantor import kernels
from f4cantor.kernels import _pure
from f4cantor.oracle import (OracleCheck, check_disjoint, check_nested,
                             cylinder_level_check, enumerate_cn, containment_check,
                             minimal_definite_length, value_order_key)
from f4cantor.segments import DepthLimit
from f4cantor.words import count_words


def test_c1_is_root_cylinder():
    (seg,) = enumerate_cn(1)
    assert seg.word == (4, 3)


def test_c2_is_four_cylinders():
    segs = enumerate_cn(2)
    assert [s.word for s in segs] == [(4, 3, k) for k in (1, 2, 3, 4)]
    assert check_disjoint(segs)
    assert check_nested(segs, enumerate_cn(1))


def test_enumeration_limit():
    with pytest.raises(DepthLimit):
        enumerate_cn(15)


def test_value_order_matches_exact_endpoint_order():
    segs = enumerate_cn(5)
    keyed = sorted(segs, key=lambda s: value_order_key(s.word))
    assert [s.word for s in segs] == [s.word for s in keyed]
    assert all(a.hi < b.lo for a, b in zip(segs, segs[1:]))


def test_kernel_cylinders_match_enumerate_cn():
    from f4cantor.surd import QuadSurd

    segs = enumerate_cn(5)  # words of length 6
    leaves = list(kernels.iter_cylinders(6))
    assert [w for w, _, _ in leaves] == [s.word for s in segs]
    D = 26565
    for (word, lo, hi), seg in zip(leaves, segs):
        for moeb, exact in ((lo, seg.lo), (hi, seg.hi)):
            na, nb, da, db = moeb
            num = QuadSurd(na, nb, 1)
            den = QuadSurd(da, db, 1)
            assert num / den == exact


def test_counts_against_transfer_matrix():
    for length in (3, 6, 9):
        assert kernels.scan_cylinders(length)["count"] == count_words(length)


@pytest.mark.parametrize("n", range(0, 7))
def test_lemma2_small(n):
    check = containment_check(n)
    assert isinstance(check, OracleCheck)
    assert check.ok, check.detail
    assert check.count == check.transfer_count
    assert check.max_stop_level <= check.level_bound


def test_minimal_definite_length_is_tight():
    # over three levels the definite word gains at least one digit, and the
    # all-ones path attains it
    for n in range(0, 11):
        assert minimal_definite_length(3 * n) == n + 2


def test_cylinder_level_check():
    rep = cylinder_level_check(7)
    assert rep["ok"] and rep["count"] == count_words(7)


def test_backends_agree_small(compiled_kernel):
    a, b = _pure, compiled_kernel
    for length in (4, 7, 9):
        assert list(a.iter_cylinders(length)) == list(b.iter_cylinders(length))
        assert list(a.iter_rule_leaves(length)) == list(b.iter_rule_leaves(length))
        assert a.scan_cylinders(length) == b.scan_cylinders(length)
        assert a.scan_nested(length) == b.scan_nested(length)
        assert a.containment_scan(length) == b.containment_scan(length)


def test_rule_leaf_levels_are_exactly_three_per_digit_worst_case():
    scan = _pure.containment_scan(6)
    assert scan["max_stop_level"] == 12  # 3 * (6 - 2), the all-ones path
