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
    leaves = list(_pure.iter_cylinders(6))
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
    for length in (2, 3, 4, 7, 9):
        assert list(a.iter_cylinders(length)) == list(b.iter_cylinders(length))
        assert list(a.iter_rule_leaves(length)) == list(b.iter_rule_leaves(length))
        assert a.scan_cylinders(length) == b.scan_cylinders(length)
        assert a.containment_scan(length) == b.containment_scan(length)
        # the dispatch refuses scan_nested below 3: there the compiled one
        # reads a parent frame that was never set
        if length >= 3:
            assert a.scan_nested(length) == b.scan_nested(length)


ROOT_LO, ROOT_HI = (2253, 13, 537, 3), (1753, 13, 409, 3)


@pytest.mark.parametrize("length", [0, 1])
def test_pure_kernels_below_the_root_are_empty(length):
    assert list(_pure.iter_cylinders(length)) == []
    assert _pure.scan_cylinders(length) == {
        "length": length, "count": 0, "violations": [],
        "first_lo": None, "last_hi": None}
    assert _pure.scan_nested(length) == {
        "length": length, "count": 0, "violations": [], "childless_parents": 0}
    # the root's definite word already has two digits
    with pytest.raises(AssertionError, match="definite length skipped"):
        list(_pure.iter_rule_leaves(length))
    with pytest.raises(AssertionError, match="definite length skipped"):
        _pure.containment_scan(length)
    with pytest.raises(ValueError, match="length >= 3"):
        kernels.scan_nested(length)
    with pytest.raises(ValueError, match="length >= 2"):
        kernels.containment_scan(length)


def test_pure_kernels_at_the_root_length():
    assert list(_pure.iter_cylinders(2)) == [((4, 3), ROOT_LO, ROOT_HI)]
    assert list(_pure.iter_rule_leaves(2)) == [((4, 3), 0, 1, ROOT_LO, ROOT_HI)]
    assert _pure.scan_cylinders(2) == {
        "length": 2, "count": 1, "violations": [],
        "first_lo": ROOT_LO, "last_hi": ROOT_HI}
    # the root cylinder has no parent level
    with pytest.raises(ValueError, match="length >= 3"):
        kernels.scan_nested(2)
    assert _pure.containment_scan(2) == {
        "word_len": 2, "count": 1, "violations": [], "max_stop_level": 0}


def _kinds(scan):
    return [v[0] for v in scan["violations"]]


def _with_row(rows, index, value):
    rows = list(rows)
    rows[index] = value
    return tuple(rows)


def test_pure_scans_report_a_wrong_cylinder_tail(monkeypatch):
    pairs = _with_row(_pure.TABLES["state_post_pair"], 1, (0, 5))
    monkeypatch.setitem(_pure.TABLES, "state_post_pair", pairs)
    nested = _pure.scan_nested(6)
    assert nested["count"] == count_words(6)
    assert nested["violations"] and set(_kinds(nested)) == {"outside-parent"}
    contained = _pure.containment_scan(6)
    assert contained["violations"] and set(_kinds(contained)) == {"endpoint-mismatch"}


def test_pure_scan_cylinders_reports_reversed_endpoints(monkeypatch):
    pairs = _pure.TABLES["state_post_pair"]
    monkeypatch.setitem(_pure.TABLES, "state_post_pair",
                        _with_row(pairs, 0, pairs[0][::-1]))
    scan = _pure.scan_cylinders(6)
    assert scan["violations"] and set(_kinds(scan)) == {"degenerate"}


def test_pure_containment_scan_reports_a_wrong_rule_tail(monkeypatch):
    tails = dict(_pure.TABLES["type_tails"])
    tails[6] = tails[6][::-1]
    monkeypatch.setitem(_pure.TABLES, "type_tails", tails)
    scan = _pure.containment_scan(6)
    assert scan["violations"] and set(_kinds(scan)) == {"endpoint-mismatch"}
    assert _pure.scan_nested(6)["violations"] == []


def test_pure_containment_scan_reports_a_word_mismatch(monkeypatch):
    transitions = _pure.TABLES["transitions"]
    row = _with_row(transitions[1], 0, -1)
    monkeypatch.setitem(_pure.TABLES, "transitions", _with_row(transitions, 1, row))
    scan = _pure.containment_scan(6)
    assert scan["count"] == 1
    assert scan["violations"] == [
        ("word-mismatch", (4, 3, 1, 4, 1, 4), (4, 3, 1, 4, 2, 4)), ("oracle-extra",)]


def test_pure_scan_nested_counts_childless_parents(monkeypatch):
    transitions = _pure.TABLES["transitions"]
    monkeypatch.setitem(_pure.TABLES, "transitions",
                        _with_row(transitions, 2, (-1, -1, -1, -1)))
    scan = _pure.scan_nested(6)
    # with state 2 a dead end, three words of length 5 end in it
    assert scan["violations"] == [] and scan["childless_parents"] == 3


def test_rule_leaf_levels_are_exactly_three_per_digit_worst_case():
    scan = _pure.containment_scan(6)
    assert scan["max_stop_level"] == 12  # 3 * (6 - 2), the all-ones path
