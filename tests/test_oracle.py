import math
import subprocess
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f4cantor import kernels
from f4cantor.cf import fold_matrix, moebius_cmp, moebius_image
from f4cantor.kernels import _pure
from f4cantor.oracle import (OracleCheck, cylinder_level_check, containment_check,
                             minimal_definite_length)
from f4cantor.segments import DepthLimit
from f4cantor.words import DEAD, count_words, state_after
from reference import (check_disjoint, check_nested, enumerate_cn, iter_cylinders,
                       rule_leaves_by_words, scan_level_by_values, value_order_key)

SCANS = ("scan_level", "scan_cylinders", "scan_nested", "containment_scan")


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
    leaves = list(iter_cylinders(6))
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
    assert rep["passed"] and rep["cylinders"] == count_words(7)


def _scan_outcome(kernel, scan, length):
    """What one scan gives: its result dict, or the AssertionError it raises."""
    try:
        return getattr(kernel, scan)(length)
    except AssertionError as exc:
        return ("AssertionError", str(exc))


def test_backends_agree_small(compiled_kernel):
    for length in range(10):
        for scan in SCANS:
            assert (_scan_outcome(_pure, scan, length)
                    == _scan_outcome(compiled_kernel, scan, length)), (scan, length)


ROOT_LO, ROOT_HI = (2253, 13, 537, 3), (1753, 13, 409, 3)


@pytest.mark.parametrize("length", [0, 1])
def test_pure_kernels_below_the_root_are_empty(length):
    assert list(iter_cylinders(length)) == []
    assert _pure.scan_cylinders(length) == {
        "length": length, "count": 0, "violations": [],
        "first_lo": None, "last_hi": None}
    assert _pure.scan_nested(length) == {
        "length": length, "count": 0, "violations": [], "childless_parents": 0}
    # the root's definite word already has two digits
    for walk in (lambda n: _pure._rule_leaves(_pure._plan(), n), rule_leaves_by_words):
        with pytest.raises(AssertionError, match="definite length skipped"):
            list(walk(length))
    with pytest.raises(AssertionError, match="definite length skipped"):
        _pure.containment_scan(length)
    with pytest.raises(ValueError, match="length >= 3"):
        kernels.scan_nested(length)
    with pytest.raises(ValueError, match="length >= 2"):
        kernels.containment_scan(length)


def test_pure_kernels_at_the_root_length():
    assert list(iter_cylinders(2)) == [((4, 3), ROOT_LO, ROOT_HI)]
    # the root is the one leaf: type 1 at level 0, lacking no definite digit
    # (its definite word is its prefix (4, 3)), with M*E its prefix matrix,
    # as type 1 has no definite digits; its prefix and matrix are formed on
    # demand, and the reference walk builds the word
    (leaf,) = _pure._rule_leaves(_pure._plan(), 2)
    assert leaf[:4] == (1, (13, 4, 3, 1), 0, 0)
    assert _pure._leaf_prefix(leaf) == ((4, 3), (13, 4, 3, 1))
    assert list(rule_leaves_by_words(2)) == [((4, 3), 0, 1, (13, 4, 3, 1))]
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


@pytest.fixture(params=["pure", "compiled"])
def tampered(request):
    """(kernel, tamper) for each backend: `tamper(key, value)` re-initialises
    `kernel` alone with one table entry replaced.  The kernel is
    re-initialised with the package's tables when the test ends."""
    kernel = _pure if request.param == "pure" else request.getfixturevalue("compiled_kernel")
    request.addfinalizer(lambda: kernel.init(kernels.TABLES))
    return kernel, lambda key, value: kernel.init({**kernels.TABLES, key: value})


@contextmanager
def pure_tables(*changes):
    """The pure kernel initialised with the package's tables, each (key,
    value) of `changes` replacing one entry, and with the package's own
    again on exit, under the `RULE_STACK` of that moment."""
    _pure.init({**kernels.TABLES, **dict(changes)})
    try:
        yield
    finally:
        _pure.init(kernels.TABLES)


def test_scans_report_a_wrong_cylinder_tail(tampered):
    kernel, tamper = tampered
    tamper("state_post_pair", _with_row(kernels.TABLES["state_post_pair"], 1, (0, 5)))
    nested = kernel.scan_nested(6)
    assert nested["count"] == count_words(6)
    assert nested["violations"] and set(_kinds(nested)) == {"outside-parent"}
    contained = kernel.containment_scan(6)
    assert contained["violations"] and set(_kinds(contained)) == {"endpoint-mismatch"}


def test_one_scan_level_call_reports_both_checks_of_a_wrong_cylinder_tail(tampered):
    kernel, tamper = tampered
    tamper("state_post_pair", _with_row(kernels.TABLES["state_post_pair"], 1, (0, 5)))
    level = kernel.scan_level(6)
    assert set(_kinds(level["nested"])) == {"outside-parent"}
    assert set(_kinds(level["containment"])) == {"endpoint-mismatch"}
    assert level["cylinders"]["count"] == level["containment"]["count"] == count_words(6)
    assert level["rule_error"] is None


def test_scan_cylinders_reports_reversed_endpoints(tampered):
    kernel, tamper = tampered
    pairs = kernels.TABLES["state_post_pair"]
    tamper("state_post_pair", _with_row(pairs, 0, pairs[0][::-1]))
    scan = kernel.scan_cylinders(6)
    assert scan["violations"] and set(_kinds(scan)) == {"degenerate"}


def test_containment_scan_reports_a_wrong_rule_tail(tampered):
    kernel, tamper = tampered
    tails = dict(kernels.TABLES["tail_triples"])
    tails[6] = tails[6][::-1]
    tamper("tail_triples", tails)
    scan = kernel.containment_scan(6)
    assert scan["violations"] and set(_kinds(scan)) == {"endpoint-mismatch"}
    assert kernel.scan_nested(6)["violations"] == []


def test_containment_scan_reports_a_word_mismatch(tampered):
    kernel, tamper = tampered
    transitions = kernels.TABLES["transitions"]
    row = _with_row(transitions[1], 0, -1)
    tamper("transitions", _with_row(transitions, 1, row))
    scan = kernel.containment_scan(6)
    assert scan["count"] == 1
    assert scan["violations"] == [
        ("word-mismatch", (4, 3, 1, 4, 1, 4), (4, 3, 1, 4, 2, 4)), ("oracle-extra",)]


def test_scan_nested_counts_childless_parents(tampered):
    kernel, tamper = tampered
    tamper("transitions", _with_row(kernels.TABLES["transitions"], 2, (-1, -1, -1, -1)))
    scan = kernel.scan_nested(6)
    # with state 2 a dead end, three words of length 5 end in it
    assert scan["violations"] == [] and scan["childless_parents"] == 3


def _with_matrices_swapped(rules, type_id):
    """`rules` with type `type_id`'s two extension matrices swapped, each
    row keeping its child type, digits and parity."""
    (t1, e1, m1, o1), (t2, e2, m2, o2) = rules[type_id]
    return {**rules, type_id: ((t1, e1, m2, o1), (t2, e2, m1, o2))}


def _with_digits_swapped(rules, type_id):
    """`rules` with type `type_id`'s two rows' digits swapped, each row
    keeping its child type, matrix and parity."""
    (t1, e1, m1, o1), (t2, e2, m2, o2) = rules[type_id]
    return {**rules, type_id: ((t1, e2, m1, o1), (t2, e1, m2, o2))}


def test_scan_level_reports_swapped_rule_digits(tampered):
    # type 3's children keep their matrices, so each leaf's matrix is its
    # cylinder's, but its word is not: no row folds its digits, so the words
    # are compared, and the first type-3 leaf's word stops the rule walk
    kernel, tamper = tampered
    tamper("rule_table", _with_digits_swapped(kernels.TABLES["rule_table"], 3))
    for length in range(3, 9):
        level = kernel.scan_level(length)
        assert _kinds(level["containment"]) == ["word-mismatch", "oracle-extra"], length
        assert level["rule_error"] is None


def test_scan_level_reports_swapped_rule_matrices(tampered):
    # type 3's children keep their digits, so the words still pair up, but
    # each is placed by the other's matrix
    kernel, tamper = tampered
    tamper("rule_table", _with_matrices_swapped(kernels.TABLES["rule_table"], 3))
    level = kernel.scan_level(8)
    assert level["containment"]["violations"]
    assert set(_kinds(level["containment"])) == {"endpoint-mismatch"}
    assert level["containment"]["count"] == count_words(8)
    assert level["rule_error"] is None


@pytest.fixture(params=["pure", "compiled"])
def backend(request, monkeypatch):
    """Route `kernels` to one backend for the test; the compiled kernel is
    re-initialised with the package's tables when the test ends."""
    fast = None
    if request.param == "compiled":
        fast = request.getfixturevalue("compiled_kernel")
        request.addfinalizer(lambda: fast.init(kernels.TABLES))
    monkeypatch.setattr(kernels, "_fast", fast)
    return fast or _pure


def test_oracle_fails_when_the_rule_table_swaps_matrices(backend):
    # the tamper lands in `segments.RULE_TABLE`, the rows `rule_step` reads
    from f4cantor import report, segments

    assert kernels.TABLES["rule_table"] is segments.RULE_TABLE
    assert report.oracle_doc(8)["passed"]
    rows = segments.RULE_TABLE[3]
    segments.RULE_TABLE[3] = _with_matrices_swapped(segments.RULE_TABLE, 3)[3]
    try:
        backend.init(kernels.TABLES)
        assert report.oracle_doc(8)["passed"] is False
    finally:
        segments.RULE_TABLE[3] = rows
        backend.init(kernels.TABLES)
    assert report.oracle_doc(8)["passed"]


def test_rule_walk_stops_on_a_cycle_of_empty_extensions(tampered):
    # type 1's first child, through an empty extension, is type 1 again: the
    # walk never reaches a leaf, and each backend stops at the same stack bound
    kernel, tamper = tampered
    rules = kernels.TABLES["rule_table"]
    tamper("rule_table", {**rules, 1: ((1, (), (1, 0, 0, 1), 0), rules[1][1])})
    level = kernel.scan_level(4)
    assert level["rule_error"] == "rule tree deeper than 160 levels"
    assert level["containment"]["count"] == 0
    assert level["cylinders"]["count"] == count_words(4)


def test_rule_walk_skips_the_matrix_of_an_empty_extension(tampered):
    # as `segments._child` does: a child through an empty extension keeps its
    # parent's matrix, whatever its row holds
    kernel, tamper = tampered
    expected = _pure.scan_level(8)
    rules = kernels.TABLES["rule_table"]
    (child_type, ext, _, odd), second = rules[1]
    assert ext == ()
    tamper("rule_table", {**rules, 1: ((child_type, ext, (1, 0, 0, 0), odd), second)})
    assert kernel.scan_level(8) == expected


def _with_matrices_zeroed(rules, type_id):
    """`rules` with both of type `type_id`'s extension matrices all zero."""
    return {**rules, type_id: tuple((t, e, (0, 0, 0, 0), o) for t, e, _, o in rules[type_id])}


def test_oracle_fails_when_a_rule_matrix_is_singular(backend):
    # a zero matrix would make each leaf below it the zero image, which
    # `moebius_cmp` finds equal to every cylinder endpoint; the pure rule walk
    # raises on the row, and the compiled kernel's `init` refuses it, after
    # which `kernels` hands every length to the pure walk, re-initialised
    # with the same tables as at import
    from f4cantor import report, segments

    assert report.oracle_doc(8)["passed"]
    rows = segments.RULE_TABLE[3]
    segments.RULE_TABLE[3] = _with_matrices_zeroed(segments.RULE_TABLE, 3)[3]
    try:
        _pure.init(kernels.TABLES)
        if backend is not _pure:
            with pytest.raises(ValueError, match=r"type 3 rule 1: extension matrix determinant"):
                backend.init(kernels.TABLES)
        with pytest.raises(AssertionError,
                           match=r"type 3 rule 1: extension matrix determinant is not \(-1\)\^1"):
            report.oracle_doc(8)
    finally:
        segments.RULE_TABLE[3] = rows
        _pure.init(kernels.TABLES)
        backend.init(kernels.TABLES)
    assert report.oracle_doc(8)["passed"]


def test_backend_name_follows_a_refused_compiled_init(compiled_kernel, monkeypatch):
    # a compiled `init` that refuses its tables leaves `max_len()` at -1, so
    # `_pick` hands every length to the pure kernel, and the documents'
    # `params.backend` must say so
    from f4cantor import segments

    monkeypatch.setattr(kernels, "_fast", compiled_kernel)
    assert kernels.backend_name() == "compiled"
    rows = segments.RULE_TABLE[3]
    segments.RULE_TABLE[3] = _with_matrices_zeroed(segments.RULE_TABLE, 3)[3]
    try:
        with pytest.raises(ValueError, match=r"type 3 rule 1: extension matrix determinant"):
            compiled_kernel.init(kernels.TABLES)
        assert compiled_kernel.max_len() == -1
        assert kernels._pick(8) is _pure
        assert kernels.backend_name() == "pure"
    finally:
        segments.RULE_TABLE[3] = rows
        compiled_kernel.init(kernels.TABLES)
    assert kernels._pick(8) is compiled_kernel
    assert kernels.backend_name() == "compiled"


# one table entry replaced: as the tests above tamper them; state 1's tails
# made equal, so that its cylinders tie (degenerate, not reversed) and, in
# the pure scan's per-state table, only that tie fails for state 0's
# families and only the parent's lo against the first child's for state 1's;
# the reversed pair of state 3, which only the families of states 2 and 3
# read, so that the table decides the other parent states and falls back to
# values for these two; a tail a third of its value, which widens some
# cylinders so that a middle child overlaps its siblings and leaves its
# parent while the first and last stay inside; and a tail written over a
# negative r, which gives some cylinder images a negative denominator, so
# that `moebius_cmp` no longer orders them.  The cycle tampers add an empty
# step that adds no definite digit, which the pure rule walk replaces by the
# child's rows: back to type 1 from type 1's second row (a self-loop), and
# from type 2's first row (a two-cycle, half of which is replaced), each of
# which the walk descends until the stack bound at length 8; and from type
# 3's second row to type 2, which leaves leaves between the cycle's rounds
_T = kernels.TABLES
_RULES = _T["rule_table"]
TAMPERS = {
    "wrong-cylinder-tail": ("state_post_pair", _with_row(_T["state_post_pair"], 1, (0, 5))),
    "reversed-state-0-pair": ("state_post_pair", _with_row(_T["state_post_pair"], 0,
                                                           _T["state_post_pair"][0][::-1])),
    "reversed-type-6-tails": ("tail_triples", {**_T["tail_triples"],
                                               6: _T["tail_triples"][6][::-1]}),
    "missing-move": ("transitions", _with_row(_T["transitions"], 1,
                                              _with_row(_T["transitions"][1], 0, -1))),
    "dead-state": ("transitions", _with_row(_T["transitions"], 2, (-1, -1, -1, -1))),
    "swapped-type-3-matrices": ("rule_table", _with_matrices_swapped(_RULES, 3)),
    "swapped-type-3-digits": ("rule_table", _with_digits_swapped(_RULES, 3)),
    "zeroed-type-3-matrices": ("rule_table", _with_matrices_zeroed(_RULES, 3)),
    "empty-extension-cycle": ("rule_table", {**_RULES, 1: ((1, (), (1, 0, 0, 1), 0),
                                                           _RULES[1][1])}),
    "empty-extension-matrix": ("rule_table", {**_RULES, 1: (_RULES[1][0][:2] + ((1, 0, 0, 0),
                                                                              _RULES[1][0][3]),
                                                            _RULES[1][1])}),
    "equal-state-1-tails": ("state_post_pair", _with_row(_T["state_post_pair"], 1, (1, 1))),
    "reversed-state-3-pair": ("state_post_pair", _with_row(_T["state_post_pair"], 3,
                                                           _T["state_post_pair"][3][::-1])),
    "shrunk-tail": ("sigma", _with_row(_T["sigma"], 0, (105, 1, 666))),
    "negative-denominator": ("sigma", _with_row(_T["sigma"], 2, (-825, 1, -222))),
    "self-loop-second": ("rule_table", {**_RULES, 1: (_RULES[1][0], (1, (), (1, 0, 0, 1), 0))}),
    "two-cycle-1-2": ("rule_table", {**_RULES, 2: ((1, (), (1, 0, 0, 1), 0), _RULES[2][1])}),
    "leaf-between-rounds": ("rule_table", {**_RULES, 3: (_RULES[3][0],
                                                         (2, (), (1, 0, 0, 1), 0))}),
}


def _row_premise():
    """The row premise (`_pure._words_by_matrix`) as the plan holds it."""
    _, _, _, by_matrix, _, _, _ = _pure._plan()
    return by_matrix


def _settled(length):
    """The plan's `_pure._settled_states` for the parents of `length`."""
    *_, levels = _pure._plan()
    _, settled, _, _ = levels[length & 1]
    return settled


@pytest.mark.parametrize("length", range(2, 11))
def test_pure_scan_level_equals_the_value_scan(length):
    assert _pure.scan_level(length) == scan_level_by_values(length)


@pytest.mark.parametrize("name", TAMPERS)
def test_pure_scan_level_equals_the_value_scan_under_tampers(name):
    with pure_tables(TAMPERS[name]):
        for length in range(2, 9):
            assert _pure.scan_level(length) == scan_level_by_values(length), length


@pytest.mark.parametrize("name", TAMPERS)
def test_a_tamper_made_after_the_plan_is_cached_is_seen(name):
    # untampered scans make the plan, the tamper's `init` drops it for one of
    # its own, and the `init` that undoes the tamper makes the first again
    lengths = range(2, 9)
    untampered = [_pure.scan_level(length) for length in lengths]
    with pure_tables(TAMPERS[name]):
        for length in lengths:
            assert _pure.scan_level(length) == scan_level_by_values(length), length
    assert [_pure.scan_level(length) for length in lengths] == untampered


# root prefixes other than the package's (4, 3): at length 1 a one-digit
# root is the one cylinder, and its parents' walk has no position
ROOT_PREFIXES = [(4,), (3,), (4, 3, 1), (4, 3, 2), (1, 4, 1), (4, 3, 1, 4)]


@pytest.mark.parametrize("root", ROOT_PREFIXES, ids=str)
def test_pure_scan_level_equals_the_value_scan_under_root_prefixes(root):
    with pure_tables(("root_prefix", root)):
        for length in range(9):
            assert _pure.scan_level(length) == scan_level_by_values(length), length
        if len(root) == 1:
            assert _pure.scan_level(1)["cylinders"]["count"] == 1


@pytest.mark.parametrize("name, error, leaves", [
    ("self-loop-second", "rule tree deeper than 160 levels", 0),
    ("two-cycle-1-2", "rule tree deeper than 160 levels", 0),
    ("leaf-between-rounds", None, 2)])
def test_cycle_tampers_stop_where_the_reference_walk_stops(name, error, leaves):
    with pure_tables(TAMPERS[name]):
        level = _pure.scan_level(8)
        expected = scan_level_by_values(8)
    assert level["rule_error"] == error
    assert level["containment"]["count"] == leaves
    assert level == expected


@pytest.mark.parametrize("length", range(2, 11))
def test_collapsed_rule_walk_yields_the_reference_walks_leaves(length):
    # each leaf's type, M*E (its prefix matrix times its type's definite
    # digits' matrix) and level, and the prefix and matrix formed on demand
    ext_digits = _pure.TABLES["type_ext_digits"]
    leaves = list(_pure._rule_leaves(_pure._plan(), length))
    expected = list(rule_leaves_by_words(length))
    assert [leaf[:3] for leaf in leaves] == [
        (type_id, fold_matrix(ext_digits[type_id], matrix), level)
        for _, level, type_id, matrix in expected]
    assert [_pure._leaf_prefix(leaf) for leaf in leaves] == [
        (word[:len(word) - len(ext_digits[type_id])], matrix)
        for word, _, type_id, matrix in expected]


@pytest.mark.parametrize("name", ["none", "self-loop-second", "two-cycle-1-2",
                                  "leaf-between-rounds", "empty-extension-cycle"])
def test_rule_walk_trips_a_stack_bound_where_the_reference_walk_does(monkeypatch, name):
    # under each bound, the same leaves and then the same error, or the same
    # first 500 leaves: a self-loop's last child pops at its parent's depth,
    # so a walk below it repeats its leaves without end; the plan holds the
    # bound, so each bound re-initialises the kernel
    def outcome(walk, length, type_at, level_at):
        leaves = []
        try:
            for leaf in walk(length):
                leaves.append((leaf[type_at], leaf[level_at]))
                if len(leaves) == 500:
                    break
        except AssertionError as exc:
            return leaves, str(exc)
        return leaves, None

    changes = [TAMPERS[name]] if name != "none" else []
    with pure_tables(*changes), monkeypatch.context() as patch:
        for bound in range(2, 20):
            patch.setattr(_pure, "RULE_STACK", bound)
            _pure.init(_pure.TABLES)
            for length in range(3, 10):
                assert (outcome(lambda n: _pure._rule_leaves(_pure._plan(), n), length, 0, 2)
                        == outcome(rule_leaves_by_words, length, 2, 1)), (bound, length)


def test_pure_scan_level_decides_leaf_words_by_matrix_only_under_the_row_premise():
    # a row whose matrix is not its digits' fold, or a digit 0 (fold(0, 0)
    # is the identity), breaks the premise, and the scan compares words; the
    # compiled `init` refuses a digit 0, so that row is not in TAMPERS
    assert _row_premise()
    for name in ("swapped-type-3-matrices", "swapped-type-3-digits"):
        with pure_tables(TAMPERS[name]):
            assert not _row_premise()
    with pure_tables(("rule_table",
                      {**_RULES, 3: ((1, (0,), fold_matrix((0,)), 1), _RULES[3][1])})):
        assert not _row_premise()
        for length in range(2, 9):
            assert _pure.scan_level(length) == scan_level_by_values(length), length


def test_value_scan_walks_the_rule_tree_itself(monkeypatch):
    # the reference builds each leaf's word, so it does not share the path
    # the matrix test replaces
    expected = _pure.scan_level(6)

    def refused(*args):
        raise RuntimeError("the value scan read the pure rule walk")

    monkeypatch.setattr(_pure, "_rule_leaves", refused)
    assert scan_level_by_values(6) == expected


def test_reversed_state_0_pair_fills_the_violation_caps():
    # every cylinder ending in state 0 is degenerate: the uncapped degenerate
    # entries fill the disjointness list past its cap of 20, after which
    # overlaps go unrecorded, and the nesting list stops at its cap
    with pure_tables(TAMPERS["reversed-state-0-pair"]):
        level = _pure.scan_level(8)
        assert level == scan_level_by_values(8)
    assert len(level["cylinders"]["violations"]) == 2284
    assert len(level["nested"]["violations"]) == 20


@pytest.mark.parametrize("name", ["equal-state-1-tails", "reversed-state-3-pair"])
def test_one_scan_mixes_decided_and_value_compared_families(name):
    # the per-state table decides some parent states and not others, so one
    # scan interleaves families that compare only their first lo with the
    # family before and families compared value by value; the violations of
    # the latter keep the value scan's order and caps.  No tamper makes a
    # decided family report an overlap: each child is its parent matrix's
    # image of a value above 1, inside the parent word's continued-fraction
    # cylinder, and those cylinders are disjoint
    with pure_tables(TAMPERS[name]):
        for length in range(3, 9):
            settled = _settled(length)
            assert any(settled) and not all(settled), length
        level = _pure.scan_level(8)
        assert level == scan_level_by_values(8)
    assert set(_kinds(level["cylinders"])) == {"degenerate"}
    assert len(level["nested"]["violations"]) == 20


@pytest.mark.parametrize("name", TAMPERS)
def test_backends_agree_under_tampers(compiled_kernel, request, name):
    # the pure scan's shortcuts against the compiled scan, which compares
    # values for every check; the compiled `init` refuses a singular rule
    # matrix, which the pure rule walk reports as its `rule_error` instead
    key, value = TAMPERS[name]
    request.addfinalizer(lambda: compiled_kernel.init(kernels.TABLES))
    if name == "zeroed-type-3-matrices":
        with pytest.raises(ValueError, match="extension matrix determinant"):
            compiled_kernel.init({**kernels.TABLES, key: value})
        return
    compiled_kernel.init({**kernels.TABLES, key: value})
    with pure_tables((key, value)):
        for length in range(2, 9):
            assert (_scan_outcome(_pure, "scan_level", length)
                    == _scan_outcome(compiled_kernel, "scan_level", length)), length


def test_pure_scan_level_makes_no_comparison_warm_and_a_tenth_of_one_per_cylinder_cold(
        monkeypatch):
    # a cold scan counts the comparisons the plan makes; a warm one, with the
    # package's tables, decides every family and forms only the level's ends
    _pure.init(kernels.TABLES)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("moebius_cmp", "moebius_image"):
        monkeypatch.setattr(_pure, name, counted(name, getattr(_pure, name)))
    level = _pure.scan_level(8)
    cylinders = level["cylinders"]["count"]
    assert cylinders == count_words(8) == 3099
    assert 10 * calls["moebius_cmp"] <= cylinders
    assert 10 * calls["moebius_image"] <= cylinders
    calls.clear()
    assert _pure.scan_level(8) == level
    assert calls["moebius_cmp"] == 0
    assert calls["moebius_image"] <= 2


@pytest.mark.parametrize("length", range(2, 8))
def test_word_cylinders_are_disjoint_and_ascending_in_walk_order(length):
    # the cylinder lemma behind the pure scan's order across families, in
    # exact rationals and the reference word walk: a word w's matrix
    # [[p, p'], [q, q']] maps (1, inf) onto the open interval between
    # M_w(inf) = p/q and M_w(1) = (p + p')/(q + q'); in walk order each lies
    # above the one before (neighbours may share an end), and each child,
    # M_w's image of d + 1/t > 1, lies strictly inside its parent's
    cylinders = {}
    for word, _, _ in iter_cylinders(length):
        p, p1, q, q1 = fold_matrix(word)
        cylinders[word] = tuple(sorted((Fraction(p, q), Fraction(p + p1, q + q1))))
    ends = list(cylinders.values())
    assert len(ends) == count_words(length)
    assert all(lo < hi for lo, hi in ends)
    assert all(hi <= lo for (_, hi), (lo, _) in zip(ends, ends[1:]))
    disc = kernels.TABLES["disc"]
    for word, lo, hi in iter_cylinders(length + 1):
        plo, phi = ((x.numerator, 0, x.denominator, 0) for x in cylinders[word[:-1]])
        assert moebius_cmp(plo, lo, disc) < 0 < moebius_cmp(phi, hi, disc), word


def test_compiled_init_refuses_rule_matrices_outside_its_headroom(compiled_kernel):
    # type 4's first row extends by (4, 3): its matrix may be at most the
    # matrix of two fours, [[17, 4], [4, 1]], entry by entry, and nonnegative
    rules = kernels.TABLES["rule_table"]
    child_type, ext, _, odd = rules[4][0]

    def with_matrix(matrix):
        return {**kernels.TABLES, "rule_table": {**rules, 4: ((child_type, ext, matrix, odd),
                                                              rules[4][1])}}

    try:
        compiled_kernel.init(with_matrix((17, 4, 4, 1)))
        assert compiled_kernel.max_len() == HEADROOM_LEN
        for matrix in ((18, 4, 4, 1), (17, 4, 4, 2), (17, 4, 4, -1)):
            with pytest.raises(ValueError):
                compiled_kernel.init(with_matrix(matrix))
            with pytest.raises(RuntimeError, match="not initialized"):
                compiled_kernel.scan_level(6)
        with pytest.raises(ValueError, match="above the matrix of 2 fours"):
            compiled_kernel.init(with_matrix((17, 5, 4, 1)))
    finally:
        compiled_kernel.init(kernels.TABLES)
    assert compiled_kernel.scan_level(6) == _pure.scan_level(6)


def test_compiled_init_refuses_tables_outside_its_headroom(compiled_kernel):
    sigma = kernels.TABLES["sigma"]
    try:
        with pytest.raises(ValueError, match=r"\|q\| <= 1"):
            compiled_kernel.init({**kernels.TABLES, "sigma": _with_row(sigma, 0, (105, 2, 222))})
        with pytest.raises(RuntimeError, match="not initialized"):
            compiled_kernel.scan_cylinders(6)
    finally:
        compiled_kernel.init(kernels.TABLES)
    assert compiled_kernel.scan_cylinders(6) == _pure.scan_cylinders(6)


def test_fast_c_compiles_without_warnings(c_toolchain, tmp_path):
    # as `setup.py` builds it, without the sanitizer of the `compiled_kernel`
    # build, under which some warnings do not show
    cc, include = c_toolchain
    source = Path(kernels.__file__).with_name("_fast.c")
    build = subprocess.run([cc, "-O2", "-Wall", "-Werror", "-c", f"-I{include}", str(source),
                            "-o", str(tmp_path / "_fast.o")], capture_output=True, text=True)
    assert build.returncode == 0, build.stderr[-2000:]


def _tails():
    t = kernels.TABLES
    return sorted(set(t["sigma"]) | {tail for pair in t["tail_triples"].values() for tail in pair})


def _component_bound(length):
    """Bounds on |nA|, |dA| and on |nB|, |dB| of any tail image under the
    matrix of a `length`-digit word: K*T and K, where K is the continuant of
    `length` fours and T the largest |p| + |r| over the tails (every tail has
    |q| = 1)."""
    k = fold_matrix((4,) * length)[0]
    tail = max(abs(p) + abs(r) for p, q, r in _tails())
    assert all(abs(q) == 1 for _, q, _ in _tails())
    return k * tail, k


def _largest_continuant_words(length):
    """The admissible words of `length` digits whose matrix no other such
    word ending in the same automaton state dominates entry by entry.  Any
    continuation acts on a matrix by nonnegative combinations, so every
    word with the largest continuant is among them."""
    root = kernels.TABLES["root_prefix"]
    front = [(root, fold_matrix(root))]
    for _ in range(length - len(root)):
        grown = [(w + (d,), fold_matrix((d,), m)) for w, m in front for d in (1, 2, 3, 4)
                 if state_after(w + (d,)) != DEAD]
        front = [(w, m) for w, m in grown
                 if not any(n != m and state_after(v) == state_after(w)
                            and all(a >= b for a, b in zip(n, m)) for v, n in grown)]
    return [w for w, _ in front]


# the compiled kernel's max_len() for the package's tables
HEADROOM_LEN = 22


def test_backends_agree_at_the_headroom_edge(compiled_kernel):
    length = compiled_kernel.max_len()
    assert length == HEADROOM_LEN
    with pytest.raises(ValueError, match="beyond compiled-kernel bound"):
        compiled_kernel.scan_cylinders(length + 1)
    a_max, b_max = _component_bound(length)
    # the all-4 word is not admissible, but its matrix is the bound's own
    words = _largest_continuant_words(length) + [(4,) * length]
    images = [moebius_image(fold_matrix(w), t) for w in words for t in _tails()]
    assert max(abs(c) for e in images for c in e[::2]) <= a_max
    assert max(abs(c) for e in images for c in e[1::2]) <= b_max
    disc = kernels.TABLES["disc"]
    for e1 in images:
        for e2 in images:
            assert compiled_kernel.moebius_cmp(e1, e2, disc) == _pure.moebius_cmp(e1, e2, disc)


A_MAX, B_MAX = _component_bound(HEADROOM_LEN)
_a = st.integers(-A_MAX, A_MAX)
_b = st.integers(-B_MAX, B_MAX)
_moebius = st.tuples(_a, _b, _a, _b)


@st.composite
def _opposite_sign_pairs(draw):
    """(e1, e2) whose cross products x, y in `moebius_cmp` have opposite
    signs and x^2 within a few units of y^2 * D, scaled by s up to the
    bound: e2 = (0, 0, s, 0) makes x = s * nA1 and y = s * nB1."""
    disc = kernels.TABLES["disc"]
    nb = draw(_b.filter(bool))
    root = math.isqrt(nb * nb * disc) + draw(st.integers(-1, 2))
    na = -root if nb > 0 else root
    e1 = (na, nb, draw(_a), draw(_b))
    return e1, (0, 0, draw(st.integers(1, A_MAX)), 0)


@st.composite
def _equal_value_pairs(draw):
    """(e1, e2) with the same value: e2 is e1 times an integer or times
    sqrt(D) in numerator and denominator, so x = y = 0."""
    disc = kernels.TABLES["disc"]
    k = draw(st.integers(-2**20, 2**20).filter(bool))
    c = st.integers(-(B_MAX >> 20), B_MAX >> 20)
    na, nb, da, db = e1 = draw(st.tuples(c, c, c, c))
    return e1, draw(st.sampled_from([(k * na, k * nb, k * da, k * db),
                                     (nb * disc, na, db * disc, da)]))


@settings(max_examples=400)
@given(pair=st.one_of(st.tuples(_moebius, _moebius), _opposite_sign_pairs(),
                      _equal_value_pairs()),
       swap=st.booleans())
def test_compiled_moebius_cmp_matches_pure(compiled_kernel, pair, swap):
    e1, e2 = pair[::-1] if swap else pair
    disc = kernels.TABLES["disc"]
    assert compiled_kernel.moebius_cmp(e1, e2, disc) == _pure.moebius_cmp(e1, e2, disc)


def test_compiled_moebius_cmp_opposite_signs_and_ties(compiled_kernel):
    disc = kernels.TABLES["disc"]
    y = -B_MAX
    x = math.isqrt(y * y * disc)  # x^2 < y^2 D < (x + 1)^2
    for na, want in ((x, -1), (x + 1, 1)):
        for s in (1, A_MAX):
            e1, e2 = (na, y, 1, 0), (0, 0, s, 0)
            assert compiled_kernel.moebius_cmp(e1, e2, disc) == want
            assert compiled_kernel.moebius_cmp(e2, e1, disc) == -want
    e = (A_MAX, B_MAX, A_MAX - 1, B_MAX - 1)
    assert compiled_kernel.moebius_cmp(e, e, disc) == 0
    na, nb, da, db = e = (B_MAX, B_MAX - 1, B_MAX - 2, B_MAX - 3)
    assert compiled_kernel.moebius_cmp(e, (nb * disc, na, db * disc, da), disc) == 0


@pytest.mark.parametrize("component", [2**63, -2**63 - 1, 2**62])
def test_compiled_moebius_cmp_refuses_components_outside_its_headroom(compiled_kernel,
                                                                       component):
    with pytest.raises(ValueError):
        compiled_kernel.moebius_cmp((component, 1, 1, 0), (1, 0, 1, 0), kernels.TABLES["disc"])


def test_rule_leaf_levels_are_exactly_three_per_digit_worst_case():
    scan = _pure.containment_scan(6)
    assert scan["max_stop_level"] == 12  # 3 * (6 - 2), the all-ones path
