import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f4cantor import segments
from f4cantor.cf import fold_matrix
from f4cantor.segments import (DepthLimit, TAIL_VALUES, TYPE_TABLE, _check_rule_shapes, generate,
                               root_segment, rule_step, subdivide)
from f4cantor.surd import QuadSurd
from f4cantor.words import admissible, count_words
from reference import (Inadmissible, classify_prefix, endpoints_by_determinant, iter_words,
                       rule_step_by_folds, segment_for_word)


def test_root_segment_endpoints():
    root = root_segment()
    assert root.type_id == 1
    assert root.lo == QuadSurd(783, 1, 222)
    assert root.hi == QuadSurd(5501, -1, 1238)
    assert root.length.to_decimal(2) == "0.05"


def test_rule_one_from_root():
    c1, gap, c2 = subdivide(root_segment())
    assert (c1.type_id, c2.type_id) == (2, 4)
    assert c1.prefix == (4, 3) and c2.prefix == (4, 3)
    assert c2.word == (4, 3, 4)
    assert gap.lo < gap.hi


def test_remark_split_chain_reaches_all_four_cylinders():
    # rules 1, 2, 3 split T[4,3] into the four next-digit cylinders
    c1, _, c2 = subdivide(root_segment())
    d1, _, d2 = subdivide(c1)
    assert (d1.type_id, d2.type_id) == (3, 1)
    assert d2.prefix == (4, 3, 3)
    e1, _, e2 = subdivide(d1)
    assert (e1.type_id, e2.type_id) == (1, 1)
    assert e1.prefix == (4, 3, 1) and e2.prefix == (4, 3, 2)
    words = {e1.word, e2.word, d2.word, c2.word}
    assert words == {(4, 3, 1), (4, 3, 2), (4, 3, 3), (4, 3, 4)}


def test_division_list():
    expected = {1: (2, 4), 2: (3, 1), 3: (1, 1), 4: (1, 5), 5: (1, 6),
                6: (2, 7), 7: (1, 8), 8: (1, 9), 9: (3, 1)}
    for tid, spec in TYPE_TABLE.items():
        assert tuple(ct for ct, _ in spec.children) == expected[tid]


def test_generate_counts():
    segs, gaps = generate(0)
    assert len(segs) == 1 and not gaps
    segs, gaps = generate(3)
    assert len(segs) == 15 and len(gaps) == 7
    assert sum(1 for s in segs if s.depth == 3) == 8


def test_generate_depth_limit():
    with pytest.raises(DepthLimit):
        generate(23)


def test_indices_follow_binary_scheme():
    segs, gaps = generate(4)
    for s in segs:
        if s.depth == 0:
            continue
        parent_index = (s.index + 1) // 2
        parents = [p for p in segs if p.depth == s.depth - 1 and p.index == parent_index]
        assert len(parents) == 1
        assert parents[0].lo <= s.lo and s.hi <= parents[0].hi
    for g in gaps:
        assert g.lo < g.hi
        assert g.left.hi == g.lo and g.right.lo == g.hi


# per type, the suffixes its rule prefixes never end in
FORBIDDEN_SUFFIXES = {
    1: ((4,), (4, 1), (4, 1, 4), (4, 1, 4, 1)),
    2: ((4,), (4, 1, 4), (4, 1, 4, 1)),
    3: ((4,), (4, 1, 4)),
    4: ((4, 1),),
    5: ((4, 1),),
    6: ((4, 1),),
    7: (),
    8: (),
    9: (),
}


def test_generated_prefixes_admissible_and_restricted():
    for seg in generate(9)[0]:
        word = seg.word
        assert word[:2] == (4, 3) and admissible(word)
        for suffix in FORBIDDEN_SUFFIXES[seg.type_id]:
            assert seg.prefix[len(seg.prefix) - len(suffix):] != suffix


def test_parity_predicts_endpoint_order():
    for seg in generate(8)[0]:
        ta, tb = TAIL_VALUES[seg.type_id]
        from f4cantor.cf import apply_moebius
        va = apply_moebius(seg.matrix, ta)
        vb = apply_moebius(seg.matrix, tb)
        if len(seg.prefix) % 2 == 0:  # increasing Moebius map
            assert (va, vb) == (seg.lo, seg.hi)
        else:
            assert (vb, va) == (seg.lo, seg.hi)


def test_rule_shape_holds_node_by_node():
    # exact surd comparisons on built endpoints, independent of the
    # import-time proof: each segment is ordered, the first child is the
    # left one iff the prefix has even length, and the outer endpoints are
    # shared with the parent
    steps = 0
    for parent in generate(9)[0]:
        c1, _, c2 = subdivide(parent)
        assert c1.lo < c1.hi and c2.lo < c2.hi
        first_left = c1.hi < c2.lo
        assert first_left == (len(parent.prefix) % 2 == 0)
        assert first_left or c2.hi < c1.lo
        left, right = (c1, c2) if first_left else (c2, c1)
        assert left.lo == parent.lo and right.hi == parent.hi
        steps += 1
    assert steps == 2 ** 10 - 1


def _start_frame(type_id, odd, coords):
    """A frame of any type whose prefix has parity `odd`, its endpoints
    ordered by the reference's determinant test."""
    prefix = (4, 3) + (2,) * odd
    matrix = fold_matrix(prefix)
    return (prefix, type_id, matrix, *endpoints_by_determinant(matrix, type_id), *coords)


@given(st.sampled_from(sorted(TYPE_TABLE)), st.integers(0, 1),
       st.sampled_from([(0, 1), (None, None)]), st.lists(st.integers(0, 1), max_size=24))
@settings(max_examples=300)
def test_rule_step_matches_the_folds_along_random_paths(type_id, odd, coords, picks):
    # from every type at both prefix parities, with and without tree
    # coordinates: the table-driven step and the folded one give the same
    # frames, field for field, and the same child order
    frame = _start_frame(type_id, odd, coords)
    for pick in [0, *picks]:
        step = rule_step(frame)
        assert step == rule_step_by_folds(frame)
        frame = step[pick]


@pytest.mark.parametrize("tamper, message", [
    # type 9 given its tails in reverse order
    (lambda t: {**t, 9: t[9][::-1]}, "type 9 tails are not ordered alpha < beta"),
    # type 5 given type 6's low tail: its left child no longer starts there
    (lambda t: {**t, 5: (t[6][0], t[5][1])},
     "type 5 rule: the left child does not start at alpha"),
    # type 2 given type 3's high tail: its right child no longer ends there
    (lambda t: {**t, 2: (t[2][0], t[3][1])},
     "type 2 rule: the right child does not end at beta"),
    # type 4 given type 1's tails: the root's second child is the root itself
    (lambda t: {**t, 4: t[1]}, "type 1 rule: child 1 does not lie left of child 2"),
], ids=["order", "shared-lo", "shared-hi", "gap"])
def test_tampered_tails_fail_the_shape_proof(monkeypatch, tamper, message):
    monkeypatch.setattr(segments, "TAIL_TRIPLES", tamper(segments.TAIL_TRIPLES))
    with pytest.raises(AssertionError, match=message):
        _check_rule_shapes()


def _tamper_row(table, type_id, k, field, value):
    rows = list(table[type_id])
    rows[k] = (*rows[k][:field], value, *rows[k][field + 1:])
    return {**table, type_id: tuple(rows)}


@pytest.mark.parametrize("tamper, message", [
    # type 6's first child (extension (4, 1)) ordered as if the extension
    # were odd
    (lambda t: _tamper_row(t, 6, 0, 3, 1),
     "type 6 rule: the left child does not start at alpha"),
    # type 2's second child (extension (3,)) ordered as if it were even
    (lambda t: _tamper_row(t, 2, 1, 3, 0),
     "type 2 rule: the right child does not end at beta"),
    # type 4's first child given the identity as its extension matrix
    (lambda t: _tamper_row(t, 4, 0, 2, (1, 0, 0, 1)),
     "type 4 rule: child 1 does not lie left of child 2"),
], ids=["parity-left", "parity-right", "matrix"])
def test_tampered_rule_table_fails_the_shape_proof(monkeypatch, tamper, message):
    # the proof reads the rule table through `_child`, as `rule_step` does
    monkeypatch.setattr(segments, "RULE_TABLE", tamper(segments.RULE_TABLE))
    with pytest.raises(AssertionError, match=message):
        _check_rule_shapes()


def test_rule_table_rows_carry_their_extension_matrices():
    # every row has a matrix, the identity for an empty extension, so each
    # rule walker reads every row the same way
    for tid, rows in segments.RULE_TABLE.items():
        assert tuple((ct, ext) for ct, ext, _, _ in rows) == TYPE_TABLE[tid].children
        for _, ext, matrix, odd in rows:
            assert matrix == fold_matrix(ext) and odd == len(ext) % 2
    assert segments.RULE_TABLE[1][0][2] == (1, 0, 0, 1)


def test_shape_proof_raises_under_optimize():
    # `python -O` strips bare asserts; the proof's explicit raises survive
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = ("from f4cantor import segments\n"
              "t = segments.TAIL_TRIPLES\n"
              "t[6] = t[6][::-1]\n"
              "try:\n"
              "    segments._check_rule_shapes()\n"
              "except AssertionError as exc:\n"
              "    print(exc)\n")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "type 6 tails are not ordered alpha < beta\n"


def test_classify_prefix():
    assert classify_prefix((4, 3, 4)) == 4
    assert classify_prefix((4, 3, 4, 1, 4)) == 7
    assert classify_prefix((4, 3, 2)) == 1
    assert classify_prefix((4, 3, 4, 1)) == 6
    assert classify_prefix((4, 3, 4, 1, 4, 1)) == 9
    with pytest.raises(Inadmissible):
        classify_prefix((4, 3, 4, 4))
    with pytest.raises(Inadmissible):
        classify_prefix((1, 2))


def classify_by_suffix_ladder(word):
    """Cylinder type from the word's last digits, as a reference for the
    automaton-state lookup."""
    if word[-4:] == (4, 1, 4, 1):
        return 9
    if word[-3:] == (4, 1, 4):
        return 7
    if word[-2:] == (4, 1):
        return 6
    if word[-1:] == (4,):
        return 4
    return 1


def test_classify_prefix_matches_suffix_ladder_to_length_10():
    checked = 0
    for length in range(2, 11):
        for word in iter_words(length):
            assert classify_prefix(word) == classify_by_suffix_ladder(word), word
            checked += 1
    assert checked == sum(count_words(n) for n in range(2, 11))


def test_rule_endpoints_match_suffix_classification():
    # every generated segment whose interval is a full cylinder agrees with
    # the segment rebuilt from its word alone
    for seg in generate(7)[0]:
        if seg.type_id in (1, 4, 6, 7, 9):
            rebuilt = segment_for_word(seg.word)
            assert rebuilt.type_id == seg.type_id
            assert rebuilt.lo == seg.lo and rebuilt.hi == seg.hi
