import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from f4cantor import constants
from f4cantor.cf import CFWord, convergents, eval_finite, moebius_surd, perron_rho_n
from f4cantor.decompose import (BadCut, ProductState, Stuck, _as_target,
                                _candidate_moves, default_cuts, decompose, frame_element,
                                interleave, verify_construction, witness_for_target)
from f4cantor.report import decompose_doc
from f4cantor.segments import frame_segment, root_segment, segment_frame, subdivide
from f4cantor.surd import DEFAULT_DISC, QuadSurd, cross_field_cmp, parse_surd
from f4cantor.thickness import constant_cross_checks
from reference import contains_target


def derived(*names):
    """The computed values of the named `constant_cross_checks` rows."""
    rows = {c.name: c.computed for c in constant_cross_checks()}
    return tuple(rows[name] for name in names)


def test_product_interval_endpoints():
    lo, hi = derived("product_lo", "product_hi")
    assert lo == constants.PRODUCT_LO
    assert hi == constants.PRODUCT_HI
    assert lo.to_decimal(3) == "18.158"


def test_mu_delta():
    mu, delta = derived("mu_bound", "delta_bound")
    assert mu == constants.MU_BOUND
    assert mu.to_decimal(4) == "18.4811"
    assert delta == constants.DELTA_BOUND
    assert delta.to_decimal(5) == "0.94867"
    cap = constants.TEN_PLUS_6_SQRT2
    assert cap.to_decimal(4) == "18.4853"
    assert cross_field_cmp(mu, cap) < 0
    lo, hi = derived("product_lo", "product_hi")
    assert lo < mu and cross_field_cmp(hi, cap) > 0


def test_boundary_target_sticks_to_left_edge():
    st = decompose(constants.PRODUCT_LO, 12)
    x, y = frame_segment(st.frame_x), frame_segment(st.frame_y)
    assert x.lo == y.lo == root_segment().lo
    assert contains_target(st)


def test_decompose_rejects_outside_targets():
    with pytest.raises(ValueError):
        decompose(Fraction(17), 5)
    with pytest.raises(ValueError):
        decompose(QuadSurd(1, 1, 1, 5) * 0 + 19, 5)


def test_decompose_containment_and_width_decrease():
    mu = derived("mu_bound")[0]
    st = decompose(mu, 40)
    widths = [moebius_surd(s.width_image, DEFAULT_DISC) for s in st.history]
    assert contains_target(st)
    assert all(a > b for a, b in zip(widths, widths[1:]))
    assert widths[-1] < Fraction(1, 10 ** 6)
    assert len(st.history) == 40


def test_decompose_random_rationals_never_stick():
    rng = random.Random(4040)
    lo_r, hi_r = Fraction(18160, 1000), Fraction(18590, 1000)
    for _ in range(10):
        target = lo_r + (hi_r - lo_r) * Fraction(rng.randrange(10 ** 9), 10 ** 9)
        st = decompose(target, 45)
        assert contains_target(st)
        assert moebius_surd(st.history[-1].width_image, DEFAULT_DISC) < Fraction(1, 10 ** 4)


def _reference_moves(seg_x, seg_y, target):
    """The hull-preserving moves on built surds: `subdivide`'s segments, and
    the balance, hull and length tests on built products and differences."""
    factor = "x" if (seg_x.hi * seg_y.lo - seg_y.hi * seg_x.lo).sign() >= 0 else "y"
    seg, other = (seg_x, seg_y) if factor == "x" else (seg_y, seg_x)
    _, gap, _ = subdivide(seg)
    moves = [(factor, pick, child) for pick, child in enumerate((gap.left, gap.right))
             if cross_field_cmp(child.lo * other.lo, target) <= 0
             <= cross_field_cmp(child.hi * other.hi, target)]
    if len(moves) == 2 and (moves[1][2].length - moves[0][2].length).sign() < 0:
        moves.reverse()
    return moves


def reference_decompose(target, steps, attempt_budget=None):
    """The backtracking search on `Segment`s and built product surds, as a
    state holding the final `Segment`s where `decompose` holds frames; each
    step is (factor, child, type_id, lo, hi, width) with an exact width."""
    t = _as_target(target)
    lo, hi = constants.PRODUCT_LO, constants.PRODUCT_HI
    if not cross_field_cmp(lo, t) <= 0 <= cross_field_cmp(hi, t):
        raise ValueError(f"target {t} outside the product interval")
    budget = attempt_budget if attempt_budget is not None else 200 + 50 * steps
    root = root_segment()
    path = [(root, root, _reference_moves(root, root, t), None)]
    attempts = 0
    while len(path) - 1 < steps:
        seg_x, seg_y, pending, _ = path[-1]
        if not pending:
            path.pop()
            if not path:
                raise Stuck(f"no path reaches depth {steps} for {t}")
            continue
        move = pending.pop(0)
        attempts += 1
        if attempts > budget:
            raise Stuck(f"attempt budget {budget} exhausted for {t}")
        factor, _, child = move
        nx, ny = (child, seg_y) if factor == "x" else (seg_x, child)
        path.append((nx, ny, _reference_moves(nx, ny, t), move))
    history = tuple((factor, pick, child.type_id, child.lo, child.hi,
                     sx.hi * sy.hi - sx.lo * sy.lo)
                    for sx, sy, _, (factor, pick, child) in path[1:])
    return ProductState(path[-1][0], path[-1][1], t, history, attempts, budget)


def by_value(state):
    """The state with each frame as its `Segment` and each Step as
    (factor, child, type_id, lo, hi, width), each endpoint and the width the
    exact surd of the Step's unreduced image."""
    return state._replace(frame_x=frame_segment(state.frame_x),
                          frame_y=frame_segment(state.frame_y),
                          history=tuple((*s[:3], moebius_surd(s.lo_image, DEFAULT_DISC),
                                         moebius_surd(s.hi_image, DEFAULT_DISC),
                                         moebius_surd(s.width_image, DEFAULT_DISC))
                                        for s in state.history))


def _surd_near(x, r, q, disc=26565):
    """A surd over sqrt(disc) within 1/r of x, with coefficient q/r."""
    root = Fraction(math.isqrt(disc * 10 ** 40), 10 ** 20)
    return QuadSurd(round(x * r - q * root), q, r, disc)


def _transcript_targets():
    lo, hi = constants.PRODUCT_LO, constants.PRODUCT_HI
    a, b = Fraction(lo.to_decimal(30)), Fraction(hi.to_decimal(30))
    rng = random.Random(2718)
    out = [lo, hi, constants.TEN_PLUS_6_SQRT2]
    for i in range(30):
        x = a + (b - a) * Fraction(rng.randrange(1, 10 ** 9), 10 ** 9)
        if i % 2 == 0:
            out.append(x)
        else:
            q, r = rng.randrange(1, 60) * rng.choice((1, -1)), rng.randrange(10 ** 4, 10 ** 6)
            out.append(_surd_near(x, r, q))
    return out


def test_product_free_search_keeps_the_transcript():
    # the whole state: both segments with depth and index, every step, and
    # the attempts against the budget
    for t in _transcript_targets():
        assert by_value(decompose(t, 60)) == reference_decompose(t, 60), t


def test_attempts_are_recorded_against_the_budget():
    states = {t: decompose(t, 60) for t in _transcript_targets()}
    assert all(s.budget == 200 + 50 * 60 for s in states.values())
    assert all(s.attempts >= 60 for s in states.values())
    # a target whose search backtracks, so the budget counts dead branches too
    t, state = max(states.items(), key=lambda item: item[1].attempts)
    assert state.attempts > 60
    exact = decompose(t, 60, attempt_budget=state.attempts)
    assert (exact.attempts, exact.budget) == (state.attempts, state.attempts)
    assert exact.history == state.history
    with pytest.raises(Stuck, match=f"budget {state.attempts - 1} exhausted"):
        decompose(t, 60, attempt_budget=state.attempts - 1)


def test_final_node_is_not_expanded(monkeypatch):
    # the search stops at the first node of depth `steps`, so that node's
    # moves would never be tried: one rule step per attempt and none for
    # steps=0
    import f4cantor.decompose as dec

    calls = []
    step = dec.rule_step
    monkeypatch.setattr(dec, "rule_step", lambda frame: calls.append(frame) or step(frame))
    state = decompose(constants.MU_BOUND, 60)
    assert (len(calls), state.attempts) == (65, 65)
    assert by_value(state) == reference_decompose(constants.MU_BOUND, 60)
    calls.clear()
    assert by_value(decompose(constants.MU_BOUND, 0)) == reference_decompose(constants.MU_BOUND, 0)
    assert calls == []


def test_gap_side_hull_ties_keep_the_child():
    # targets equal to the gap-side hull product of a child, x.hi*y.hi of
    # the left one or x.lo*y.lo of the right one, at states along reference
    # paths: the integer moves keep that child, as the reference does, and
    # carry that product
    for t0 in _transcript_targets()[3:7]:
        for k in range(0, 12, 3):
            state = reference_decompose(t0, k)
            x, y = state.frame_x, state.frame_y  # the reference's `Segment`s
            factor = "x" if (x.hi * y.lo - y.hi * x.lo).sign() >= 0 else "y"
            seg, other = (x, y) if factor == "x" else (y, x)
            _, gap, _ = subdivide(seg)
            for t in (gap.left.hi * other.hi, gap.right.lo * other.lo):
                moves = _candidate_moves(segment_frame(x), segment_frame(y), t)
                expected = _reference_moves(x, y, t)
                assert len(expected) >= 1
                assert [(f, pick, frame_segment(c)) for f, pick, c, _ in moves] == expected
                for _, pick, c, product in moves:
                    child = frame_segment(c)
                    gap_side = child.hi * other.hi if pick == 0 else child.lo * other.lo
                    assert moebius_surd(product, DEFAULT_DISC) == gap_side


_LO, _HI = constants.PRODUCT_LO, constants.PRODUCT_HI
_A, _B = Fraction(_LO.to_decimal(30)), Fraction(_HI.to_decimal(30))
_points = st.fractions(0, 1, max_denominator=10 ** 9).map(lambda u: _A + (_B - _A) * u)
_product_targets = st.one_of(
    st.sampled_from([_LO, _HI]),
    _points,
    *(st.builds(_surd_near, _points, st.integers(10 ** 4, 10 ** 6), st.integers(-60, 60),
                st.just(disc)) for disc in (26565, 2)),
)


@given(_product_targets)
@settings(max_examples=100, deadline=None)
def test_every_target_of_the_product_interval_decomposes(target):
    t = _as_target(target)
    assume(cross_field_cmp(_LO, t) <= 0 <= cross_field_cmp(_HI, t))
    state = decompose(target, 40)  # Stuck fails the property
    assert by_value(state) == reference_decompose(target, 40)


@pytest.mark.parametrize("text, disc", [("18.4813", None), ("(7250 - 3*sqrt(2))/392", 2)])
def test_decompose_builds_no_surd_and_its_document_only_the_target(monkeypatch, text, disc):
    # the root frame, the Steps' endpoints and product widths, the final
    # frames and the closing containment check stay integer images, and the
    # document writes its fields from them: a 60-step document without a
    # witness builds one surd, the parsed target
    target = parse_surd(text, disc=disc)
    built = []
    init = QuadSurd.__init__
    monkeypatch.setattr(QuadSurd, "__init__",
                        lambda self, *args, **kwargs: built.append(args) or init(self, *args, **kwargs))
    state = decompose(target, 60)
    assert built == []
    decompose_doc(text, 60, 12, disc=disc)
    assert built == [(target.p, target.q, target.r, target.disc)]
    monkeypatch.undo()
    assert by_value(state) == reference_decompose(target, 60)


@pytest.mark.parametrize("target", [_LO, constants.MU_BOUND, _HI], ids=["lo", "mu", "hi"])
def test_closing_check_tests_the_reported_endpoints(monkeypatch, target):
    # each move's new endpoint is replaced after its hull test passed, so
    # the carried hull product no longer matches the reported endpoints:
    # a left child's hi becomes 0 and a right child's lo 100
    import f4cantor.decompose as dec

    moves = dec._candidate_moves

    def mismatched(fx, fy, t):
        out = []
        for factor, pick, child, product in moves(fx, fy, t):
            side, image = (4, (0, 0, 1, 0)) if pick == 0 else (3, (100, 0, 1, 0))
            child = (*child[:side], image, *child[side + 1:])
            out.append((factor, pick, child, product))
        return out

    monkeypatch.setattr(dec, "_candidate_moves", mismatched)
    with pytest.raises(AssertionError, match="containment invariant broken"):
        decompose(target, 1)
    monkeypatch.undo()
    assert contains_target(decompose(target, 1))


def test_frame_element_lies_in_its_segment():
    st = decompose(constants.MU_BOUND, 25)
    from f4cantor.cf import eval_periodic

    for frame in (st.frame_x, st.frame_y):
        seg = frame_segment(frame)
        val = eval_periodic(frame_element(frame))
        assert seg.lo <= val <= seg.hi


def test_interleave_single_block_example():
    w = interleave((4, 3, 1), (4, 3, 2), [(2, 2)])
    assert w.digits == (1, 3, 4, 4, 3, 2)
    assert w.junctions == (2,)
    assert w.digits[w.junctions[0]] == 4 and w.digits[w.junctions[0] + 1] == 4


def test_interleave_junction_pairs_and_reversed_blocks():
    x = (4, 3, 1, 2, 1, 3, 1, 2, 1)
    y = (4, 3, 2, 1, 3, 1, 2, 1, 1)
    cuts = [(2, 2), (5, 5), (8, 8)]
    w = interleave(x, y, cuts)
    for k in w.junctions:
        assert w.digits[k] == 4 and w.digits[k + 1] == 4
    # S_i reversed blockwise: (y_{m_i}, ..., y_0, x_0, ..., x_{n_i})
    starts = (0, *(end + 1 for end in w.block_ends))
    for i, (n_i, m_i) in enumerate(cuts):
        expect = tuple(reversed(y[: m_i + 1])) + tuple(x[: n_i + 1])
        assert w.digits[starts[i]:w.block_ends[i] + 1][::-1] == expect


def test_interleave_bad_cut():
    with pytest.raises(BadCut):
        interleave((4, 3, 1), (4, 3, 2), [(0, 2)])
    with pytest.raises(ValueError):
        interleave((4, 3, 1, 1), (4, 3, 2, 2), [(2, 2), (2, 3)])


def test_default_cuts_avoid_fours():
    x = (4, 3, 1, 4, 1, 4, 1, 3, 1, 4, 1, 4, 1, 3, 1)
    cuts = default_cuts(x, x, 3)
    for n, m in cuts:
        assert x[n] != 4 and x[m] != 4
    assert all(a < c and b < d for (a, b), (c, d) in zip(cuts, cuts[1:]))


def test_witness_verification_small():
    mu = derived("mu_bound")[0]
    w, state = witness_for_target(mu, steps=220, blocks=10)
    rep = verify_construction(w, mu, i_max=4, scan_digits=len(w.digits),
                              product_width=state.width)
    assert rep["patterns_ok"]
    assert rep["distances_strictly_decreasing"]
    assert rep["junction_distances_bounded"]
    assert rep["off_junction_ok"]
    assert rep["ok"]
    # junction rho values approach the target from the very first block
    assert rep["junction_distances"][0] < Fraction(1, 50)


def test_foreign_field_target_is_contained():
    # the search runs on the sqrt(2) target itself, so the hull keeps it
    # below any rational stand-in's error: here a width under 1e-55
    t = QuadSurd(72, 1, 4, 2)
    state = decompose(t, 300)
    assert state.target is t
    assert contains_target(state)
    assert moebius_surd(state.history[-1].width_image, DEFAULT_DISC) < Fraction(1, 10 ** 55)
    assert by_value(state) == reference_decompose(t, 300)


_foreign_targets = st.builds(_surd_near, _points, st.integers(10 ** 4, 10 ** 6),
                             st.integers(1, 60).map(lambda q: q if q % 2 else -q),
                             st.sampled_from([2, 5]))


@given(_foreign_targets, st.integers(60, 400))
@settings(max_examples=40, deadline=None)
def test_foreign_targets_stay_in_the_final_hull(t, steps):
    assume(cross_field_cmp(_LO, t) <= 0 <= cross_field_cmp(_HI, t))
    assert contains_target(decompose(t, steps))


def test_transcript_records_steps():
    mu = derived("mu_bound")[0]
    st = decompose(mu, 12)
    assert len(st.history) == 12
    for step in st.history:
        assert step.factor in ("x", "y")
        assert step.child in (0, 1)
        assert 1 <= step.type_id <= 9
        assert moebius_surd(step.lo_image, DEFAULT_DISC) < moebius_surd(step.hi_image, DEFAULT_DISC)
    ws = [moebius_surd(s.width_image, DEFAULT_DISC) for s in st.history]
    assert all(a > b for a, b in zip(ws, ws[1:]))


def _enclosure_by_convergents(word):
    seq = convergents(word)
    if len(seq.pairs) < 2:
        return Fraction(1)
    (p1, q1), (p2, q2) = seq.pairs[-2], seq.pairs[-1]
    return abs(Fraction(p2, q2) - Fraction(p1, q1))


def _reference_junction(w, i, t):
    """Distance from t of the Perron product f*s at junction i, and its cap
    without the hull width, (f + e_x)*e2 + s*e_x, each factor and width
    evaluated from scratch: e_x from the convergents of the x digits
    x_0, ..., x_{n_i}, the reversed prefix's first n_i + 1 digits."""
    k = w.junctions[i]
    rho = perron_rho_n(CFWord(w.digits[:w.block_ends[i] + 1]), k)
    reversed_word = CFWord(tuple(w.digits[k::-1]))
    second = CFWord(w.digits[k + 1:w.block_ends[i] + 1])
    e_x = _enclosure_by_convergents(CFWord(reversed_word.digits[:w.cuts[i][0] + 1]))
    e2 = _enclosure_by_convergents(second)
    f, s = eval_finite(reversed_word), eval_finite(second)
    return abs(QuadSurd.from_rational(rho) - t), (f + e_x) * e2 + s * e_x


def _reference_off_junction(w, k):
    """The Perron product at k with its forward factor truncated after 41
    digits, and the enclosure of that truncation."""
    horizon = min(len(w.digits), k + 42)
    rho = perron_rho_n(CFWord(w.digits[:horizon]), k)
    first = eval_finite(CFWord(tuple(w.digits[k::-1])))
    return rho, first * _enclosure_by_convergents(CFWord(w.digits[k + 1:horizon]))


def _samples(w, sample_stride=97):
    start = w.junctions[1] + 2 if len(w.junctions) > 1 else 2
    return [k for k in range(start, len(w.digits) - 2, sample_stride)
            if k not in w.junctions]


def verify_by_reevaluation(w, target, i_max, scan_digits, product_width=None):
    """verify_construction's checks with every Perron factor evaluated from
    scratch: perron_rho_n on the truncated word, eval_finite of the reversed
    prefix and enclosure widths from convergent tables."""
    t = _as_target(target)
    digits = w.digits[:scan_digits]
    junction_set = set(w.junctions)
    pair_bad = [i for i in range(len(digits) - 1)
                if digits[i] == 4 and digits[i + 1] == 4 and i not in junction_set]
    missing = [k for k in w.junctions if k + 1 < len(digits)
               and (digits[k] != 4 or digits[k + 1] != 4)]
    quint_bad = [i for i in range(len(digits) - 4)
                 if tuple(digits[i:i + 5]) == (4, 1, 4, 1, 4)]
    distances = []
    bounded = True
    for i in range(min(i_max, len(w.junctions))):
        d, cap = _reference_junction(w, i, t)
        distances.append(d)
        if product_width is not None and cross_field_cmp(d, cap + product_width) > 0:
            bounded = False
    decreasing = all(a > b for a, b in zip(distances, distances[1:]))
    off_junction_witness = None
    for k in _samples(w):
        rho, enclosure = _reference_off_junction(w, k)
        if QuadSurd.from_rational(rho) > constants.MU_BOUND + QuadSurd.from_rational(enclosure):
            off_junction_witness = k
            break
    return {
        "patterns_ok": not pair_bad and not missing and not quint_bad,
        "stray_pairs": pair_bad[:5],
        "bad_junctions": missing[:5],
        "forbidden_quints": quint_bad[:5],
        "junction_distances": distances,
        "distances_strictly_decreasing": decreasing,
        "junction_distances_bounded": bounded,
        "off_junction_ok": off_junction_witness is None,
        "off_junction_witness": off_junction_witness,
        "ok": (not pair_bad and not missing and not quint_bad
               and decreasing and bounded and off_junction_witness is None),
    }


def _verify_both(target, w, product_width):
    kwargs = dict(i_max=4, scan_digits=len(w.digits), product_width=product_width)
    rep = verify_construction(w, target, **kwargs)
    assert rep == verify_by_reevaluation(w, target, **kwargs)
    return rep


@pytest.fixture(scope="module")
def mu_witness():
    w, state = witness_for_target(constants.MU_BOUND, steps=220, blocks=10)
    return w, state.width


def test_running_fold_matches_reevaluation_on_the_mu_witness(mu_witness):
    rep = _verify_both(constants.MU_BOUND, *mu_witness)
    assert rep["ok"] and len(rep["junction_distances"]) == 4


PINNED = Fraction(18562466658343083, 10 ** 15)


def test_running_fold_matches_reevaluation_on_a_target_the_word_enclosure_refused():
    # this rational target's junction distances exceeded a cap that took the
    # whole reversed word's enclosure for the x factor's; the x-stream
    # convergent width bounds them
    w, state = witness_for_target(PINNED, steps=220, blocks=10)
    rep = _verify_both(PINNED, w, state.width)
    assert rep["junction_distances_bounded"] and rep["ok"]


def test_a_witness_checked_against_another_target_fails(mu_witness):
    # the mu witness's junction products approach mu, not this target
    rep = _verify_both(PINNED, *mu_witness)
    assert not rep["junction_distances_bounded"] and not rep["ok"]


def test_running_fold_matches_reevaluation_on_a_foreign_target():
    # the junction distances lie in the target's field, Q(sqrt(2)), and are
    # compared with a cap that holds the hull width, in Q(sqrt(26565))
    target = QuadSurd(72, 1, 4, 2)
    w, state = witness_for_target(target, steps=240, blocks=64)
    rep = _verify_both(target, w, state.width)
    assert all(d.disc == 2 for d in rep["junction_distances"])
    assert rep["junction_distances_bounded"] and rep["ok"]


TINY = QuadSurd.from_rational(Fraction(1, 10 ** 300))


@pytest.mark.parametrize("below, bounded", [(False, True), (True, False)])
def test_running_fold_matches_reevaluation_at_the_junction_cap(mu_witness, below, bounded):
    # the hull width at which the tightest junction's distance equals its cap
    # exactly, so that any error in an enclosure width flips the verdict
    w, _ = mu_witness
    mu = constants.MU_BOUND
    tight = max(d - cap for d, cap in (_reference_junction(w, i, mu) for i in range(4)))
    rep = _verify_both(mu, w, tight - TINY if below else tight)
    assert rep["junction_distances_bounded"] is bounded


@pytest.mark.parametrize("cap, witness", [("tight", None), ("below", 211), (7, 17)])
def test_running_fold_matches_reevaluation_at_the_perron_cap(monkeypatch, mu_witness,
                                                              cap, witness):
    # off-junction products of the mu witness sampled at 17, 114, 211 and 308
    # are about 7.5, 6.3, 14.5 and 6.0; "tight" sets the cap to the largest
    # product minus its enclosure, "below" just under that, and 7 makes 17
    # and 211 fail, of which the first is reported
    w, width = mu_witness
    tight = max(QuadSurd.from_rational(rho - enclosure)
                for rho, enclosure in (_reference_off_junction(w, k) for k in _samples(w)))
    if cap == "tight":
        mu = tight
    elif cap == "below":
        mu = tight - TINY
    else:
        mu = QuadSurd.from_rational(Fraction(cap))
    monkeypatch.setattr(constants, "MU_BOUND", mu)
    rep = _verify_both(derived("mu_bound")[0], w, width)
    assert rep["off_junction_witness"] == witness
