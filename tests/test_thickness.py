from fractions import Fraction

import pytest

from f4cantor import cf, constants
from f4cantor.cf import epsilon_seq, CFWord
from f4cantor.segments import generate, root_segment, subdivide
from f4cantor.surd import QuadSurd
from f4cantor.thickness import (DomainError, TailOrder, certify,
                                child_tail_values, gamma_exclusion_check,
                                gamma_value, gap_ratios_exact, global_lambda,
                                uniform_ratio_bound, uniform_ratio_bound_pair,
                                log_conditions_for_gap, log_gap_condition,
                                tau_lower, type_bound_records)


def test_type6_bound_values():
    a, b, c, d = child_tail_values(6)
    left, right = uniform_ratio_bound_pair(a, b, c, d)
    assert left == QuadSurd(-1760165, 12317, 3740264)
    assert right == QuadSurd(228339, 83497, 14071116)
    assert uniform_ratio_bound(a, b, c, d) == constants.LAMBDA


def test_type9_bound_below_cap():
    bound = uniform_ratio_bound(*child_tail_values(9))
    assert bound <= Fraction(777, 1000)


def test_type2_and_type4_share_expression():
    _, right2 = uniform_ratio_bound_pair(*child_tail_values(2))
    left4, _ = uniform_ratio_bound_pair(*child_tail_values(4))
    assert right2 == left4 == QuadSurd(734627, 22099, 5347148)


def test_all_nine_records_match_expected_forms():
    for rec in type_bound_records():
        el, er, cap = constants.TYPE_BOUNDS[rec.type_id]
        assert rec.bound_left == el
        assert rec.bound_right == er
        assert rec.bound <= cap


def test_tail_order_enforced():
    one = QuadSurd(1, 0, 1)
    with pytest.raises(TailOrder):
        uniform_ratio_bound(one, one + 2, one + 1, one + 3)


def test_global_lambda_and_tau():
    lam = global_lambda()
    assert lam == constants.LAMBDA
    tau = tau_lower()
    assert tau == constants.TAU_LOWER
    assert tau > 1


def test_gamma_identity_and_exclusion():
    lam = global_lambda()
    gamma = gamma_value(lam)
    assert gamma == constants.GAMMA
    # defining identity gamma = ((2/lambda - 1)^2 - 1)/4 re-checked directly
    assert ((2 / lam - 1) ** 2 - 1) / 4 == gamma
    gex = gamma_exclusion_check()
    assert gex["ok"] and gex["threshold_ok"] and gex["width_ok"]


def test_root_split_ratios_below_type1_cap():
    _, gap, _ = subdivide(root_segment())
    r1, r2 = gap_ratios_exact(gap)
    cap = Fraction(964, 1000)
    assert r1 <= cap and r2 <= cap
    assert max(r1, r2) <= global_lambda()


def test_exact_ratio_equals_epsilon_formula_and_brackets():
    # |G|/|child| computed from endpoints equals the tail-value formula at
    # the prefix's actual eps_n, which the eps=1 and eps=1/5 caps bracket
    _, gaps = generate(6)
    for gap in gaps[:40]:
        parent = gap.parent
        a, b, c, d = child_tail_values(parent.type_id)
        eps = epsilon_seq(CFWord(parent.prefix))[-1]
        r1, r2 = gap_ratios_exact(gap)
        assert r1 == ((a + eps) * (c - b)) / ((c + eps) * (b - a))
        assert r2 == ((d + eps) * (c - b)) / ((b + eps) * (d - c))
        lo1 = ((a + Fraction(1, 5)) * (c - b)) / ((c + Fraction(1, 5)) * (b - a))
        hi2 = ((d + 1) * (c - b)) / ((b + 1) * (d - c))
        bl, br = uniform_ratio_bound_pair(a, b, c, d)
        assert lo1 <= r1 <= bl
        assert hi2 <= r2 <= br


def test_log_gap_condition_basic():
    assert log_gap_condition(1, 1, Fraction(1, 100), 1)
    with pytest.raises(DomainError):
        log_gap_condition(1, 1, 0, 1)
    assert DomainError is cf.DomainError
    # threshold at a = r = t = 1 is sqrt(3) - 1; straddle it
    assert log_gap_condition(1, 1, Fraction(7320, 10000), 1)
    assert not log_gap_condition(1, 1, Fraction(7321, 10000), 1)
    # s ≤ r is required even when the quadratic part holds
    assert not log_gap_condition(1, Fraction(1, 100), Fraction(2, 100), 1)


def test_log_conditions_on_generated_gaps():
    _, gaps = generate(7)
    for gap in gaps:
        fwd, mir = log_conditions_for_gap(gap)
        assert fwd and mir


def test_length_ratio_hypothesis_for_equal_intervals():
    # the sum-set machinery needs the two base intervals within a factor 3
    # of each other; both factors start as the root interval, ratio exactly 1
    root = root_segment()
    ratio = root.length / root.length
    assert Fraction(1, 3) <= ratio.as_fraction() <= 3


def test_certify_small_depth():
    rep = certify(1)
    assert rep.passed
    assert rep.gap_count == 1
    assert rep.worst_ratio <= Fraction(964, 1000)


def test_certify_depth_eight():
    rep = certify(8)
    assert rep.passed
    assert rep.gap_count == 255
    assert rep.worst_ratio <= rep.lam
    assert all(c.passed for c in rep.constant_checks)


def test_certify_tampered_lambda_fails_with_witnesses():
    rep = certify(5, lambda_override=global_lambda() / 2)
    assert not rep.passed
    assert any(f.kind == "lambda" for f in rep.failures)


def test_certify_jobs_parallel_matches_serial():
    # depth 11 gives 2047 gaps = four chunks, so the worker pool really runs
    # (everything on the chunk boundary must survive pickling)
    serial = certify(11)
    parallel = certify(11, jobs=2)
    assert serial.worst_ratio == parallel.worst_ratio
    assert serial.passed == parallel.passed
    assert [f.kind for f in serial.failures] == [f.kind for f in parallel.failures]


def test_quad_surd_round_trips_through_pickle():
    import pickle

    from f4cantor.segments import root_segment, subdivide

    lam = global_lambda()
    assert pickle.loads(pickle.dumps(lam)) == lam
    _, gap, _ = subdivide(root_segment())
    restored = pickle.loads(pickle.dumps(gap))
    assert restored.lo == gap.lo and restored.parent.hi == gap.parent.hi
    assert type(restored) is type(gap) and restored == gap
