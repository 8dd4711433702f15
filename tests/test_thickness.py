import random
from fractions import Fraction

import pytest

from f4cantor import cf, constants
from f4cantor.cf import epsilon_seq, CFWord, moebius_sub
from f4cantor.segments import generate, root_segment, subdivide
from f4cantor.surd import DEFAULT_DISC, FieldMismatch, QuadSurd
from f4cantor.thickness import (CertReport, ConstantCheck, DomainError, GapFailure, TailOrder,
                                _log_conditions, certify, child_tail_values,
                                constant_cross_checks, gamma_exclusion_check,
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
    # jobs=2 sends the root's gap and its two subtrees to a pool of two
    # workers where two CPUs are usable (inline otherwise); under 0.9*lambda
    # both subtrees fail, so the merge of worst gaps and failures is tested
    for lam in (None, global_lambda() * Fraction(9, 10)):
        serial = certify(11, lambda_override=lam)
        parallel = certify(11, jobs=2, lambda_override=lam)
        assert serial == parallel
    # a gap's index is its parent's; the first subtree holds the parents with
    # index <= 2^(depth-2) at gap depth >= 2
    assert {f.index <= 2 ** (f.depth - 2) for f in serial.failures if f.depth > 1} == {True, False}


def test_quad_surd_round_trips_through_pickle():
    import pickle

    from f4cantor.segments import root_segment, subdivide

    lam = global_lambda()
    assert pickle.loads(pickle.dumps(lam)) == lam
    _, gap, _ = subdivide(root_segment())
    restored = pickle.loads(pickle.dumps(gap))
    assert restored.lo == gap.lo and restored.parent.hi == gap.parent.hi
    assert type(restored) is type(gap) and restored == gap


def reference_certify(depth, lambda_override=None):
    """certify as a loop over `generate`'s gaps with built ratio surds,
    `gap_ratios_exact` and `log_conditions_for_gap`; the first worst gap in
    generation order wins."""
    records = type_bound_records()
    lam_true = global_lambda(records)
    tau = tau_lower(records)
    gamma = gamma_value(lam_true)
    lam = lambda_override if lambda_override is not None else lam_true
    bounds = {r.type_id: (r.bound_left, r.bound_right) for r in records}
    _, gaps = generate(depth)
    failures = []
    worst = worst_gap = None
    for gap in gaps:
        r1, r2 = gap_ratios_exact(gap)
        bl, br = bounds[gap.parent.type_id]
        if r1 > bl or r2 > br:
            failures.append(GapFailure(gap.depth, gap.index, "type-bound"))
        big = r1 if r1 >= r2 else r2
        if big > lam:
            failures.append(GapFailure(gap.depth, gap.index, "lambda"))
        if worst is None or big > worst:
            worst, worst_gap = big, gap
        if not all(log_conditions_for_gap(gap)):
            failures.append(GapFailure(gap.depth, gap.index, "log-condition"))
    checks = constant_cross_checks(records, lam_true, tau, gamma)
    checks.append(ConstantCheck("gamma_identity", gamma, constants.GAMMA,
                                gamma_exclusion_check()["ok"]))
    return CertReport(depth, len(gaps), lam, tau, gamma, worst,
                      not any(f.kind != "log-condition" for f in failures),
                      not any(f.kind == "log-condition" for f in failures),
                      tuple(checks), tuple(failures), worst_gap)


@pytest.mark.parametrize("depth", range(1, 11))
def test_certify_matches_the_reference_loop(depth):
    assert certify(depth) == reference_certify(depth)


@pytest.mark.parametrize("depth,factor,count", [
    (5, Fraction(1, 2), 31),
    (8, Fraction(99, 100), 10),
    (9, Fraction(9, 10), 284),
    (10, Fraction(97, 100), 44),
])
def test_certify_matches_the_reference_loop_under_tampered_lambda(depth, factor, count):
    lam = global_lambda() * factor
    rep = certify(depth, lambda_override=lam)
    assert rep == reference_certify(depth, lambda_override=lam)
    assert len(rep.failures) == count and not rep.passed


def test_foreign_lambda_override_is_refused_or_re_embedded():
    with pytest.raises(FieldMismatch):
        certify(2, lambda_override=QuadSurd(1, 1, 3, 2))
    half = QuadSurd(1, 0, 2, 2)
    rep = certify(2, lambda_override=half)
    assert rep == reference_certify(2, lambda_override=half)
    assert [f.kind for f in rep.failures] == ["lambda"] * 3
    assert rep.lam is half


def test_certify_builds_surds_only_for_constants_and_the_worst_gap(monkeypatch):
    built = [0]
    init = QuadSurd.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuadSurd, "__init__", counting)
    counts = []
    for depth in (6, 9):
        built[0] = 0
        certify(depth)
        counts.append(built[0])
    assert counts[0] == counts[1]


def _random_value(rng, field):
    """A positive value: a rational, or (p + q*sqrt(26565))/r."""
    if field:
        q = rng.choice((-1, 1)) * rng.randint(1, 40)
        # 162 < sqrt(26565) < 163, so p + q*sqrt(26565) > 0
        p = (-162 * q if q > 0 else -163 * q) + rng.randint(0, 400)
        return QuadSurd(p, q, rng.randint(1, 500))
    return QuadSurd(rng.randint(1, 5000), 0, rng.randint(1, 500))


def _threshold_intervals(rng, field):
    """Ordered a < b < c < d with one log inequality met with equality."""
    a = _random_value(rng, field)
    b = a + _random_value(rng, field)
    c = b + _random_value(rng, field) / 20
    kind = rng.randrange(4)
    if kind == 0:    # forward s = r
        c = b + (b - a)
        d = c + _random_value(rng, field)
    elif kind == 1:  # forward s^2 + (a+r)s = (a+r)t
        d = c + (c - b) * c / b
    elif kind == 2:  # mirrored s' = r': g*d = b*(d - c)
        d = b * c / (b - (c - b))
    else:            # mirrored quadratic: g*a = b*(b - a)
        a = b * b / (b + (c - b))
        d = c + _random_value(rng, field)
    return a, b, c, d


def test_integer_log_conditions_match_log_gap_condition():
    rng = random.Random(26565)
    seen = {"fwd_fail": 0, "mir_fail": 0, "both": 0, "threshold": 0}
    for n in range(3000):
        field = n % 2 == 1
        if n % 3 == 0:
            a, b, c, d = _threshold_intervals(rng, field)
            if not (0 < a < b < c < d):
                continue
        else:
            values = sorted({_random_value(rng, field) for _ in range(4)})
            if len(values) < 4:
                continue
            a, b, c, d = values
        want = (log_gap_condition(a, b - a, c - b, d - c),
                log_gap_condition(1 / d, (d - c) / (c * d), (c - b) / (b * c), (b - a) / (a * b)))
        lo1, hi1, lo2, hi2 = ((v.p, v.q, v.r, 0) for v in (a, b, c, d))
        got = _log_conditions(lo1, hi1, lo2, hi2, moebius_sub(lo2, hi1, DEFAULT_DISC),
                              moebius_sub(hi1, lo1, DEFAULT_DISC),
                              moebius_sub(hi2, lo2, DEFAULT_DISC))
        assert got == want, (a, b, c, d)
        seen["fwd_fail"] += not want[0]
        seen["mir_fail"] += not want[1]
        seen["both"] += all(want)
        seen["threshold"] += n % 3 == 0
    assert min(seen.values()) > 100


def test_worst_gap_ties_keep_the_first_in_generation_order():
    from f4cantor.thickness import _worse

    # the same ratio twice: the second pair has both numerators doubled
    first = ((3, 1, 7, 0), (5, 1, 11, 2), 3, 5, None)
    later = ((6, 2, 7, 0), (10, 2, 11, 2), 3, 6, None)
    assert _worse(first, later) and not _worse(later, first)
    assert _worse(later[:2] + (2, 7, None), first)
    assert not _worse(first, first)


def test_walk_feeds_the_log_conditions_each_gaps_endpoints(monkeypatch):
    from f4cantor import thickness

    seen = []

    def recording(*args):
        seen.append(tuple(cf.moebius_surd(e, DEFAULT_DISC) for e in args))
        return _log_conditions(*args)

    monkeypatch.setattr(thickness, "_log_conditions", recording)
    certify(6)
    _, gaps = generate(6)
    assert sorted(map(str, seen)) == sorted(
        str((gap.left.lo, gap.left.hi, gap.right.lo, gap.right.hi, gap.length,
             gap.left.length, gap.right.length)) for gap in gaps)
