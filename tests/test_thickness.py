import json
import random
from fractions import Fraction

import pytest

from f4cantor import cf, constants, thickness
from f4cantor.cf import CFWord, moebius_sub
from f4cantor.segments import generate, root_segment, segment_frame, subdivide
from f4cantor.surd import DEFAULT_DISC, QuadSurd
from f4cantor.thickness import (CertReport, DomainError, GapFailure, RatioBoundRecord,
                                TailOrder, _log_conditions, certify, child_tail_values,
                                constant_cross_checks, gamma_exclusion_check,
                                gap_ratios_exact, uniform_ratio_bound_pair,
                                log_conditions_for_gap, log_gap_condition,
                                type_bound_records)
from reference import as_fraction, epsilon_seq


def derived(*names):
    """The computed values of the named `constant_cross_checks` rows."""
    rows = {c.name: c.computed for c in constant_cross_checks()}
    return tuple(rows[name] for name in names)


def tamper_lambda(patch, lam):
    """Make the `lambda` row of `thickness.constant_cross_checks()`, which
    `certify` and `reference_certify` read, hold `lam`, and fail unless it
    is the constant."""
    rows = [c._replace(computed=lam, passed=lam == c.expected) if c.name == "lambda" else c
            for c in constant_cross_checks()]
    patch.setattr(thickness, "constant_cross_checks", lambda: rows)


def test_type6_bound_values():
    a, b, c, d = child_tail_values(6)
    left, right = uniform_ratio_bound_pair(a, b, c, d)
    assert left == QuadSurd(-1760165, 12317, 3740264)
    assert right == QuadSurd(228339, 83497, 14071116)
    assert max(left, right) == constants.LAMBDA


def test_type9_bound_below_cap():
    bound = max(uniform_ratio_bound_pair(*child_tail_values(9)))
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
        uniform_ratio_bound_pair(one, one + 2, one + 1, one + 3)


def test_global_lambda_and_tau():
    lam, tau = derived("lambda", "tau_lower")
    assert lam == constants.LAMBDA
    assert tau == constants.TAU_LOWER
    assert tau > 1


def test_gamma_identity_and_exclusion():
    lam, gamma = derived("lambda", "gamma")
    assert gamma == constants.GAMMA
    # defining identity gamma = ((2/lambda - 1)^2 - 1)/4 re-checked directly
    assert ((2 / lam - 1) ** 2 - 1) / 4 == gamma
    root = root_segment()
    gex = gamma_exclusion_check(gamma, root.lo, root.hi)
    assert gex["ok"] and gex["threshold_ok"] and gex["width_ok"]


def test_gamma_identity_decides_on_the_derived_root(monkeypatch):
    # ROOT_LO moved so far that gamma * ROOT_LO < 0.07: only the root_lo row
    # fails, since gamma_identity tests the root interval the table derives
    monkeypatch.setattr(constants, "ROOT_LO", QuadSurd(4, 0, 1))
    assert constants.GAMMA * constants.ROOT_LO < constants.SEVEN_HUNDREDTHS
    rows = {c.name: c for c in constant_cross_checks()}
    assert rows["gamma_identity"].passed
    assert [name for name, c in rows.items() if not c.passed] == ["root_lo"]


def test_constant_cross_checks_rows():
    checks = constant_cross_checks()
    types = [f"type{t}_bound_{side}" for t in range(1, 10) for side in ("left", "right")]
    assert [c.name for c in checks] == [
        "root_lo", "root_hi", "lambda", "tau_lower", "gamma", "product_lo", "product_hi",
        "mu_bound", "delta_bound", *types, "gamma_identity"]
    assert all(c.passed for c in checks)
    assert all(c.computed == c.expected for c in checks)


def _records_with_bound_one():
    one = QuadSurd.from_rational(1)
    return [RatioBoundRecord(1, one, one)]


# one derivation broken at a time, with the exit codes of `endpoints`,
# `bounds` and `certify --depth 2`: tau <= 1, which certify's verdict rests
# on, stops every document with its message; any other break reads false,
# with exit 1, in the flags that decide it (a section and key of `bounds`,
# and a row of certify's constant checks or None), and the other documents
# pass
DERIVATION_FAILURES = {
    "type-bound-above-cap": ("TYPE_BOUNDS", {**constants.TYPE_BOUNDS, 6: (
        *constants.TYPE_BOUNDS[6][:2], Fraction(983, 1000))}, (0, 1, 0), ("type_bounds", 5, None)),
    "tau-at-most-one": (None, None, (2, 2, 2), "thickness bound failed: 1/lambda <= 1"),
    "delta-unequal": ("DELTA_BOUND", constants.DELTA_BOUND + Fraction(1, 10 ** 6), (0, 1, 1),
                      ("constants", "delta_bound", "delta_bound")),
    "mu-not-below-cap": ("TEN_PLUS_6_SQRT2", constants.MU_BOUND, (0, 1, 0),
                         ("constants", "mu_below_10_plus_6_sqrt2", None)),
}


def _break_derivation(monkeypatch, case):
    from f4cantor import thickness

    name, value = DERIVATION_FAILURES[case][:2]
    if name is None:
        monkeypatch.setattr(thickness, "type_bound_records", _records_with_bound_one)
    else:
        monkeypatch.setattr(constants, name, value)


@pytest.mark.parametrize("case", [case for case, (*_, decided) in DERIVATION_FAILURES.items()
                                  if isinstance(decided, str)])
def test_each_broken_derivation_raises(case, monkeypatch):
    _break_derivation(monkeypatch, case)
    with pytest.raises(AssertionError, match=DERIVATION_FAILURES[case][3]):
        constant_cross_checks()


@pytest.mark.parametrize("case", DERIVATION_FAILURES)
def test_each_broken_derivation_fails_only_the_documents_that_show_it(case, monkeypatch, capsys):
    from f4cantor.cli import main

    _break_derivation(monkeypatch, case)
    _, _, codes, decided = DERIVATION_FAILURES[case]
    runs = []
    for argv in (["endpoints"], ["bounds"], ["certify", "--depth", "2"]):
        code = main(argv)
        out, err = capsys.readouterr()
        runs.append((code, err if code == 2 else json.loads(out)))
    assert tuple(code for code, _ in runs) == codes
    if isinstance(decided, str):
        assert {err for _, err in runs} == {f"error: {decided}\n"}
        return
    (_, endpoints), (_, bounds), (_, cert) = runs
    section, key, row = decided
    entries = bounds[section]
    shown = enumerate(entries) if isinstance(entries, list) else entries.items()
    assert [k for k, entry in shown if not entry["passed"]] == [key]
    assert endpoints["passed"] and not bounds["passed"]
    failing = [c["name"] for c in cert["constant_checks"] if not c["passed"]]
    assert failing == ([row] if row else []) and cert["passed"] is (row is None)


def test_root_split_ratios_below_type1_cap():
    _, gap, _ = subdivide(root_segment())
    r1, r2 = gap_ratios_exact(gap)
    cap = Fraction(964, 1000)
    assert r1 <= cap and r2 <= cap
    assert max(r1, r2) <= derived("lambda")[0]


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
    assert Fraction(1, 3) <= as_fraction(ratio) <= 3


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


def test_certify_tampered_lambda_fails_with_witnesses(monkeypatch):
    tamper_lambda(monkeypatch, derived("lambda")[0] / 2)
    rep = certify(5)
    assert not rep.passed
    assert any(f.kind == "lambda" for f in rep.failures)


def test_certify_jobs_parallel_matches_serial(monkeypatch):
    # jobs=2 sends the root's gap and its two subtrees to a pool of two
    # workers where two CPUs are usable (inline otherwise); under 0.9*lambda
    # both subtrees fail, so the merge of worst gaps and failures is tested
    assert certify(11) == certify(11, jobs=2)
    tamper_lambda(monkeypatch, derived("lambda")[0] * Fraction(9, 10))
    serial = certify(11)
    assert serial == certify(11, jobs=2)
    # a gap's index is its parent's; the first subtree holds the parents with
    # index <= 2^(depth-2) at gap depth >= 2
    assert {f.index <= 2 ** (f.depth - 2) for f in serial.failures if f.depth > 1} == {True, False}


def test_quad_surd_round_trips_through_pickle():
    import pickle

    from f4cantor.segments import root_segment, subdivide

    lam = derived("lambda")[0]
    assert pickle.loads(pickle.dumps(lam)) == lam
    _, gap, _ = subdivide(root_segment())
    restored = pickle.loads(pickle.dumps(gap))
    assert restored.lo == gap.lo and restored.parent.hi == gap.parent.hi
    assert type(restored) is type(gap) and restored == gap


def reference_certify(depth):
    """certify as a loop over `generate`'s gaps with built ratio surds,
    `gap_ratios_exact` and `log_conditions_for_gap`; the first worst gap in
    generation order wins, reported as the frames of its parent and its
    value-ordered children."""
    checks = thickness.constant_cross_checks()
    row = {c.name: c.computed for c in checks}
    tau, gamma, lam = row["tau_lower"], row["gamma"], row["lambda"]
    bounds = {r.type_id: (r.bound_left, r.bound_right) for r in type_bound_records()}
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
    return CertReport(depth, len(gaps), lam, tau, gamma, worst,
                      not any(f.kind != "log-condition" for f in failures),
                      not any(f.kind == "log-condition" for f in failures),
                      tuple(checks), tuple(failures),
                      tuple(map(segment_frame, worst_gap[2:5])))


@pytest.mark.parametrize("depth", range(1, 11))
def test_certify_matches_the_reference_loop(depth):
    assert certify(depth) == reference_certify(depth)


@pytest.mark.parametrize("depth,factor,count", [
    (5, Fraction(1, 2), 31),
    (8, Fraction(99, 100), 10),
    (9, Fraction(9, 10), 284),
    (10, Fraction(97, 100), 44),
])
def test_certify_matches_the_reference_loop_under_tampered_lambda(monkeypatch, depth, factor,
                                                                   count):
    lam = derived("lambda")[0] * factor
    tamper_lambda(monkeypatch, lam)
    rep = certify(depth)
    assert rep == reference_certify(depth)
    assert rep.lam == lam and len(rep.failures) == count and not rep.passed


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
