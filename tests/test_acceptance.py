"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary; every tolerance is exact (surd equality or exact rational
comparison) unless stated otherwise in the test body.
"""

import random
from fractions import Fraction

from f4cantor import constants
from f4cantor.cf import moebius_surd
from f4cantor.decompose import decompose, verify_construction, witness_for_target
from f4cantor.oracle import cylinder_level_check
from f4cantor.segments import root_segment
from f4cantor.surd import DEFAULT_DISC, QuadSurd
from f4cantor.thickness import (certify, constant_cross_checks, gamma_exclusion_check,
                                type_bound_records)
from reference import contains_target

SEED = 26565


def report(n, name):
    print(f"[acceptance {n}] {name}: PASS")


def test_criterion_1_exact_constant_regression():
    root = root_segment()
    assert root.lo == QuadSurd(783, 1, 222)
    assert root.hi == QuadSurd(5501, -1, 1238)

    row = {c.name: c.computed for c in constant_cross_checks()}
    lam = row["lambda"]
    assert lam == QuadSurd(228339, 83497, 14071116)

    tau = row["tau_lower"]
    assert tau == QuadSurd(-228339, 83497, 13158329)
    assert tau > 1

    gamma = row["gamma"]
    assert gamma == QuadSurd(188261210808537, -1136812239479, 173141622072241)
    assert ((2 / lam - 1) ** 2 - 1) / 4 == gamma

    plo, phi = row["product_lo"], row["product_hi"]
    assert plo == QuadSurd(106609, 261, 8214)
    assert phi == QuadSurd(15143783, -5501, 766322)

    delta = row["delta_bound"]
    assert delta == QuadSurd(44067, 111, 65522)
    report(1, "exact constant regression")


def test_criterion_2_nine_type_bound_table():
    caps = [Fraction(c, 1000) for c in (964, 811, 911, 811, 911, 984, 811, 910, 777)]
    records = type_bound_records()
    assert len(records) == 9
    for rec, cap in zip(records, caps):
        el, er, expected_cap = constants.TYPE_BOUNDS[rec.type_id]
        assert rec.bound_left == el, f"type {rec.type_id} left form"
        assert rec.bound_right == er, f"type {rec.type_id} right form"
        assert cap == expected_cap
        assert rec.bound_left <= cap and rec.bound_right <= cap
    report(2, "nine-type bound table, exact forms and caps")


def test_criterion_3_thickness_certification_depth_12():
    rep = certify(12)
    assert rep.gap_count == 4095
    assert rep.ratio_all_pass, rep.failures[:5]
    assert rep.log_condition_all_pass, rep.failures[:5]
    assert not rep.failures
    assert rep.worst_ratio <= rep.lam
    root = root_segment()
    assert gamma_exclusion_check(rep.gamma, root.lo, root.hi)["ok"]
    assert rep.passed
    report(3, "depth-12 certification (4095 gaps, ratio + log conditions)")


def test_criterion_4_oracle_equivalence():
    for n in range(0, 11):
        level = cylinder_level_check(n + 2)  # one kernel walk of the level
        assert level["passed"], f"n={n}: {level}"
        assert level["cylinders"] == level["transfer_count"]
        assert level["max_stop_level"] <= 3 * n
        assert level["disjoint"] and level["nested"]
        assert level["engine_matches_oracle"], f"n={n}"
    report(4, "engine vs cylinder oracle, n <= 10, counts vs transfer matrix")


def test_criterion_5_decomposition_corpus():
    rng = random.Random(SEED)
    lo_r, hi_r = Fraction(18158, 1000), Fraction(18591, 1000)
    threshold = Fraction(1, 10 ** 6)
    for _ in range(100):
        target = lo_r + (hi_r - lo_r) * Fraction(rng.randrange(10 ** 12), 10 ** 12)
        state = decompose(target, 60)  # Stuck would raise
        widths = [moebius_surd(s.width_image, DEFAULT_DISC) for s in state.history]
        assert contains_target(state)
        assert all(a > b for a, b in zip(widths, widths[1:]))
        assert state.width < threshold
    report(5, "100 pseudorandom targets, width < 1e-6 by depth 60, no Stuck")


def test_criterion_6_witness_verification():
    mu = {c.name: c.computed for c in constant_cross_checks()}["mu_bound"]
    witness, state = witness_for_target(mu, steps=240, blocks=64)
    assert len(witness.digits) >= 10_000
    rep = verify_construction(witness, mu, i_max=6, scan_digits=10_000,
                              product_width=state.width)
    assert rep["patterns_ok"], (rep["stray_pairs"], rep["forbidden_quints"])
    assert len(rep["junction_distances"]) == 6
    assert rep["distances_strictly_decreasing"], rep["junction_distances"]
    assert rep["junction_distances_bounded"]
    assert rep["off_junction_ok"], rep["off_junction_witness"]
    assert rep["ok"]
    report(6, "witness word for mu target: patterns, convergence, Perron cap")


def test_criterion_7_property_suites_standalone():
    # the suites live in tests/test_properties.py and run on their own; this
    # smoke-runs one representative instance of each invariant family
    from f4cantor.cf import CFWord, PeriodicCF, convergents, eval_periodic, fold_matrix
    from reference import check_disjoint, check_nested, enumerate_cn, epsilon_seq

    seq = convergents(CFWord((4, 3, 1, 4, 1, 4)))
    assert all(seq.p(k) * seq.q(k - 1) - seq.p(k - 1) * seq.q(k) == (-1) ** (k - 1)
               for k in range(6))
    assert all(Fraction(1, 5) <= e <= 1 for e in epsilon_seq(CFWord((4, 4, 4, 4)))[1:])
    a, b = QuadSurd(3, -2, 7), QuadSurd(-1, 5, 3)
    assert a * (b + 1) == a * b + a
    t = eval_periodic(PeriodicCF((), (2, 1)))
    ma, mb, mc, md = fold_matrix((2, 1))
    assert t * (t * mc + md) - (t * ma + mb) == QuadSurd(0, 0, 1, t.disc)
    c4, c5 = enumerate_cn(4), enumerate_cn(5)
    assert check_disjoint(c5) and check_nested(c5, c4)
    report(7, "property suites present and sound (see tests/test_properties.py)")
