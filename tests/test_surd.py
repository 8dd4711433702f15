import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f4cantor.cf import moebius_product_cmp
from f4cantor.surd import (DEFAULT_DISC, DivByZero, FieldMismatch, QuadSurd,
                           _format_scaled, _scaled_root, cross_field_cmp, decimal_text,
                           parse_surd)
from reference import as_fraction, cross_field_cmp_by_surds

ROOT_LO = QuadSurd(783, 1, 222)
ROOT_HI = QuadSurd(5501, -1, 1238)


def test_identity_multiplication():
    one = QuadSurd(1, 0, 1)
    x = QuadSurd(7, -3, 5)
    assert one * x == x


def test_square_of_left_endpoint_is_product_interval_lo():
    sq = ROOT_LO * ROOT_LO
    assert sq == QuadSurd(106609, 261, 8214)


def test_conjugate_product_is_rational():
    x = QuadSurd(7, 3, 4)
    prod = x * x.conjugate()
    assert prod.q == 0
    assert as_fraction(prod) == Fraction(49 - 9 * DEFAULT_DISC, 16)


def test_sign_zero():
    assert QuadSurd(0, 0, 1).sign() == 0


def test_sign_of_root_interval_length():
    assert (ROOT_HI - ROOT_LO).sign() == 1


def test_sign_of_tau_numerator():
    # 83497*sqrt(26565) - 228339 over 13158329 exceeds 1
    tau = QuadSurd(-228339, 83497, 13158329)
    assert (tau - 1).sign() == 1


def test_decimal_golden_ratio():
    assert QuadSurd(1, 1, 2, 5).to_decimal(5) == "1.61803"


def test_decimal_lambda_and_gamma():
    lam = QuadSurd(228339, 83497, 14071116)
    assert lam.to_decimal(4) == "0.9834"
    gamma = QuadSurd(188261210808537, -1136812239479, 173141622072241)
    assert gamma.to_decimal(3) == "0.017"


def _reference_to_decimal(x, digits):
    """Correct rounding with a fresh math.isqrt on every call: for integer
    A and r > 0, floor((A + B)/r) == floor((A + floor(B))/r), and
    q*sqrt(D) is irrational, so floor(q*sqrt(D)*X) is one isqrt away."""
    two = 2 * 10 ** digits
    root = math.isqrt(x.q * x.q * x.disc * two * two)
    floor_b = root if x.q > 0 else -root - 1
    twice = (x.p * two + floor_b) // x.r  # floor(2 * x * 10^digits)
    return _format_scaled((twice + 1) // 2, digits)


@pytest.mark.parametrize("disc", [2, 26565])
def test_to_decimal_matches_per_call_isqrt_reference(disc):
    rng = random.Random(disc)
    surds = [QuadSurd(rng.randrange(-10 ** 6, 10 ** 6), rng.choice((1, -1)) * rng.randrange(1, 500),
                      rng.randrange(1, 10 ** 5), disc) for _ in range(40)]
    for digits in (1, 3, 12, 30, 55, 120):
        for x in surds:
            # twice, so the second call reads the cached root
            assert x.to_decimal(digits) == _reference_to_decimal(x, digits), (x, digits)
            assert x.to_decimal(digits) == _reference_to_decimal(x, digits), (x, digits)
    for m in (9, 20, 63, 200):
        assert _scaled_root(disc, m) == math.isqrt(disc * 10 ** (2 * m))


@given(st.integers(-10 ** 30, 10 ** 30), st.integers(-10 ** 12, 10 ** 12),
       st.integers(1, 10 ** 20), st.sampled_from([DEFAULT_DISC, 2]),
       st.integers(2, 10 ** 40), st.sampled_from([1, 10, 12, 30]))
def test_decimal_text_takes_unreduced_components(p, q, r, disc, g, digits):
    x = QuadSurd(p, q, r, disc)
    assert decimal_text(g * x.p, g * x.q, g * x.r, disc, digits) == x.to_decimal(digits)


def test_decimal_rational_half_even():
    assert QuadSurd.from_rational(Fraction(25, 1000)).to_decimal(2) == "0.02"
    assert QuadSurd.from_rational(Fraction(35, 1000)).to_decimal(2) == "0.04"
    assert QuadSurd.from_rational(Fraction(-5, 4)).to_decimal(1) == "-1.2"


def test_parse_roundtrip():
    for x in (ROOT_LO, ROOT_HI, QuadSurd(0, 0, 1), QuadSurd(-7, 22, 13)):
        assert parse_surd(x.canonical_text()) == x
    assert parse_surd("18.4811") == QuadSurd.from_rational(Fraction("18.4811"))
    assert parse_surd("3/7") == QuadSurd.from_rational(Fraction(3, 7))


@pytest.mark.parametrize("text", ["(1 + 1*sqrt(26565))/0", "(-3 - 2*sqrt(2))/00", "1/0"])
def test_parse_rejects_zero_denominator(text):
    with pytest.raises(ValueError, match="not a surd or rational literal"):
        parse_surd(text)


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatch):
        QuadSurd(1, 1, 1, 5) + QuadSurd(1, 1, 1, 2)


def test_rational_embeds_across_fields():
    r = QuadSurd.from_rational(3, disc=5)
    s = QuadSurd(0, 1, 1, 2)
    assert (r + s).disc == 2


def test_division_by_zero():
    with pytest.raises(DivByZero):
        QuadSurd(1, 1, 1) / QuadSurd(0, 0, 1)


def test_cross_field_comparison():
    mu = QuadSurd(19425, 111, 2030)
    cap = QuadSurd(10, 6, 1, 2)
    assert cross_field_cmp(mu, cap) == -1
    assert cross_field_cmp(cap, mu) == 1
    assert cross_field_cmp(mu, mu) == 0
    # golden ratio vs sqrt(2)+0.2 style mixes
    assert cross_field_cmp(QuadSurd(1, 1, 2, 5), QuadSurd(0, 1, 1, 2)) == 1


def _over(disc):
    return st.builds(QuadSurd, st.integers(-10**6, 10**6), st.integers(-10**3, 10**3),
                     st.integers(1, 10**4), st.just(disc))


def _same_value_over_sqrt8(x):
    """x = (p + q*sqrt(2))/r rewritten as (2p + q*sqrt(8))/(2r)."""
    return QuadSurd(2 * x.p, x.q, 2 * x.r, 8)


FIELDS = (DEFAULT_DISC, 2, 5, 8)
fine_fractions = st.fractions(-40, 40, max_denominator=10**4)
field_values = st.one_of(*(_over(d) for d in FIELDS),
                         st.builds(QuadSurd.from_rational, fine_fractions, st.sampled_from(FIELDS)))
# equal values across fields: the same surd, sqrt(2) against sqrt(8), and a
# rational embedded in two fields
equal_pairs = st.one_of(
    field_values.map(lambda x: (x, x)),
    _over(2).map(lambda x: (x, _same_value_over_sqrt8(x))),
    st.tuples(fine_fractions, st.sampled_from(FIELDS), st.sampled_from(FIELDS)).map(
        lambda c: (QuadSurd.from_rational(c[0], c[1]), QuadSurd.from_rational(c[0], c[2]))),
)


@given(st.one_of(st.tuples(field_values, field_values), equal_pairs))
@settings(max_examples=500)
def test_cross_field_cmp_matches_surd_arithmetic(pair):
    x, y = pair
    s = cross_field_cmp_by_surds(x, y)
    assert cross_field_cmp(x, y) == s
    assert cross_field_cmp(y, x) == -s


@given(equal_pairs)
def test_cross_field_cmp_ties(pair):
    assert cross_field_cmp(*pair) == 0


def test_cross_field_cmp_builds_no_surds(monkeypatch):
    pairs = [(QuadSurd(19425, 111, 2030), QuadSurd(10, 6, 1, 2)),
             (QuadSurd(1, 1, 2, 5), QuadSurd(0, 1, 1, 2)),
             (QuadSurd(3, 2, 7, 2), _same_value_over_sqrt8(QuadSurd(3, 2, 7, 2))),
             (QuadSurd(5, 0, 3, 2), QuadSurd(-1, 4, 9))]
    expected = [cross_field_cmp_by_surds(x, y) for x, y in pairs]
    built = []
    init = QuadSurd.__init__
    monkeypatch.setattr(QuadSurd, "__init__",
                        lambda self, *args, **kwargs: built.append(args) or init(self, *args, **kwargs))
    assert [cross_field_cmp(x, y) for x, y in pairs] == expected
    assert built == []


surds = st.builds(
    QuadSurd,
    st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 40),
    st.just(DEFAULT_DISC),
)


@given(surds, surds, surds)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == QuadSurd(0, 0, 1)
    if a:
        assert a * a.inverse() == QuadSurd(1, 0, 1)


@given(surds)
@settings(max_examples=200)
def test_sign_agrees_with_high_precision_decimal(x):
    dec = x.to_decimal(100)
    numeric = Fraction(dec)
    if numeric == 0:
        # rounded to zero at 100 digits: only the exact zero survives here
        assert x.sign() == 0 or abs(float(x)) < 1e-99
    else:
        assert x.sign() == (1 if numeric > 0 else -1)


@given(surds, surds)
def test_canonical_form_idempotent(a, b):
    x = a * b + a
    again = parse_surd(x.canonical_text())
    assert (again.p, again.q, again.r) == (x.p, x.q, x.r)
    assert math.gcd(x.p, x.q, x.r) == 1
    assert x.r > 0


@given(surds, surds)
def test_order_antisymmetry(a, b):
    assert (a < b) == (b > a)
    assert (a == b) == ((a - b).sign() == 0)


def test_bad_radicand_raises_on_every_construction():
    for _ in range(3):
        with pytest.raises(ValueError, match="radicand"):
            QuadSurd(1, 1, 1, 4)
        with pytest.raises(ValueError, match="radicand"):
            QuadSurd(1, 1, 1, 0)
        with pytest.raises(ValueError, match="radicand"):
            QuadSurd(1, 1, 1, -3)


def _sign_of_difference(a, b):
    """Reference order: the sign of a surd difference built through
    __add__ and __neg__."""
    return (a + (-b)).sign()


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=40)
sqrt2_rationals = rationals.map(lambda f: QuadSurd.from_rational(f, 2))
order_operands = st.one_of(surds, st.integers(-40, 40), rationals, sqrt2_rationals)


def _assert_order_matches(a, b, s):
    assert (a < b) == (s < 0)
    assert (a <= b) == (s <= 0)
    assert (a == b) == (s == 0)
    assert (a != b) == (s != 0)
    assert (a > b) == (s > 0)
    assert (a >= b) == (s >= 0)


@given(surds, order_operands)
@settings(max_examples=300)
def test_order_matches_sign_of_difference(a, b):
    s = _sign_of_difference(a, b)
    _assert_order_matches(a, b, s)
    # reflected: int and Fraction on the left, a sqrt(2) rational as self
    _assert_order_matches(b, a, -s)
    assert cross_field_cmp(a, b if isinstance(b, QuadSurd) else QuadSurd.from_rational(b)) == s


@given(st.one_of(surds, rationals.map(QuadSurd.from_rational)))
def test_order_ties(a):
    _assert_order_matches(a, QuadSurd(a.p, a.q, a.r), 0)
    if a.q == 0:
        f = as_fraction(a)
        for b in (f, QuadSurd.from_rational(f, 2)):
            _assert_order_matches(a, b, 0)
            _assert_order_matches(b, a, 0)


def test_order_between_irrational_fields_raises():
    x, y = QuadSurd(1, 1, 1, 5), QuadSurd(1, 1, 1, 2)
    for op in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
        with pytest.raises(FieldMismatch):
            getattr(x, op)(y)


def _embed(s):
    """A surd as a Moebius-form value (p + q*sqrt(D)) / (r + 0*sqrt(D))."""
    return s.p, s.q, s.r, 0


def _product_cmp(a, b, c, d):
    return moebius_product_cmp(*map(_embed, (a, b, c, d)), DEFAULT_DISC)


@given(surds, surds, surds, surds)
@settings(max_examples=300)
def test_product_cmp_matches_sign_of_product_difference(a, b, c, d):
    assert _product_cmp(a, b, c, d) == (a * b - c * d).sign()


@given(surds, surds)
def test_product_cmp_exact_ties(a, b):
    one = QuadSurd(1, 0, 1)
    assert _product_cmp(a, b, b, a) == 0
    assert _product_cmp(a, b, a, b) == 0
    assert _product_cmp(a, b, a * b, one) == 0
    assert _product_cmp(a * b, one, a, b) == 0


@given(surds, sqrt2_rationals, surds, surds)
def test_product_cmp_embeds_rationals_of_any_field(a, b, c, d):
    # a rational enters as (p, 0, r, 0) whatever field it was parsed in
    assert _product_cmp(a, b, c, d) == (a * b - c * d).sign()
    assert _product_cmp(c, d, b, a) == (c * d - b * a).sign()
