import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from f4cantor.cf import (CFWord, DigitRange, DomainError, EmptyWord, InsufficientDigits,
                         MalformedPeriod, PeriodicCF, _value_and_enclosure, apply_moebius,
                         convergents, delta_from_mu, eval_finite, eval_periodic,
                         fold_matrix, format_word, moebius_cmp, moebius_decimal, moebius_image,
                         moebius_mul, moebius_product_cmp, moebius_sub, moebius_surd,
                         moebius_target_cmp, moebius_text, perron_rho_n)
from f4cantor.segments import TAIL_TRIPLES
from f4cantor.surd import DEFAULT_DISC, QuadSurd, sign_pair
from reference import (cross_field_cmp_by_surds, dirichlet_d, epsilon_seq, parse_word, psi_of_t,
                       reverse_star)


def nested_eval(digits):
    """Independent evaluation: fold 1/x from the right with Fractions."""
    acc = Fraction(digits[-1])
    for d in reversed(digits[:-1]):
        acc = d + 1 / acc
    return acc


def test_fibonacci_convergent():
    assert eval_finite(CFWord((1, 1, 1, 1, 1))) == Fraction(8, 5)


def test_four_three():
    assert eval_finite(CFWord((4, 3))) == Fraction(13, 3)


def test_q_sequence_by_independent_recurrence():
    word = (4, 3, 1, 4, 1, 4, 1, 3)
    seq = convergents(CFWord(word))
    # oracle: the nested-fraction value fixes the final pair, and the
    # recurrence re-run fixes the rest
    assert Fraction(*seq.pairs[-1]) == nested_eval(word)
    qs = [q for _, q in seq.pairs]
    expect = []
    q_prev, q = 0, 1
    for a in word[1:]:
        expect.append(q)
        q, q_prev = a * q + q_prev, q
    expect.append(q)
    assert qs == expect == [1, 3, 4, 19, 23, 111, 134, 513]


digit_words = st.lists(st.integers(1, 4), min_size=1, max_size=12).map(tuple)


@given(digit_words)
def test_convergent_determinant_identity(word):
    seq = convergents(CFWord(word))
    for k in range(len(word)):
        assert seq.p(k) * seq.q(k - 1) - seq.p(k - 1) * seq.q(k) == (-1) ** (k - 1)


def test_epsilon_basic():
    assert epsilon_seq(CFWord((1, 1, 1))) == [0, 1, Fraction(1, 2)]


@given(digit_words)
def test_epsilon_in_fifth_to_one(word):
    eps = epsilon_seq(CFWord(word))
    assert all(Fraction(1, 5) <= e <= 1 for e in eps[1:])


def test_epsilon_all_fours():
    eps = epsilon_seq(CFWord((4,) * 12))
    assert all(Fraction(1, 5) <= e <= 1 for e in eps[1:])


def test_epsilon_rejects_digit_range():
    with pytest.raises(DigitRange):
        epsilon_seq(CFWord((4, 5)))


def test_eval_periodic_golden():
    assert eval_periodic(PeriodicCF((), (1,))) == QuadSurd(1, 1, 2, 5)


def test_eval_periodic_root_endpoints():
    lo = eval_periodic(PeriodicCF((4, 3), (1, 4, 1, 4, 1, 3)))
    hi = eval_periodic(PeriodicCF((4, 3), (4, 1, 4, 1, 3, 1)))
    assert lo == QuadSurd(783, 1, 222)
    assert hi == QuadSurd(5501, -1, 1238)


periods = st.lists(st.integers(1, 4), min_size=1, max_size=6).map(tuple)
pres = st.lists(st.integers(1, 4), min_size=0, max_size=4).map(tuple)


@given(pres, periods)
def test_periodic_fixed_point_residual_zero(pre, period):
    pcf = PeriodicCF(pre, period)
    val = eval_periodic(pcf)
    tail = eval_periodic(PeriodicCF((), period))
    a, b, c, d = fold_matrix(period)
    # the defining Moebius fixed-point equation, exactly
    assert tail * (tail * c + d) - (tail * a + b) == QuadSurd(0, 0, 1, tail.disc)
    folded = tail
    for digit in reversed(pre):
        folded = digit + 1 / folded
    assert folded == val


@given(periods, st.integers(0, 5))
def test_period_cyclic_shift_with_preperiod_adjustment(period, k):
    k %= len(period)
    shifted = period[k:] + period[:k]
    direct = eval_periodic(PeriodicCF((), period))
    adjusted = eval_periodic(PeriodicCF(period[:k], shifted))
    assert direct == adjusted


@given(pres, periods, st.integers(1, 5))
def test_prefix_evaluations_alternate_around_periodic_value(pre, period, reps):
    pcf = PeriodicCF(pre, period)
    val = eval_periodic(pcf)
    n = len(pre) + reps * len(period)
    prefix_vals = [eval_finite(CFWord(pcf.prefix(m))) for m in range(1, n + 1)]
    signs = [(QuadSurd.from_rational(v, val.disc) - val).sign() for v in prefix_vals]
    assert 0 not in signs
    assert all(a == -b for a, b in zip(signs, signs[1:]))
    diffs = [abs(QuadSurd.from_rational(v, val.disc) - val) for v in prefix_vals]
    assert all(d1 > d2 for d1, d2 in zip(diffs, diffs[1:]))


def moebius_by_surd_ops(m, t):
    """The tail map written with QuadSurd arithmetic, as a reference."""
    a, b, c, d = m
    return (t * a + b) / (t * c + d)


positive_matrices = st.one_of(
    st.tuples(*[st.integers(1, 10**9)] * 4),
    digit_words.map(fold_matrix),
)
big = st.integers(-10**12, 10**12)
tails = st.one_of(
    st.builds(QuadSurd, big, st.just(0), st.integers(1, 10**9)),
    st.builds(QuadSurd, big, st.integers(-10**6, 10**6), st.integers(1, 10**9),
              st.just(DEFAULT_DISC)),
    st.builds(QuadSurd, big, st.integers(-10**6, 10**6), st.integers(1, 10**9),
              st.just(5)),
)


@given(positive_matrices, tails)
def test_apply_moebius_matches_surd_arithmetic(m, t):
    a, b, c, d = m
    assume(t * c + d != 0)
    image = apply_moebius(m, t)
    ref = moebius_by_surd_ops(m, t)
    # equal canonical triples, not just equal values
    assert (image.p, image.q, image.r, image.disc) == (ref.p, ref.q, ref.r, ref.disc)


def _positive_denominator(e):
    """The same Moebius-form value with a positive denominator value, or
    None when the denominator is zero."""
    s = sign_pair(e[2], e[3], DEFAULT_DISC)
    return None if s == 0 else e if s > 0 else tuple(-x for x in e)


small = st.integers(-10**6, 10**6)
images = st.one_of(
    st.tuples(big, small, big, small).map(_positive_denominator).filter(bool),
    st.builds(moebius_image, digit_words.map(fold_matrix),
              st.sampled_from([t for pair in TAIL_TRIPLES.values() for t in pair])),
)
ONE = (1, 0, 1, 0)


def _surd(e):
    return moebius_surd(e, DEFAULT_DISC)


@given(images, images, images, images)
def test_moebius_product_cmp_matches_built_products(e1, e2, e3, e4):
    a, b, c, d = map(_surd, (e1, e2, e3, e4))
    assert moebius_product_cmp(e1, e2, e3, e4, DEFAULT_DISC) == (a * b - c * d).sign()


@given(images, images)
def test_moebius_forms_match_built_surds(e1, e2):
    a, b = _surd(e1), _surd(e2)
    assert moebius_cmp(e1, e2, DEFAULT_DISC) == (a - b).sign()
    assert _surd(moebius_mul(e1, e2, DEFAULT_DISC)) == a * b
    assert _surd(moebius_sub(e1, e2, DEFAULT_DISC)) == a - b


@given(images, images, st.integers(1, 10**6), tails.filter(lambda t: t.disc != 5))
def test_moebius_product_cmp_ties_and_embeddings(e1, e2, k, t):
    scaled = tuple(k * x for x in e1)
    for args in ((e1, e2, e2, e1), (e1, e2, e1, e2), (scaled, e2, e2, e1)):
        assert moebius_product_cmp(*args, DEFAULT_DISC) == 0
    # a target enters as (p, q, r, 0) and one as (1, 0, 1, 0)
    s = _surd(e1) * _surd(e2)
    exact = (s.p, s.q, s.r, 0)
    assert moebius_product_cmp(e1, e2, exact, ONE, DEFAULT_DISC) == 0
    assert moebius_product_cmp(exact, ONE, e2, e1, DEFAULT_DISC) == 0
    target = (t.p, t.q, t.r, 0)
    assert moebius_product_cmp(e1, e2, target, ONE, DEFAULT_DISC) == (s - t).sign()
    assert moebius_product_cmp(target, ONE, e1, e2, DEFAULT_DISC) == (t - s).sign()


targets = st.one_of(tails, *(st.builds(QuadSurd, big, st.integers(-10**6, 10**6),
                                        st.integers(1, 10**9), st.just(d)) for d in (2, 8)))


@given(images, targets)
def test_moebius_target_cmp_matches_the_surd_reference(e, t):
    assert moebius_target_cmp(e, DEFAULT_DISC, t) == cross_field_cmp_by_surds(_surd(e), t)
    assert moebius_target_cmp(e, DEFAULT_DISC, _surd(e)) == 0


@given(st.tuples(big, small, big, small), st.sampled_from([DEFAULT_DISC, 5]))
def test_moebius_target_cmp_ties_across_fields(e, other):
    # a value over sqrt(2) against itself written over sqrt(8), which takes
    # the two-field test, and a rational image against its value in another
    # field
    s = sign_pair(e[2], e[3], 2)
    assume(s != 0)
    e = e if s > 0 else tuple(-x for x in e)
    x = moebius_surd(e, 2)
    assert moebius_target_cmp(e, 2, QuadSurd(2 * x.p, x.q, 2 * x.r, 8)) == 0
    assume(e[2] != 0)
    rational = (e[0], 0, e[2], 0) if e[2] > 0 else (-e[0], 0, -e[2], 0)
    assert moebius_target_cmp(rational, 2, QuadSurd(rational[0], 0, rational[2], other)) == 0


def _decimal_images(disc):
    """Moebius images over sqrt(disc), with components as wide as the
    decompose widths': any with a positive denominator value, ones whose
    conjugate denominator dA - dB*sqrt(disc) is negative (so the
    rationalised r is negative before it is normalised), and rationals."""
    wide = st.integers(-2 ** 240, 2 ** 240)

    def positive(e):
        s = sign_pair(e[2], e[3], disc)
        return None if s == 0 else e if s > 0 else tuple(-x for x in e)

    def conjugate_negative(na, nb, db, u):
        # |dA| <= floor(dB*sqrt(disc)) < dB*sqrt(disc) for dB >= 1
        bound = math.isqrt(db * db * disc)
        return na, nb, u % (2 * bound + 1) - bound, db

    return st.one_of(
        st.tuples(wide, wide, wide, wide).map(positive).filter(bool),
        st.builds(conjugate_negative, wide, wide, st.integers(1, 2 ** 120), st.integers(0, 2 ** 240)),
        st.tuples(wide, st.just(0), st.integers(1, 2 ** 240), st.just(0)),
    )


@given(st.sampled_from([DEFAULT_DISC, 2]).flatmap(
           lambda disc: st.tuples(st.just(disc), _decimal_images(disc))),
       st.sampled_from([10, 12, 30]))
@settings(max_examples=200)
def test_moebius_decimal_matches_the_built_surd(case, digits):
    disc, e = case
    assert moebius_decimal(e, disc, digits) == moebius_surd(e, disc).to_decimal(digits)


@given(st.sampled_from([DEFAULT_DISC, 2]).flatmap(
           lambda disc: st.tuples(st.just(disc), _decimal_images(disc))),
       st.integers(1, 10 ** 6))
@settings(max_examples=200)
def test_moebius_text_matches_the_built_surd(case, k):
    # the image and a common multiple of it, which reduce to the same text
    disc, e = case
    text = moebius_surd(e, disc).canonical_text()
    assert moebius_text(e, disc) == text
    assert moebius_text(tuple(k * x for x in e), disc) == text


@given(digit_words, digit_words)
def test_fold_matrix_start_matrix_extends_prefix(head, tail):
    assert fold_matrix(tail, fold_matrix(head)) == fold_matrix(head + tail)


@given(st.integers(0, 4), st.lists(st.integers(1, 4), max_size=39).map(tuple))
def test_value_and_enclosure_match_convergent_table(head, tail):
    word = CFWord((head,) + tail)
    value, width = _value_and_enclosure(word)
    assert value == eval_finite(word) == nested_eval(word.digits)
    seq = convergents(word)
    m = len(word) - 1
    expect = (abs(Fraction(seq.p(m), seq.q(m)) - Fraction(seq.p(m - 1), seq.q(m - 1)))
              if m else Fraction(1))
    assert width == expect


def test_reverse_star():
    assert reverse_star(CFWord((4, 3)), 1).digits == (0, 3, 4)
    assert reverse_star(CFWord((4, 3, 1)), 2).digits == (0, 1, 3, 4)
    pal = CFWord((2, 1, 2))
    assert reverse_star(pal, 2).digits == (0,) + pal.digits
    with pytest.raises(IndexError):
        reverse_star(CFWord((4, 3)), 2)


def test_perron_golden_junction():
    rho = perron_rho_n(PeriodicCF((), (1,)), 5)
    assert rho == QuadSurd(3, 1, 2, 5)


def test_perron_mu_bound_product():
    big = eval_periodic(PeriodicCF((), (4, 1, 4, 1, 3, 1)))
    mid = eval_periodic(PeriodicCF((), (3, 1, 4, 1, 4, 1)))
    assert big * mid == QuadSurd(19425, 111, 2030)


def test_perron_finite_truncation():
    w = CFWord((4, 3, 1, 2, 1, 3))
    rho = perron_rho_n(w, 2, depth=2)
    first = nested_eval((1, 3, 4))
    second = nested_eval((2, 1))
    assert rho == first * second
    with pytest.raises(InsufficientDigits):
        perron_rho_n(w, 5)


def brute_psi(alpha: Fraction, t: Fraction) -> Fraction:
    best = None
    q = 1
    while q <= t:
        x = q * alpha
        dist = abs(x - round(x))
        if best is None or dist < best:
            best = dist
        q += 1
    return best


@given(digit_words.filter(lambda w: len(w) >= 4), st.integers(1, 200))
@settings(max_examples=60)
def test_psi_matches_brute_force(word, t):
    w = CFWord(word)
    seq = convergents(w)
    if t >= seq.pairs[-1][1]:  # need q_n <= t < q_{n+1} inside the word
        return
    assert psi_of_t(w, t) == brute_psi(eval_finite(w), Fraction(t))


def test_psi_domain():
    with pytest.raises(DomainError):
        psi_of_t(CFWord((4, 3, 1)), Fraction(1, 2))


def test_dirichlet_transforms():
    rho = QuadSurd(3, 1, 2, 5)
    # 1/(1 + 1/rho) for rho = (3+sqrt5)/2, derived symbolically: (5+sqrt5)/10
    assert dirichlet_d(rho) == QuadSurd(5, 1, 10, 5)
    mu = QuadSurd(19425, 111, 2030)
    assert delta_from_mu(mu) == QuadSurd(44067, 111, 65522)
    # large rho pushes d toward 1
    assert dirichlet_d(QuadSurd.from_rational(10 ** 12)) > QuadSurd.from_rational(
        Fraction(999999, 1000000))


@pytest.mark.parametrize("build, error, message", [
    (lambda: CFWord(()), EmptyWord, "must be non-empty"),
    (lambda: CFWord((-1, 2)), DigitRange, r"invalid partial quotients: \(-1, 2\)"),
    (lambda: CFWord((4, 3, 0)), DigitRange, r"invalid partial quotients: \(4, 3, 0\)"),
    (lambda: PeriodicCF((4,), ()), MalformedPeriod, "period must be non-empty"),
    (lambda: PeriodicCF((4,), (1, 0)), DigitRange, r"period digits must be >= 1: \(1, 0\)"),
    (lambda: PeriodicCF((-1,), (1,)), DigitRange, r"invalid preperiod: \(-1,\)"),
    (lambda: PeriodicCF((4, 0), (1,)), DigitRange, r"invalid preperiod: \(4, 0\)"),
], ids=["empty-word", "word-head", "word-later-digit", "empty-period", "period-digit",
        "preperiod-head", "preperiod-later-digit"])
def test_constructors_reject_bad_digits(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_constructors_accept_zero_heads():
    assert CFWord((0, 2)).head == 0 and len(CFWord((0, 2, 1))) == 3
    assert PeriodicCF((0,), (1,)).digit_at(3) == 1
    assert CFWord(digits=(4, 3)) == CFWord((4, 3))


def test_word_syntax_roundtrip():
    for text in ["[4;3,1,4]", "[4;3,(1,4,1,4,1,3)]", "[(1,2)]", "[7]", "[0;3,4]"]:
        assert format_word(parse_word(text)) == text
    w = parse_word("[4;3,(1,4,1,4,1,3)]")
    assert isinstance(w, PeriodicCF)
    assert w.preperiod == (4, 3) and w.period == (1, 4, 1, 4, 1, 3)
    with pytest.raises(ValueError):
        parse_word("4;3")
