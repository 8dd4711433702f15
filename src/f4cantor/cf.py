"""Continued-fraction machinery: convergents, exact evaluation, Perron
products and the spectrum transform delta = mu/(1 + mu).

Finite words evaluate to `Fraction`; eventually-periodic expansions evaluate
to :class:`~f4cantor.surd.QuadSurd` by solving the Moebius fixed-point
quadratic of the period and folding the preperiod through its Moebius map.

This module also owns how a digit prefix acts on a tail and the order tests
on the result.  `fold_matrix` gives a prefix's matrix and `moebius_image` a
tail's image as an unreduced integer 4-tuple ``(nA, nB, dA, dB)``, meaning
``(nA + nB*sqrt(D)) / (dA + dB*sqrt(D))`` with a positive denominator value.
`moebius_cmp` orders two such images and `moebius_product_cmp` two products
of them, each by one `sign_pair`; `moebius_target_cmp` orders an image
against a surd target of any field; `moebius_mul` and `moebius_sub` stay in
that form; `moebius_surd` builds the one QuadSurd a report needs, and
`moebius_text` and `moebius_decimal` write its exact text and a preview
without one.
"""

import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from .surd import QuadSurd, decimal_text, sign_over_two_fields, sign_pair, surd_text


class EmptyWord(ValueError):
    pass


class DigitRange(ValueError):
    """A partial quotient lies outside the supported digit set."""


class MalformedPeriod(ValueError):
    """Period whose fixed point is not a positive quadratic irrational."""


class DomainError(ValueError):
    pass


class InsufficientDigits(ValueError):
    """A finite word is too short for the requested index."""


class _CFWordFields(NamedTuple):
    digits: tuple[int, ...]


class CFWord(_CFWordFields):
    """Finite continued fraction [x0; x1, ..., xn].

    The head may be 0 (reversal values [0; xn, ..., x0]); every later
    quotient must be >= 1.
    """

    __slots__ = ()

    def __new__(cls, digits: tuple[int, ...]):
        if not digits:
            raise EmptyWord("continued fraction word must be non-empty")
        if digits[0] < 0 or any(d < 1 for d in digits[1:]):
            raise DigitRange(f"invalid partial quotients: {digits}")
        return super().__new__(cls, digits)

    @property
    def head(self) -> int:
        return self.digits[0]

    def __len__(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        return format_word(self)


class _PeriodicCFFields(NamedTuple):
    preperiod: tuple[int, ...]
    period: tuple[int, ...]


class PeriodicCF(_PeriodicCFFields):
    """Eventually periodic expansion: preperiod digits, then a repeating block.

    An empty preperiod denotes the purely periodic value, e.g.
    ``PeriodicCF((), (1,))`` is the golden ratio.
    """

    __slots__ = ()

    def __new__(cls, preperiod: tuple[int, ...], period: tuple[int, ...]):
        if not period:
            raise MalformedPeriod("period must be non-empty")
        if any(d < 1 for d in period):
            raise DigitRange(f"period digits must be >= 1: {period}")
        if preperiod and (preperiod[0] < 0 or any(d < 1 for d in preperiod[1:])):
            raise DigitRange(f"invalid preperiod: {preperiod}")
        return super().__new__(cls, preperiod, period)

    def digit_at(self, i: int) -> int:
        if i < 0:
            raise IndexError(i)
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> tuple[int, ...]:
        return tuple(self.digit_at(i) for i in range(n))

    def __str__(self) -> str:
        return format_word(self)


class ConvergentSeq(NamedTuple):
    """Convergent table p_k/q_k of a finite word, with the standard seeds
    p_{-1}=1, q_{-1}=0, p_0=x0, q_0=1."""

    digits: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]

    def p(self, k: int) -> int:
        return 1 if k == -1 else self.pairs[k][0]

    def q(self, k: int) -> int:
        return 0 if k == -1 else self.pairs[k][1]


def fold_matrix(digits: Iterable[int],
                m: tuple[int, int, int, int] = (1, 0, 0, 1)) -> tuple[int, int, int, int]:
    """The start matrix `m` times [[d,1],[1,0]] over the digits; the identity
    start gives the prefix's own matrix, a prefix's matrix extends it."""
    a, b, c, d = m
    for x in digits:
        a, b, c, d = a * x + b, a, c * x + d, c
    return a, b, c, d


def _value_and_enclosure(w: CFWord) -> tuple[Fraction, Fraction]:
    """The value p_m/q_m of a finite word and the width of the enclosure of
    all its infinite continuations, |p_m/q_m - p_{m-1}/q_{m-1}| =
    1/(q_m*q_{m-1}) (1 for a single digit), from one fold."""
    p, _, q, q_prev = fold_matrix(w.digits)
    return Fraction(p, q), Fraction(1, q * q_prev) if q_prev else Fraction(1)


def moebius_image(m: tuple[int, int, int, int],
                  t: tuple[int, int, int]) -> tuple[int, int, int, int]:
    """The image of the tail t = (p + q*sqrt(D))/r under m, unreduced:
    (nA, nB, dA, dB) meaning (nA + nB*sqrt(D)) / (dA + dB*sqrt(D))."""
    a, b, c, d = m
    p, q, r = t
    return a * p + b * r, a * q, c * p + d * r, c * q


def moebius_cmp(e1, e2, disc: int) -> int:
    """Order of two Moebius-form values (denominator values positive)."""
    nA1, nB1, dA1, dB1 = e1
    nA2, nB2, dA2, dB2 = e2
    x = nA1 * dA2 - nA2 * dA1 + (nB1 * dB2 - nB2 * dB1) * disc
    y = nA1 * dB2 + nB1 * dA2 - nA2 * dB1 - nB2 * dA1
    return sign_pair(x, y, disc)


def moebius_target_cmp(e, disc: int, t: QuadSurd) -> int:
    """Sign of e - t for a Moebius-form value e over sqrt(disc) and a target
    t = (p + q*sqrt(E))/r of any field, that is of r*(nA + nB*sqrt(D)) -
    (p + q*sqrt(E))*(dA + dB*sqrt(D)): one `sign_pair` when t is rational or
    in e's field, else `sign_over_two_fields`."""
    nA, nB, dA, dB = e
    p, q, r = t.p, t.q, t.r
    if q == 0 or t.disc == disc:
        return sign_pair(r * nA - p * dA - q * dB * disc, r * nB - p * dB - q * dA, disc)
    return sign_over_two_fields(r * nA - p * dA, r * nB - p * dB, -q * dA, -q * dB,
                                disc, t.disc)


def moebius_mul(e1, e2, disc: int) -> tuple[int, int, int, int]:
    """The product of two Moebius-form values, in Moebius form."""
    nA1, nB1, dA1, dB1 = e1
    nA2, nB2, dA2, dB2 = e2
    return (nA1 * nA2 + nB1 * nB2 * disc, nA1 * nB2 + nB1 * nA2,
            dA1 * dA2 + dB1 * dB2 * disc, dA1 * dB2 + dB1 * dA2)


def moebius_sub(e1, e2, disc: int) -> tuple[int, int, int, int]:
    """e1 - e2 in Moebius form: (n1*d2 - n2*d1) / (d1*d2)."""
    nA1, nB1, dA1, dB1 = e1
    nA2, nB2, dA2, dB2 = e2
    return (nA1 * dA2 - nA2 * dA1 + (nB1 * dB2 - nB2 * dB1) * disc,
            nA1 * dB2 + nB1 * dA2 - nA2 * dB1 - nB2 * dA1,
            dA1 * dA2 + dB1 * dB2 * disc, dA1 * dB2 + dB1 * dA2)


def moebius_product_cmp(e1, e2, e3, e4, disc: int) -> int:
    """Exact sign of e1*e2 - e3*e4 for Moebius-form values, by one
    `sign_pair`; a QuadSurd (p + q*sqrt(D))/r enters as (p, q, r, 0)."""
    return moebius_cmp(moebius_mul(e1, e2, disc), moebius_mul(e3, e4, disc), disc)


def _rationalised(e, disc: int) -> tuple[int, int, int]:
    """A Moebius-form value as (p, q, r) meaning (p + q*sqrt(D))/r with
    r > 0, rationalised by the conjugate of its denominator; unreduced."""
    na, nb, da, db = e
    p, q, r = na * da - nb * db * disc, nb * da - na * db, da * da - db * db * disc
    return (p, q, r) if r > 0 else (-p, -q, -r)


def moebius_surd(e, disc: int) -> QuadSurd:
    """A Moebius-form value as one QuadSurd."""
    return QuadSurd(*_rationalised(e, disc), disc)


def moebius_text(e, disc: int) -> str:
    """`moebius_surd(e, disc).canonical_text()` without building the surd:
    the rationalised triple reduced by its gcd."""
    p, q, r = _rationalised(e, disc)
    g = math.gcd(p, q, r)
    return surd_text(p // g, q // g, r // g, disc)


def moebius_decimal(e, disc: int, digits: int) -> str:
    """`moebius_surd(e, disc).to_decimal(digits)` without reducing a surd."""
    return decimal_text(*_rationalised(e, disc), disc, digits)


def apply_moebius(m: tuple[int, int, int, int], t: QuadSurd) -> QuadSurd:
    """(a*t + b)/(c*t + d) as one QuadSurd."""
    return moebius_surd(moebius_image(m, (t.p, t.q, t.r)), t.disc)


def convergents(w: CFWord) -> ConvergentSeq:
    pairs = []
    p_prev, q_prev = 1, 0
    p, q = w.digits[0], 1
    pairs.append((p, q))
    for a in w.digits[1:]:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        pairs.append((p, q))
    return ConvergentSeq(w.digits, tuple(pairs))


def eval_finite(w: CFWord) -> Fraction:
    p, _, q, _ = fold_matrix(w.digits)
    return Fraction(p, q)


def _square_free_split(n: int) -> tuple[int, int]:
    """n = f^2 * d with d square-free; exact for n < 10^18."""
    if n <= 0:
        raise ValueError("positive integer required")
    f, d = 1, 1
    m = n
    p = 2
    while p * p <= m and p <= 1_000_000:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            f *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    if m > 1:
        r = math.isqrt(m)
        if r * r == m:
            f *= r
        elif m < 10 ** 18:
            d *= m  # no prime factor <= 1e6, so m is square-free below 1e18
        else:
            raise ValueError(f"cannot certify square-free part of {n}")
    return f, d


def eval_periodic(pcf: PeriodicCF) -> QuadSurd:
    """Exact value as a QuadSurd whose radicand is square-free.

    The purely periodic tail t solves c*t^2 + (d-a)*t - b = 0 for the period
    matrix [[a,b],[c,d]]; the positive root is unique because -b/c < 0.
    """
    a, b, c, d = fold_matrix(pcf.period)
    disc_full = (d - a) * (d - a) + 4 * b * c
    if disc_full <= 0:
        raise MalformedPeriod(f"non-real fixed point for period {pcf.period}")
    f, d0 = _square_free_split(disc_full)
    if d0 == 1:
        raise MalformedPeriod(f"rational fixed point for period {pcf.period}")
    t = QuadSurd(a - d, f, 2 * c, d0)
    if t.sign() <= 0:  # unreachable for digits >= 1
        raise MalformedPeriod(f"non-positive fixed point for period {pcf.period}")
    if pcf.preperiod:
        t = apply_moebius(fold_matrix(pcf.preperiod), t)
    return t


def perron_rho_n(w: CFWord | PeriodicCF, n: int, depth: int | None = None):
    """The Perron product [x_n; x_{n-1},...,x_0] * [x_{n+1}; x_{n+2}, ...].

    Finite words: the second factor is truncated after `depth` digits (all
    remaining digits when `depth` is None); the result is a Fraction.

    Periodic words with ``depth=None``: both factors are evaluated for the
    bi-infinite periodic extension (the junction-family limit value), and a
    QuadSurd is returned; `n` must lie inside the periodic part.
    """
    if n < 0:
        raise IndexError(n)
    if isinstance(w, CFWord):
        digits = w.digits
        if n + 1 >= len(digits):
            raise InsufficientDigits(f"need a digit after index {n}")
        if any(d < 1 for d in digits):
            raise DigitRange("Perron reversal needs all quotients >= 1")
        first = eval_finite(CFWord(tuple(digits[n::-1])))
        stop = len(digits) if depth is None else min(len(digits), n + 1 + depth)
        second = eval_finite(CFWord(tuple(digits[n + 1: stop])))
        return first * second
    if depth is not None:
        raise ValueError("depth only applies to finite words")
    if n < len(w.preperiod):
        raise IndexError("junction limit requires n inside the periodic part")
    plen = len(w.period)
    back = tuple(w.digit_at(n - i) for i in range(plen))
    fwd = tuple(w.digit_at(n + 1 + i) for i in range(plen))
    return eval_periodic(PeriodicCF((), back)) * eval_periodic(PeriodicCF((), fwd))


def delta_from_mu(mu):
    """delta = mu/(1 + mu)."""
    return mu / (1 + mu)


# -- text syntax -------------------------------------------------------------

def format_word(w: CFWord | PeriodicCF) -> str:
    """"[4;3,1,4]" for finite words, "[4;3,(1,4,1,4,1,3)]" for periodic ones;
    a purely periodic value renders as "[(1,2)]"."""
    if isinstance(w, CFWord):
        if len(w.digits) == 1:
            return f"[{w.digits[0]}]"
        return f"[{w.digits[0]};{','.join(map(str, w.digits[1:]))}]"
    per = f"({','.join(map(str, w.period))})"
    if not w.preperiod:
        return f"[{per}]"
    head, *rest = w.preperiod
    if rest:
        return f"[{head};{','.join(map(str, rest))},{per}]"
    return f"[{head};{per}]"
