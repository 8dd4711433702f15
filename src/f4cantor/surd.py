"""Exact arithmetic in real quadratic fields Q(sqrt(D)).

A :class:`QuadSurd` is stored as an integer triple ``(p, q, r)`` meaning
``(p + q*sqrt(D))/r`` with ``r > 0`` and ``gcd(p, q, r) == 1``, so two values
in the same field are equal exactly when their triples are equal.  Every
order test (``<``, ``<=``, ``==``, ``>``, ``>=``) is one :func:`sign_pair`
call on cross-multiplied integers, with no difference surd built and no
floating point.  Order tests on unreduced integer forms, products included,
live in :mod:`f4cantor.cf` and use the same :func:`sign_pair`.  Rationals
embed as ``q == 0`` and mix freely with surds of any field.

The default radicand is 26565; other fields (5, 2, ...) are runtime choices.
Mixed-field arithmetic is rejected, but :func:`cross_field_cmp` decides
order between two surds from different fields exactly, by the integer sign
test :func:`sign_over_two_fields` that `cf.moebius_target_cmp` shares.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Union

DEFAULT_DISC = 26565

Rationalish = Union[int, Fraction]


class FieldMismatch(ValueError):
    """Arithmetic attempted between surds over different radicands."""


class DivByZero(ZeroDivisionError):
    """Division by an exactly-zero surd."""


def _is_perfect_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


@lru_cache(maxsize=256)
def _scaled_root(disc: int, m: int) -> int:
    """floor(sqrt(disc) * 10^m), shared by every `decimal_text` of a field."""
    return math.isqrt(disc * 10 ** (2 * m))


# radicands that passed the field check; a bad one is never added, so it
# raises on every construction
_FIELD_RADICANDS: set[int] = set()


def sign_pair(x: int, y: int, disc: int) -> int:
    """Exact sign of x + y*sqrt(disc) in {-1, 0, +1}, by integers only."""
    if y == 0:
        return (x > 0) - (x < 0)
    if x == 0:
        return 1 if y > 0 else -1
    if x > 0 and y > 0:
        return 1
    if x < 0 and y < 0:
        return -1
    # opposite signs: compare x^2 against y^2 * disc
    lhs, rhs = x * x, y * y * disc
    if x > 0:  # y < 0: positive iff x^2 > y^2 disc
        return (lhs > rhs) - (lhs < rhs)
    return (rhs > lhs) - (rhs < lhs)


class QuadSurd:
    """An exact element p/r + (q/r)*sqrt(disc) of a real quadratic field."""

    __slots__ = ("p", "q", "r", "disc")

    def __init__(self, p: int, q: int, r: int = 1, disc: int = DEFAULT_DISC):
        if r == 0:
            raise DivByZero("zero denominator")
        if disc not in _FIELD_RADICANDS:
            if disc <= 0 or _is_perfect_square(disc):
                raise ValueError(f"radicand must be positive and not a perfect square: {disc}")
            _FIELD_RADICANDS.add(disc)
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(p, q, r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "disc", disc)

    def __setattr__(self, name, value):
        raise AttributeError("QuadSurd is immutable")

    def __reduce__(self):
        # slots + the immutability guard break default pickling; rebuild
        # through the constructor instead
        return (QuadSurd, (self.p, self.q, self.r, self.disc))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, value: Rationalish, disc: int = DEFAULT_DISC) -> QuadSurd:
        f = Fraction(value)
        return cls(f.numerator, 0, f.denominator, disc)

    # -- coercion ------------------------------------------------------

    def _coerce(self, other) -> "QuadSurd | None":
        if isinstance(other, QuadSurd):
            if other.disc != self.disc and self.q != 0 and other.q != 0:
                raise FieldMismatch(f"sqrt({self.disc}) vs sqrt({other.disc})")
            if other.disc != self.disc:
                # one side is rational; re-embed it in the other field
                if other.q == 0:
                    return QuadSurd(other.p, 0, other.r, self.disc)
                return other
            return other
        if isinstance(other, (int, Fraction)):
            return QuadSurd.from_rational(other, self.disc)
        return None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> QuadSurd:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.disc != self.disc:  # self is rational, adopt other's field
            return o + QuadSurd(self.p, 0, self.r, o.disc)
        return QuadSurd(self.p * o.r + o.p * self.r,
                        self.q * o.r + o.q * self.r,
                        self.r * o.r, self.disc)

    __radd__ = __add__

    def __neg__(self) -> QuadSurd:
        return QuadSurd(-self.p, -self.q, self.r, self.disc)

    def __sub__(self, other) -> QuadSurd:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> QuadSurd:
        return (-self) + other

    def __mul__(self, other) -> QuadSurd:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.disc != self.disc:
            return o * QuadSurd(self.p, 0, self.r, o.disc)
        return QuadSurd(self.p * o.p + self.q * o.q * self.disc,
                        self.p * o.q + self.q * o.p,
                        self.r * o.r, self.disc)

    __rmul__ = __mul__

    def inverse(self) -> QuadSurd:
        """Exact 1/x via the conjugate; raises DivByZero on zero."""
        if self.p == 0 and self.q == 0:
            raise DivByZero("inverse of zero")
        # 1/((p + q*sqrt(D))/r) = r*(p - q*sqrt(D)) / (p^2 - q^2*D)
        norm = self.p * self.p - self.q * self.q * self.disc
        return QuadSurd(self.r * self.p, -self.r * self.q, norm, self.disc)

    def __truediv__(self, other) -> QuadSurd:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.disc != self.disc:
            return QuadSurd(self.p, 0, self.r, o.disc) / o
        return self * o.inverse()

    def __rtruediv__(self, other) -> QuadSurd:
        return self.inverse() * other

    def __pow__(self, n: int) -> QuadSurd:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = QuadSurd(1, 0, 1, self.disc)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> QuadSurd:
        return QuadSurd(self.p, -self.q, self.r, self.disc)

    # -- sign and order --------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, decided by integer arithmetic only."""
        return sign_pair(self.p, self.q, self.disc)

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # both denominators are positive; o.disc is the irrational side's
        # field when self is a rational from another field
        return sign_pair(self.p * o.r - o.p * self.r, self.q * o.r - o.q * self.r, o.disc)

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadSurd) and other.disc == self.disc:
            return (self.p, self.q, self.r) == (other.p, other.q, other.r)
        c = self._cmp(other)
        return False if c is NotImplemented else c == 0

    def __hash__(self):
        if self.q == 0:
            return hash(Fraction(self.p, self.r))
        return hash((self.p, self.q, self.r, self.disc))

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __bool__(self) -> bool:
        return not (self.p == 0 and self.q == 0)

    def __abs__(self) -> QuadSurd:
        return -self if self.sign() < 0 else self

    # -- rendering --------------------------------------------------------

    def __repr__(self) -> str:
        return f"QuadSurd({self.p}, {self.q}, {self.r}, disc={self.disc})"

    def __str__(self) -> str:
        return self.canonical_text()

    def canonical_text(self) -> str:
        """Canonical exact form ``(p + q*sqrt(D))/r``; round-trips via parse_surd."""
        return surd_text(self.p, self.q, self.r, self.disc)

    def to_decimal(self, digits: int) -> str:
        """Correctly rounded decimal string with `digits` fractional digits."""
        return decimal_text(self.p, self.q, self.r, self.disc, digits)

    def __float__(self) -> float:
        # Fraction handles components too large for int.__truediv__
        return float(Fraction(self.p, self.r)) + float(Fraction(self.q, self.r)) * math.sqrt(self.disc)


def surd_text(p: int, q: int, r: int, disc: int) -> str:
    """The text ``(p + q*sqrt(disc))/r`` of a reduced triple with r > 0,
    which is `QuadSurd.canonical_text`."""
    return f"({p} {'+' if q >= 0 else '-'} {abs(q)}*sqrt({disc}))/{r}"


def decimal_text(p: int, q: int, r: int, disc: int, digits: int) -> str:
    """(p + q*sqrt(disc))/r as a correctly rounded decimal string with
    `digits` fractional digits; r > 0, and the components need not be
    reduced."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if q == 0:
        return _round_fraction_decimal(Fraction(p, r), digits)
    # bracket value * 10^(digits+guard) between integers, widen the guard
    # until the rounded result is unambiguous (irrational: no exact ties)
    guard = 8
    while True:
        m = digits + guard
        scale = 10 ** m
        root_lo = _scaled_root(disc, m)
        if q > 0:
            num_lo = p * scale + q * root_lo
            num_hi = num_lo + q
        else:
            num_hi = p * scale + q * root_lo
            num_lo = num_hi + q
        # v*10^digits is bracketed by num_lo/(r*10^g) .. num_hi/(r*10^g)
        den = r * 10 ** guard
        two_lo = (2 * num_lo) // den
        two_hi = (2 * num_hi) // den
        if two_lo == two_hi:
            scaled = (two_lo + 1) // 2  # round-half never exact here
            return _format_scaled(scaled, digits)
        guard *= 2
        if guard > 4096:  # pragma: no cover - would mean a rational leak
            raise AssertionError("decimal rounding failed to converge")


def _format_scaled(scaled: int, digits: int) -> str:
    neg = scaled < 0
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 10 ** digits)
    out = f"{whole}.{str(frac).zfill(digits)}"
    return "-" + out if neg else out


def _round_fraction_decimal(f: Fraction, digits: int) -> str:
    scale = 10 ** digits
    scaled = f * scale
    whole = scaled.numerator // scaled.denominator
    rem = scaled - whole
    if 2 * rem > 1 or (2 * rem == 1 and whole % 2 == 1):  # half-even
        whole += 1
    return _format_scaled(whole, digits)


# compiled on first use and kept in `re`'s own cache, so only a process that
# parses a surd pays for it
_SURD_PATTERN = (
    r"^\s*\(\s*(-?\d+)\s*([+-])\s*(\d+)\s*\*\s*sqrt\s*\(\s*(\d+)\s*\)\s*\)\s*/\s*(\d+)\s*$"
)


def parse_surd(text: str, disc: int | None = None) -> QuadSurd:
    """Parse the canonical ``(p + q*sqrt(D))/r`` form (exact round-trip).

    Plain integers, fractions ``a/b`` and finite decimals are accepted as
    rational embeddings; `disc` fixes their field (default 26565).
    """
    m = re.match(_SURD_PATTERN, text)
    if m:
        p, sgn, q, d, r = m.groups()
        if int(r) == 0:
            raise ValueError(f"not a surd or rational literal: {text!r}")
        q = int(q) if sgn == "+" else -int(q)
        parsed = QuadSurd(int(p), q, int(r), int(d))
        if disc is not None and parsed.disc != disc and parsed.q != 0:
            raise FieldMismatch(f"expected sqrt({disc}), got sqrt({parsed.disc})")
        return parsed
    try:
        f = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a surd or rational literal: {text!r}") from exc
    return QuadSurd.from_rational(f, disc if disc is not None else DEFAULT_DISC)


def sign_over_two_fields(x: int, y: int, z: int, w: int, d: int, e: int) -> int:
    """Exact sign of (x + y*sqrt(d)) + sqrt(e)*(z + w*sqrt(d)), by integers
    only.  When the two parts A = x + y*sqrt(d) and B = z + w*sqrt(d) have
    opposite signs, the sum has the sign of A times that of A^2 - e*B^2,
    which lies in Q(sqrt(d))."""
    sa, sb = sign_pair(x, y, d), sign_pair(z, w, d)
    if sa * sb >= 0:
        return sa or sb
    return sa * sign_pair(x * x + y * y * d - e * (z * z + w * w * d),
                          2 * (x * y - e * z * w), d)


def cross_field_cmp(x: QuadSurd, y: QuadSurd) -> int:
    """Exact sign of x - y even when x and y live over different radicands:
    x.r*y.r*(x - y) = (x.p*y.r - y.p*x.r + x.q*y.r*sqrt(Dx)) - y.q*x.r*sqrt(Dy)."""
    return sign_over_two_fields(x.p * y.r - y.p * x.r, x.q * y.r, -y.q * x.r, 0,
                                x.disc, y.disc)
