"""Standalone property suites: each class bundles one invariant family so
`pytest tests/test_properties.py -k <name>` runs it in isolation."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from f4cantor.cf import CFWord, PeriodicCF, convergents, eval_periodic, fold_matrix
from f4cantor.surd import DEFAULT_DISC, QuadSurd
from reference import check_disjoint, check_nested, enumerate_cn, epsilon_seq

digit_words = st.lists(st.integers(1, 4), min_size=1, max_size=14).map(tuple)
surds = st.builds(QuadSurd, st.integers(-50, 50), st.integers(-50, 50),
                  st.integers(1, 50), st.just(DEFAULT_DISC))


class TestConvergentDeterminant:
    @given(digit_words)
    def test_identity(self, word):
        seq = convergents(CFWord(word))
        for k in range(len(word)):
            assert seq.p(k) * seq.q(k - 1) - seq.p(k - 1) * seq.q(k) == (-1) ** (k - 1)


class TestEpsilonRange:
    @given(digit_words)
    def test_in_fifth_to_one(self, word):
        eps = epsilon_seq(CFWord(word))
        assert all(Fraction(1, 5) <= e <= 1 for e in eps[1:])


class TestFieldAxioms:
    @given(surds, surds, surds)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(surds)
    def test_inverses(self, a):
        assert a + (-a) == QuadSurd(0, 0, 1)
        if a:
            assert a * a.inverse() == QuadSurd(1, 0, 1)


class TestPeriodicFixedPoint:
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=6).map(tuple))
    def test_residual_zero(self, period):
        t = eval_periodic(PeriodicCF((), period))
        a, b, c, d = fold_matrix(period)
        residual = t * (t * c + d) - (t * a + b)
        assert residual == QuadSurd(0, 0, 1, t.disc)


class TestCylinderGeometry:
    def test_disjoint_and_nested_to_c7(self):
        previous = None
        for n in range(1, 8):
            level = enumerate_cn(n)
            assert check_disjoint(level)
            if previous is not None:
                assert check_nested(level, previous)
            previous = level
