from hypothesis import given
from hypothesis import strategies as st

from f4cantor.words import admissible, count_words, first_violation, state_after, DEAD
from reference import iter_words


def test_admissible_examples():
    assert admissible((4, 3, 1, 2))
    assert not admissible((4, 3, 4, 4))
    assert first_violation((4, 3, 4, 4)) == 2
    assert not admissible((4, 3, 4, 1, 4, 1, 4))
    assert first_violation((4, 3, 4, 1, 4, 1, 4)) == 2
    assert first_violation((4, 3, 1)) is None
    assert first_violation((4, 3, 7)) == 2


def brute_admissible(word):
    if any(d not in (1, 2, 3, 4) for d in word):
        return False
    s = "".join(map(str, word))
    return "44" not in s and "41414" not in s


@given(st.lists(st.integers(1, 4), min_size=0, max_size=14).map(tuple))
def test_automaton_matches_brute_force(word):
    assert admissible(word) == brute_admissible(word)
    assert (state_after(word) == DEAD) == (not brute_admissible(word))


def test_counts_match_enumeration():
    for length in range(2, 9):
        assert count_words(length) == sum(1 for _ in iter_words(length))


def test_count_length_eight():
    # transfer-matrix value, cross-checked by the enumeration above
    assert count_words(8) == 3099


def test_enumeration_is_lexicographic_and_admissible():
    seen = list(iter_words(6))
    assert seen == sorted(seen)
    assert all(w[:2] == (4, 3) and admissible(w) for w in seen)
    assert len(set(seen)) == len(seen)
